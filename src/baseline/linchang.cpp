#include "mth/baseline/linchang.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mth/cluster/kmeans.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::baseline {

int auto_minority_pairs(const Design& design, const Library& width_library,
                        double fill) {
  MTH_ASSERT(fill > 0.1 && fill <= 1.0, "baseline: bad fill target");
  const int num_pairs = design.floorplan.num_pairs();
  MTH_ASSERT(num_pairs >= 2,
             "baseline: N_minR needs at least 2 row pairs (one minority, one "
             "majority), floorplan has " + std::to_string(num_pairs));
  Dbu demand = 0;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    const CellMaster& m = width_library.master(design.netlist.instance(i).master);
    if (m.track_height == TrackHeight::H75T) demand += m.width;
  }
  const int pairs = static_cast<int>(std::ceil(
      static_cast<double>(demand) /
      (static_cast<double>(design.floorplan.pair_capacity()) * fill)));
  return std::clamp(pairs, 1, num_pairs - 1);
}

KmeansAssignment assign_rows_kmeans(const Design& design, int n_min_pairs,
                                    const BaselineOptions& opt) {
  const Floorplan& fp = design.floorplan;
  MTH_ASSERT(n_min_pairs >= 1 && n_min_pairs < fp.num_pairs(),
             "baseline: N_minR out of range");

  KmeansAssignment out;
  std::vector<Dbu> ys;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    if (design.is_minority(i)) {
      const Instance& inst = design.netlist.instance(i);
      out.minority_cells.push_back(i);
      ys.push_back(inst.pos.y + design.master_of(i).height / 2);
    }
  }
  MTH_ASSERT(!ys.empty(), "baseline: no minority cells");
  const int k = std::min<int>(n_min_pairs, static_cast<int>(ys.size()));

  cluster::KMeansOptions ko;
  ko.max_iterations = opt.kmeans_max_iterations;
  const auto km = cluster::kmeans_1d(ys, k, ko);

  // Cluster centers claim the nearest free row pair, largest clusters first
  // (they have the strongest pull on displacement).
  std::vector<int> sizes(static_cast<std::size_t>(k), 0);
  for (int a : km.assignment) ++sizes[static_cast<std::size_t>(a)];
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sizes[static_cast<std::size_t>(a)] > sizes[static_cast<std::size_t>(b)];
  });

  std::vector<Dbu> centroid_y;
  for (const auto& c : km.centroids) centroid_y.push_back(static_cast<Dbu>(c.second));
  const std::vector<Dbu> pair_y = fp.pair_y_centers();
  std::vector<char> taken(pair_y.size(), 0);
  const std::vector<int> pair_of_cluster =
      claim_nearest_pairs(pair_y, centroid_y, order, taken);
  out.rows = RowAssignment::all_majority(fp.num_pairs());
  for (int p : pair_of_cluster) {
    MTH_ASSERT(p >= 0, "baseline: ran out of row pairs");
    out.rows.pair_is_minority[static_cast<std::size_t>(p)] = true;
  }
  // If k < n_min_pairs (degenerate tiny cases), pad with pairs nearest the
  // already-chosen ones so capacity still matches Flow (2)'s N_minR.
  for (int extra = k; extra < n_min_pairs; ++extra) {
    int best = -1;
    Dbu best_d = INT64_MAX;
    for (std::size_t p = 0; p < pair_y.size(); ++p) {
      if (taken[p]) continue;
      for (std::size_t q = 0; q < pair_y.size(); ++q) {
        if (!taken[q]) continue;
        const Dbu d = std::llabs(pair_y[p] - pair_y[q]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(p);
        }
      }
    }
    if (best < 0) break;
    taken[static_cast<std::size_t>(best)] = 1;
    out.rows.pair_is_minority[static_cast<std::size_t>(best)] = true;
  }
  out.cell_pair.resize(out.minority_cells.size());
  for (std::size_t i = 0; i < out.minority_cells.size(); ++i) {
    out.cell_pair[i] =
        pair_of_cluster[static_cast<std::size_t>(km.assignment[i])];
  }
  return out;
}

legal::AbacusResult legalize_with_assignment(
    Design& design, const RowAssignment& assignment,
    const std::vector<InstId>* bound_cells, const std::vector<int>* bound_pairs) {
  MTH_ASSERT(assignment.num_pairs() == design.floorplan.num_pairs(),
             "baseline: assignment / floorplan mismatch");
  if (bound_cells != nullptr && bound_pairs != nullptr) {
    MTH_ASSERT(bound_cells->size() == bound_pairs->size(),
               "baseline: binding size mismatch");
    for (std::size_t k = 0; k < bound_cells->size(); ++k) {
      const int p = (*bound_pairs)[k];
      if (p < 0) continue;
      Instance& inst = design.netlist.instance((*bound_cells)[k]);
      const Dbu yc = inst.pos.y + design.master_of((*bound_cells)[k]).height / 2;
      inst.pos.y = design.floorplan.nearer_row(p, yc).y;
    }
  }
  // Unbound minority cells and, crucially, majority cells evicted from
  // freshly chosen minority pairs are seeded by the row-class legalization
  // ("move the cells to fit into rows with corresponding track-heights").
  return legal::row_class_legalize(design, assignment);
}

}  // namespace mth::baseline
