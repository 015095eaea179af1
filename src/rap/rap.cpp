#include "mth/rap/rap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mth/cluster/kmeans.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/simd.hpp"
#include "mth/util/threadpool.hpp"
#include "mth/util/timer.hpp"

namespace mth::rap {
namespace {

constexpr double kInfCost = std::numeric_limits<double>::max();

}  // namespace

namespace detail {

// Struct doc + span_with/span bodies live in rap.hpp (exposed there for
// unit tests and the kernel bench).
void YExtremes::add(InstId owner, Dbu y) {
  if (y < min1 || (y == min1 && owner == min1_owner)) {
    if (owner != min1_owner) {
      min2 = min1;
    }
    min1 = y;
    min1_owner = owner;
  } else if (owner != min1_owner && y < min2) {
    min2 = y;
  }
  if (y > max1 || (y == max1 && owner == max1_owner)) {
    if (owner != max1_owner) {
      max2 = max1;
    }
    max1 = y;
    max1_owner = owner;
  } else if (owner != max1_owner && y > max2) {
    max2 = y;
  }
}

std::vector<YExtremes> build_y_extremes(const Design& d) {
  std::vector<YExtremes> out(static_cast<std::size_t>(d.netlist.num_nets()));
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock) continue;
    YExtremes& ye = out[static_cast<std::size_t>(n)];
    for (const PinRef& ref : net.pins) {
      if (ref.is_port()) {
        ye.add(-2, d.netlist.port(ref.pin).pos.y);
      } else {
        const Instance& inst = d.netlist.instance(ref.inst);
        ye.add(ref.inst, inst.pos.y + d.master_of(ref.inst).height / 2);
      }
    }
  }
  return out;
}

// Doc comment on the declaration in rap.hpp (exposed there for unit tests).
bool greedy_assign(const std::vector<std::vector<double>>& cost,
                   const std::vector<std::vector<int>>& cand,
                   const std::vector<Dbu>& cluster_w,
                   const std::vector<Dbu>& cap, int n_min,
                   const std::vector<double>* open_cost,
                   const std::vector<char>* forced_rows,
                   std::vector<int>& pair_out, std::vector<char>& open_out,
                   int* fail_cluster) {
  if (fail_cluster != nullptr) *fail_cluster = -1;
  const int nc = static_cast<int>(cost.size());
  const int nr = static_cast<int>(cap.size());
  std::vector<Dbu> left = cap;
  open_out.assign(static_cast<std::size_t>(nr), 0);
  int open_count = 0;
  if (forced_rows != nullptr) {
    open_out = *forced_rows;
    for (char c : open_out) open_count += c ? 1 : 0;
    if (open_count > n_min) return false;
  }
  std::vector<int> order(static_cast<std::size_t>(nc));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return cluster_w[static_cast<std::size_t>(a)] > cluster_w[static_cast<std::size_t>(b)];
  });
  pair_out.assign(static_cast<std::size_t>(nc), -1);
  for (int c : order) {
    double best = kInfCost;
    int best_r = -1;
    for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
      const int r = cand[static_cast<std::size_t>(c)][j];
      if (left[static_cast<std::size_t>(r)] < cluster_w[static_cast<std::size_t>(c)]) continue;
      if (!open_out[static_cast<std::size_t>(r)]) {
        if (forced_rows != nullptr || open_count >= n_min) continue;
      }
      double f = cost[static_cast<std::size_t>(c)][j];
      if (!open_out[static_cast<std::size_t>(r)] && open_cost != nullptr) {
        f += (*open_cost)[static_cast<std::size_t>(r)];
      }
      if (f < best) {
        best = f;
        best_r = r;
      }
    }
    if (best_r < 0) {
      if (fail_cluster != nullptr) *fail_cluster = c;
      return false;
    }
    if (!open_out[static_cast<std::size_t>(best_r)]) {
      open_out[static_cast<std::size_t>(best_r)] = 1;
      ++open_count;
    }
    left[static_cast<std::size_t>(best_r)] -= cluster_w[static_cast<std::size_t>(c)];
    pair_out[static_cast<std::size_t>(c)] = best_r;
  }
  // Pad the open set to exactly n_min rows (Eq. 5 is an equality; empty
  // minority rows are feasible), picking the cheapest rows to open. Ties —
  // in particular the all-zero costs of a null open_cost — break to the
  // lowest row index (strict '<' keeps the first minimum), a behavior unit
  // tests pin so parallel refactors can't silently reorder it.
  while (open_count < n_min) {
    int best_r = -1;
    double best_c = kInfCost;
    for (int r = 0; r < nr; ++r) {
      if (open_out[static_cast<std::size_t>(r)]) continue;
      if (open_cost == nullptr) {
        best_r = r;  // all candidates tie at 0.0: lowest index wins outright
        break;
      }
      const double c = (*open_cost)[static_cast<std::size_t>(r)];
      if (c < best_c) {
        best_c = c;
        best_r = r;
      }
    }
    if (best_r < 0) break;
    open_out[static_cast<std::size_t>(best_r)] = 1;
    ++open_count;
  }
  return open_count == n_min;
}

// Doc comment on the declaration in rap.hpp. The historical build walked
// (cell, row, net) with a fresh span_with() per (cell, row) pair; this
// version hoists each net's (lo, hi, span) constants out of the row loop —
// a net where the probed cell is the only distinct owner contributes
// identically 0 (span_with and span both collapse) and is skipped — and
// sweeps the row axis with the SIMD kernels over an SoA row-center array.
// Every term is an integer-in-double, so the net-order accumulation into
// `dh` is exact, and the final combine keeps the historical per-row
// expression alpha*disp + (1-alpha)*dhpwl verbatim: the buffer is
// bit-identical to the nested-loop build.
std::vector<double> build_cost_matrix(const Design& design,
                                      const std::vector<YExtremes>& extremes,
                                      const std::vector<InstId>& minority_cells,
                                      const std::vector<int>& cluster_of,
                                      int n_clusters, double alpha,
                                      int num_threads) {
  MTH_SPAN("rap/cost_matrix");
  const Floorplan& fp = design.floorplan;
  const int nr = fp.num_pairs();
  const auto nrz = static_cast<std::size_t>(nr);
  const int n_min_c = static_cast<int>(minority_cells.size());

  std::vector<double> row_y(nrz);
  for (int r = 0; r < nr; ++r) {
    row_y[static_cast<std::size_t>(r)] =
        static_cast<double>(fp.pair_y_center(r));
  }

  const auto& uses = design.netlist.inst_uses();

  // Cluster-major parallel build: each cluster's row-cost slice is written
  // by exactly one task, and cells within a cluster are visited in ascending
  // minority index — the same per-slot accumulation order as a serial scan,
  // so the matrix is bit-identical for every thread count.
  std::vector<std::vector<int>> cluster_cells(
      static_cast<std::size_t>(n_clusters));
  for (int k = 0; k < n_min_c; ++k) {
    cluster_cells[static_cast<std::size_t>(
                      cluster_of[static_cast<std::size_t>(k)])]
        .push_back(k);
  }

  std::vector<double> full_cost(static_cast<std::size_t>(n_clusters) * nrz,
                                0.0);
  const simd::Kernels& kern = simd::kernels();
  const double beta = 1.0 - alpha;
  util::ParallelOptions par;
  par.num_threads = num_threads;
  par.trace_name = "rap/cost_chunk";
  util::parallel_chunks(
      n_clusters, par,
      [&](int /*chunk*/, std::int64_t begin, std::int64_t end) {
        // One Δspan scratch per chunk, not per cluster: its content is fully
        // rewritten per cell (span_delta_init on the first net), so chunk
        // geometry cannot leak into the matrix.
        std::vector<double> dh(nrz);
        for (std::int64_t c = begin; c < end; ++c) {
          double* row_cost =
              full_cost.data() + static_cast<std::size_t>(c) * nrz;
          for (const int k : cluster_cells[static_cast<std::size_t>(c)]) {
            const InstId i = minority_cells[static_cast<std::size_t>(k)];
            const Instance& inst = design.netlist.instance(i);
            const Dbu yc = inst.pos.y + design.master_of(i).height / 2;
            bool have_dh = false;
            for (const InstUse& u : uses[static_cast<std::size_t>(i)]) {
              if (design.netlist.net(u.net).is_clock) continue;
              const YExtremes& ye = extremes[static_cast<std::size_t>(u.net)];
              const Dbu lo = (ye.min1_owner == i) ? ye.min2 : ye.min1;
              const Dbu hi = (ye.max1_owner == i) ? ye.max2 : ye.max1;
              if (lo == INT64_MAX || hi == INT64_MIN) continue;  // term == 0
              (have_dh ? kern.span_delta : kern.span_delta_init)(
                  row_y.data(), nrz, static_cast<double>(lo),
                  static_cast<double>(hi), static_cast<double>(ye.span()),
                  dh.data());
              have_dh = true;
            }
            if (!have_dh) std::fill(dh.begin(), dh.end(), 0.0);
            kern.cost_combine(row_y.data(), dh.data(), nrz,
                              static_cast<double>(yc), alpha, beta, row_cost);
          }
        }
      });
  return full_cost;
}

std::vector<double> build_cost_matrix(const Design& design,
                                      const std::vector<InstId>& minority_cells,
                                      const std::vector<int>& cluster_of,
                                      int n_clusters, double alpha,
                                      int num_threads) {
  return build_cost_matrix(design, build_y_extremes(design), minority_cells,
                           cluster_of, n_clusters, alpha, num_threads);
}

PreparedRap prepare_rap(const Design& design, const RapOptions& opt) {
  MTH_ASSERT(opt.s > 0.0 && opt.s <= 1.0, "rap: clustering resolution out of (0,1]");
  MTH_ASSERT(opt.alpha >= 0.0 && opt.alpha <= 1.0, "rap: alpha out of [0,1]");
  const Floorplan& fp = design.floorplan;
  const Library& wlib = opt.width_library ? *opt.width_library : *design.library;
  PreparedRap prep;

  // --- minority cells ---------------------------------------------------------
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    if (design.is_minority(i)) prep.minority_cells.push_back(i);
  }
  const int n_min_c = static_cast<int>(prep.minority_cells.size());
  MTH_ASSERT(n_min_c > 0, "rap: no minority cells");
  const int nr = fp.num_pairs();
  prep.nr = nr;
  prep.pair_cap = 2 * fp.core().width();

  // --- N_minR -------------------------------------------------------------------
  int n_min_pairs = opt.n_min_pairs;
  if (n_min_pairs <= 0) {
    Dbu demand = 0;
    for (InstId i : prep.minority_cells) {
      demand += wlib.master(design.netlist.instance(i).master).width;
    }
    n_min_pairs = std::clamp(
        static_cast<int>(std::ceil(static_cast<double>(demand) /
                                   (static_cast<double>(prep.pair_cap) *
                                    opt.minority_row_fill))),
        1, nr - 1);
  }
  prep.n_min_pairs = n_min_pairs;

  // --- clustering (§III-B) ------------------------------------------------------
  WallTimer t_cluster;
  int n_clusters;
  if (opt.use_clustering) {
    n_clusters = std::clamp(
        static_cast<int>(std::llround(opt.s * n_min_c)), 1, n_min_c);
  } else {
    n_clusters = n_min_c;
  }
  // Coarse clustering can be *infeasible*: a cluster whose total (original)
  // width exceeds one pair's capacity cannot satisfy Eqs. 3+4. Refine N_C
  // (double it) until every cluster fits — at worst one cell per cluster.
  const Dbu pair_capacity_limit = prep.pair_cap;
  auto widths_fit = [&](const std::vector<int>& assign, int k) {
    std::vector<Dbu> w(static_cast<std::size_t>(k), 0);
    for (int i = 0; i < n_min_c; ++i) {
      const InstId inst = prep.minority_cells[static_cast<std::size_t>(i)];
      w[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])] +=
          wlib.master(design.netlist.instance(inst).master).width;
    }
    for (Dbu v : w) {
      if (v > pair_capacity_limit) return false;
    }
    return true;
  };

  std::vector<Point> centers;
  centers.reserve(static_cast<std::size_t>(n_min_c));
  for (InstId i : prep.minority_cells) {
    const Instance& inst = design.netlist.instance(i);
    const CellMaster& m = design.master_of(i);
    centers.push_back({inst.pos.x + m.width / 2, inst.pos.y + m.height / 2});
  }
  {
    MTH_SPAN("rap/cluster");
    while (true) {
      if (opt.use_clustering && n_clusters < n_min_c) {
        cluster::KMeansOptions ko;
        ko.max_iterations = opt.kmeans_max_iterations;
        ko.exec = opt.ctx.exec;
        prep.cluster_of = cluster::kmeans_2d(centers, n_clusters, ko).assignment;
      } else {
        n_clusters = n_min_c;
        prep.cluster_of.resize(static_cast<std::size_t>(n_min_c));
        std::iota(prep.cluster_of.begin(), prep.cluster_of.end(), 0);
      }
      if (n_clusters >= n_min_c || widths_fit(prep.cluster_of, n_clusters)) break;
      n_clusters = std::min(n_min_c, 2 * n_clusters);
      MTH_DEBUG << "rap: cluster wider than a pair — refining to N_C="
                << n_clusters;
    }
  }
  prep.n_clusters = n_clusters;
  prep.cluster_seconds = t_cluster.seconds();

  // --- cost matrix f_cr (§III-C, Eq. 2) ------------------------------------------
  WallTimer t_cost;
  prep.cluster_w.assign(static_cast<std::size_t>(n_clusters), 0);
  for (int k = 0; k < n_min_c; ++k) {
    const InstId i = prep.minority_cells[static_cast<std::size_t>(k)];
    prep.cluster_w[static_cast<std::size_t>(
        prep.cluster_of[static_cast<std::size_t>(k)])] +=
        wlib.master(design.netlist.instance(i).master).width;
  }

  // Flat row-major f_cr buffer, built on the SIMD kernel layer (see the
  // doc comment on detail::build_cost_matrix).
  prep.full_cost = build_cost_matrix(design, prep.minority_cells,
                                     prep.cluster_of, n_clusters, opt.alpha,
                                     opt.ctx.exec.num_threads);
  prep.cost_seconds = t_cost.seconds();

  // --- warm-start geometry (k-means row seeding in the ILP stage) ---------------
  prep.member_ys.reserve(static_cast<std::size_t>(n_min_c));
  for (InstId i : prep.minority_cells) {
    prep.member_ys.push_back(design.netlist.instance(i).pos.y +
                             design.master_of(i).height / 2);
  }
  prep.pair_y.resize(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) {
    prep.pair_y[static_cast<std::size_t>(r)] = fp.pair_y_center(r);
  }

  // Optional eviction model: opening pair r as minority displaces its
  // current majority occupants by at least one pair pitch; charge
  // alpha * (majority cells in r) * pitch on y_r.
  prep.evict_cost.assign(static_cast<std::size_t>(nr), 0.0);
  if (opt.model_eviction) {
    const Dbu pitch = fp.num_pairs() > 1
                          ? fp.pair_y_center(1) - fp.pair_y_center(0)
                          : fp.core().height();
    for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
      if (design.is_minority(i)) continue;
      const Instance& inst = design.netlist.instance(i);
      const int p = fp.row_at_y(inst.pos.y + design.master_of(i).height / 2) / 2;
      prep.evict_cost[static_cast<std::size_t>(p)] +=
          opt.alpha * static_cast<double>(pitch);
    }
  }
  return prep;
}

SubSolution solve_subproblem(const SubInstance& inst, const RapOptions& opt) {
  SubSolution sol;
  const int n_clusters = inst.n_clusters;
  const int nr = inst.nr;
  const int n_min_pairs = inst.n_min_pairs;
  const int n_min_c = static_cast<int>(inst.member_ys.size());
  const std::vector<Dbu>& cluster_w = inst.cluster_w;
  const std::vector<Dbu>& caps = inst.caps;
  const std::vector<double>& evict_cost = inst.evict_cost;
  MTH_ASSERT(n_clusters > 0 && nr > 0, "rap: empty subproblem");
  MTH_ASSERT(inst.cost.size() ==
                 static_cast<std::size_t>(n_clusters) * static_cast<std::size_t>(nr),
             "rap: subproblem cost slice shape mismatch");

  // Candidate rows (§III-C + pruning): with `max_cand_rows` = K in (0, nr)
  // each cluster keeps only its K cheapest rows by f_cr (a cost window
  // around the cluster's y mass, since displacement dominates f_cr away
  // from it; ties break to the lower row index for determinism), shrinking
  // the ILP from N_C*N_R to N_C*K variables. 0 keeps the dense exact
  // formulation. Infeasible prunings are repaired below by widening.
  std::vector<int> cand_k(
      static_cast<std::size_t>(n_clusters),
      opt.max_cand_rows <= 0 ? nr : std::min(opt.max_cand_rows, nr));
  std::vector<std::vector<int>> cand(static_cast<std::size_t>(n_clusters));
  std::vector<std::vector<double>> cost(static_cast<std::size_t>(n_clusters));
  auto build_cluster_cand = [&](int c) {
    const int k = cand_k[static_cast<std::size_t>(c)];
    std::vector<int>& cc = cand[static_cast<std::size_t>(c)];
    const double* fc =
        inst.cost.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(nr);
    cc.resize(static_cast<std::size_t>(nr));
    std::iota(cc.begin(), cc.end(), 0);
    if (k < nr) {
      std::partial_sort(cc.begin(), cc.begin() + k, cc.end(), [&](int a, int b) {
        const double fa = fc[static_cast<std::size_t>(a)];
        const double fb = fc[static_cast<std::size_t>(b)];
        return fa < fb || (fa == fb && a < b);
      });
      cc.resize(static_cast<std::size_t>(k));
      std::sort(cc.begin(), cc.end());
    }
    std::vector<double>& co = cost[static_cast<std::size_t>(c)];
    co.resize(cc.size());
    for (std::size_t j = 0; j < cc.size(); ++j) {
      co[j] = fc[static_cast<std::size_t>(cc[j])];
    }
  };
  for (int c = 0; c < n_clusters; ++c) build_cluster_cand(c);

  // --- ILP (Eqs. 1–5) --------------------------------------------------------------
  WallTimer t_ilp;
  // Named span (not MTH_SPAN): the ILP section's locals (model, xvar, ...)
  // feed the certificate export below, so there is no natural brace scope to
  // close at sol.seconds; the extraction tail it also covers is noise.
  trace::Span ilp_span("rap/ilp");

  auto widen_cluster = [&](int c) {
    const int k = cand_k[static_cast<std::size_t>(c)];
    if (k >= nr) return false;
    cand_k[static_cast<std::size_t>(c)] = std::min(nr, 2 * k);
    build_cluster_cand(c);
    return true;
  };

  // Feasibility repair: a pruned candidate set can starve a cluster even
  // though the dense instance is feasible. The cost-blind first-fit check
  // reports the first unplaceable cluster; widen exactly that cluster's
  // window and re-check until placement succeeds or it is fully dense.
  if (opt.max_cand_rows > 0) {
    for (;;) {
      std::vector<std::vector<double>> zero_cost(
          static_cast<std::size_t>(n_clusters));
      for (int c = 0; c < n_clusters; ++c) {
        zero_cost[static_cast<std::size_t>(c)].assign(
            cand[static_cast<std::size_t>(c)].size(), 0.0);
      }
      int fail_c = -1;
      std::vector<int> pair_of;
      std::vector<char> open;
      if (greedy_assign(zero_cost, cand, cluster_w, caps, n_min_pairs,
                        nullptr, nullptr, pair_of, open, &fail_c)) {
        break;
      }
      if (fail_c < 0 || !widen_cluster(fail_c)) break;
      ++sol.cand_widenings;
      MTH_COUNT("rap/cand_widenings", 1);
      MTH_DEBUG << "rap: widened candidate window of cluster " << fail_c
                << " to " << cand_k[static_cast<std::size_t>(fail_c)];
    }
  }

  // Build + solve, re-entered with widened candidate windows if the pruned
  // ILP comes back infeasible (the dense formulation never does — the caller
  // enforces its own contract on an infeasible return: a band falls back to
  // one band, the one-band solve keeps the historical hard failure).
  std::vector<std::vector<int>> xvar;
  std::vector<int> yvar;
  lp::Model model;
  ilp::Result ir;
  // Basis of the *base* model's first root LP (pre-cut), exported with the
  // certificate so a later ECO re-solve of a same-shape model can hot-start
  // (RapCertificate::root_basis). The final cut-loop basis would not do: it
  // has more rows than a freshly built base model accepts.
  lp::Basis round0_basis;
  for (;;) {
  model = lp::Model();
  // x vars, c-major over candidate lists; then y vars.
  xvar.assign(static_cast<std::size_t>(n_clusters), {});
  for (int c = 0; c < n_clusters; ++c) {
    for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
      xvar[static_cast<std::size_t>(c)].push_back(model.add_var(
          0.0, 1.0, cost[static_cast<std::size_t>(c)][j]));
    }
  }
  yvar.assign(static_cast<std::size_t>(nr), 0);
  for (int r = 0; r < nr; ++r) {
    yvar[static_cast<std::size_t>(r)] =
        model.add_var(0.0, 1.0, evict_cost[static_cast<std::size_t>(r)]);
  }
  sol.num_x_vars = 0;
  sol.num_cand_rows = 0;
  for (int c = 0; c < n_clusters; ++c) {
    const int len = static_cast<int>(cand[static_cast<std::size_t>(c)].size());
    sol.num_x_vars += len;
    sol.num_cand_rows = std::max(sol.num_cand_rows, len);
  }

  // Eq. 3: unique assignment.
  for (int c = 0; c < n_clusters; ++c) {
    std::vector<lp::RowEntry> row;
    for (int v : xvar[static_cast<std::size_t>(c)]) row.push_back({v, 1.0});
    model.add_row(lp::Sense::EQ, 1.0, std::move(row));
  }
  // Eq. 4 + linking: sum_c w(c) x_cr - w(r) y_r <= 0.
  {
    std::vector<std::vector<lp::RowEntry>> rows(static_cast<std::size_t>(nr));
    for (int c = 0; c < n_clusters; ++c) {
      for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
        const int r = cand[static_cast<std::size_t>(c)][j];
        rows[static_cast<std::size_t>(r)].push_back(
            {xvar[static_cast<std::size_t>(c)][j],
             static_cast<double>(cluster_w[static_cast<std::size_t>(c)])});
      }
    }
    for (int r = 0; r < nr; ++r) {
      rows[static_cast<std::size_t>(r)].push_back(
          {yvar[static_cast<std::size_t>(r)],
           -static_cast<double>(caps[static_cast<std::size_t>(r)])});
      model.add_row(lp::Sense::LE, 0.0, std::move(rows[static_cast<std::size_t>(r)]));
    }
  }
  // Eq. 5: exactly N_minR minority rows.
  {
    std::vector<lp::RowEntry> row;
    for (int r = 0; r < nr; ++r) row.push_back({yvar[static_cast<std::size_t>(r)], 1.0});
    model.add_row(lp::Sense::EQ, static_cast<double>(n_min_pairs), std::move(row));
  }

  const int num_vars = model.num_vars();
  auto to_point = [&](const std::vector<int>& pair_of,
                      const std::vector<char>& open) {
    std::vector<double> x(static_cast<std::size_t>(num_vars), 0.0);
    for (int c = 0; c < n_clusters; ++c) {
      const int r = pair_of[static_cast<std::size_t>(c)];
      for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
        if (cand[static_cast<std::size_t>(c)][j] == r) {
          x[static_cast<std::size_t>(xvar[static_cast<std::size_t>(c)][j])] = 1.0;
          break;
        }
      }
    }
    for (int r = 0; r < nr; ++r) {
      x[static_cast<std::size_t>(yvar[static_cast<std::size_t>(r)])] =
          open[static_cast<std::size_t>(r)] ? 1.0 : 0.0;
    }
    return x;
  };

  // Root strengthening: the aggregated linking (Eq. 4 with capacity * y_r)
  // gives a weak LP bound — fractional y spreads over many rows. Lazily add
  // violated disaggregated linking cuts x_cr <= y_r (the facility-location
  // "strong formulation") until the root relaxation respects them; this
  // mirrors what CPLEX's cut generation does and collapses the B&B tree.
  //
  // Each round re-solves the same LP plus a handful of new rows, so the
  // previous round's optimal basis (extended with the new cut slacks, which
  // stay dual-feasible) warm-starts the next round; the last basis then
  // warm-starts the B&B root relaxation.
  lp::Basis round_basis;
  bool have_basis = false;
  // ECO hot start: a prior run's root basis (SubInstance::hot_basis, from
  // RapOptions::eco_base) seeds the first LP of the cut loop. lp::solve
  // validates the basis against the model and silently falls back to the
  // cold two-phase path on any mismatch, so a stale hint can only cost
  // pivots, never change the answer.
  if (opt.ilp.warm_basis && !inst.hot_basis.empty()) {
    round_basis = inst.hot_basis;
    have_basis = true;
  }
  {
    // Cut budget: the dense-LU basis factorization costs O(m^3), so the row
    // count must stay bounded; a few hundred of the most-violated cuts close
    // most of the gap (diminishing returns after that). The loop also shares
    // the ILP wall-clock budget — root strengthening may use at most half of
    // it, the remainder goes to branch & bound.
    const int kMaxCuts = std::min(500, 4 * nr + n_clusters);
    const int kMaxCutsPerRound = std::max(64, kMaxCuts / 4);
    const double cut_deadline = 0.5 * opt.ilp.time_limit_s;
    int added_total = 0;
    double prev_bound = -std::numeric_limits<double>::max();
    for (int round = 0; round < 8 && added_total < kMaxCuts; ++round) {
      if (t_ilp.seconds() > cut_deadline) break;
      lp::Result rel = lp::solve(
          model, opt.ilp.lp,
          opt.ilp.warm_basis && have_basis ? &round_basis : nullptr);
      sol.lp_iterations += rel.iterations;
      if (rel.warm_used) ++sol.basis_reuse_hits;
      if (rel.status != lp::Status::Optimal) break;
      if (!rel.basis.empty()) {
        if (round == 0) round0_basis = rel.basis;
        round_basis = std::move(rel.basis);
        have_basis = true;
      }
      // Stop when the root bound stagnates.
      if (round > 1 && rel.objective < prev_bound + 1e-3 * std::abs(prev_bound)) {
        break;
      }
      prev_bound = rel.objective;
      struct Cut {
        double violation;
        int xv, yv;
      };
      std::vector<Cut> cuts;
      for (int c = 0; c < n_clusters; ++c) {
        for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
          const int xv = xvar[static_cast<std::size_t>(c)][j];
          const int yv = yvar[static_cast<std::size_t>(
              cand[static_cast<std::size_t>(c)][j])];
          const double v = rel.x[static_cast<std::size_t>(xv)] -
                           rel.x[static_cast<std::size_t>(yv)];
          if (v > 1e-6) cuts.push_back({v, xv, yv});
        }
      }
      if (cuts.empty()) break;
      std::stable_sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
        return a.violation > b.violation;
      });
      const int take = std::min<int>(
          {static_cast<int>(cuts.size()), kMaxCutsPerRound, kMaxCuts - added_total});
      for (int k = 0; k < take; ++k) {
        model.add_row(lp::Sense::LE, 0.0,
                      {{cuts[static_cast<std::size_t>(k)].xv, 1.0},
                       {cuts[static_cast<std::size_t>(k)].yv, -1.0}});
      }
      added_total += take;
    }
    MTH_COUNT("rap/linking_cuts", added_total);
    MTH_DEBUG << "rap: added " << added_total << " linking cuts at the root";
  }

  // Warm starts: (a) greedy with opening costs; (b) greedy restricted to a
  // k-means-style row set (evenly spread over the minority y mass) — (b)
  // guarantees the ILP incumbent is never worse than a [10]-like row choice
  // under the model objective. Keep the better of the two.
  std::vector<double> warm;
  bool have_warm = false;
  auto offer_warm = [&](const std::vector<int>& pair_of,
                        const std::vector<char>& open) {
    std::vector<double> pt = to_point(pair_of, open);
    if (model.max_violation(pt) > 1e-6) return;
    if (!have_warm || model.objective_value(pt) < model.objective_value(warm)) {
      warm = std::move(pt);
      have_warm = true;
    }
  };
  // An externally supplied incumbent (the sharded repair ILP warm-starts
  // its boundary windows with the merged band solution) competes on equal
  // footing: offer_warm keeps whichever point the model scores best.
  if (!inst.warm_pair.empty()) offer_warm(inst.warm_pair, inst.warm_open);
  {
    std::vector<int> pair_of;
    std::vector<char> open;
    if (greedy_assign(cost, cand, cluster_w, caps, n_min_pairs, &evict_cost,
                      nullptr, pair_of, open)) {
      offer_warm(pair_of, open);
    }
    // k-means-style rows: 1-D clusters of minority y mass claim nearest pairs.
    const int k = std::min(n_min_pairs, n_min_c);
    const auto km = cluster::kmeans_1d(inst.member_ys, k);
    std::vector<char> forced(static_cast<std::size_t>(nr), 0);
    std::vector<char> taken(static_cast<std::size_t>(nr), 0);
    int opened = 0;
    for (int c = 0; c < k; ++c) {
      int best = -1;
      Dbu best_d = INT64_MAX;
      for (int r = 0; r < nr; ++r) {
        if (taken[static_cast<std::size_t>(r)]) continue;
        const Dbu d = std::llabs(
            inst.pair_y[static_cast<std::size_t>(r)] -
            static_cast<Dbu>(km.centroids[static_cast<std::size_t>(c)].second));
        if (d < best_d) {
          best_d = d;
          best = r;
        }
      }
      if (best >= 0) {
        taken[static_cast<std::size_t>(best)] = 1;
        forced[static_cast<std::size_t>(best)] = 1;
        ++opened;
      }
    }
    if (opened == n_min_pairs) {
      std::vector<int> pair_of_km;
      std::vector<char> open_km;
      if (greedy_assign(cost, cand, cluster_w, caps, n_min_pairs, &evict_cost,
                        &forced, pair_of_km, open_km)) {
        offer_warm(pair_of_km, open_km);
      }
    }
    // Feasibility-first fallback: cost-blind first-fit-decreasing. With the
    // N_minR sizing slack this succeeds whenever the instance is feasible,
    // guaranteeing branch & bound always starts with an incumbent.
    if (!have_warm) {
      std::vector<std::vector<double>> zero_cost(
          static_cast<std::size_t>(n_clusters),
          std::vector<double>(static_cast<std::size_t>(nr), 0.0));
      std::vector<int> pair_of_ffd;
      std::vector<char> open_ffd;
      if (greedy_assign(zero_cost, cand, cluster_w, caps, n_min_pairs, nullptr,
                        nullptr, pair_of_ffd, open_ffd)) {
        offer_warm(pair_of_ffd, open_ffd);
      }
    }
  }

  // Node heuristic: round the relaxation's y to the top-N_minR rows, then
  // greedily repair the cluster assignment within that row set.
  ilp::Options iopt = opt.ilp;
  // Hand B&B whatever wall-clock the root cut loop left over.
  iopt.time_limit_s = std::max(1.0, opt.ilp.time_limit_s - t_ilp.seconds());
  iopt.priority_vars = yvar;  // fixing the row set collapses the subtree
  iopt.heuristic = [&](const std::vector<double>& relax,
                       std::vector<double>& out) {
    std::vector<int> order(static_cast<std::size_t>(nr));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return relax[static_cast<std::size_t>(yvar[static_cast<std::size_t>(a)])] >
             relax[static_cast<std::size_t>(yvar[static_cast<std::size_t>(b)])];
    });
    std::vector<char> forced(static_cast<std::size_t>(nr), 0);
    for (int k = 0; k < n_min_pairs; ++k) {
      forced[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = 1;
    }
    std::vector<int> pair_of;
    std::vector<char> open;
    if (!greedy_assign(cost, cand, cluster_w, caps, n_min_pairs, &evict_cost,
                       &forced, pair_of, open)) {
      return false;
    }
    out = to_point(pair_of, open);
    return true;
  };

  ir = ilp::solve(model, [&] {
        std::vector<int> ints;
        ints.reserve(static_cast<std::size_t>(num_vars));
        for (int v = 0; v < num_vars; ++v) ints.push_back(v);
        return ints;
      }(), iopt, have_warm ? &warm : nullptr,
      have_basis ? &round_basis : nullptr, opt.ctx.exec);
  sol.lp_iterations += ir.lp_iterations;
  sol.basis_reuse_hits += ir.basis_reuse_hits;
  if (ir.status == ilp::Status::Optimal || ir.status == ilp::Status::Feasible) {
    break;
  }
  // The pruned formulation came back with no feasible point even though the
  // greedy pre-pass placed every cluster — interacting capacity constraints
  // the repair pass cannot see. Widen every widenable window and rebuild;
  // once everything is dense the infeasibility is genuine and the caller
  // decides what to do with it.
  bool widened = false;
  for (int c = 0; c < n_clusters; ++c) widened = widen_cluster(c) || widened;
  if (!widened) break;
  ++sol.cand_widenings;
  MTH_COUNT("rap/cand_widenings", 1);
  MTH_DEBUG << "rap: pruned ILP " << ilp::to_string(ir.status)
            << "; widened all candidate windows, rebuilding";
  }  // candidate-window retry loop

  sol.seconds = t_ilp.seconds();
  sol.status = ir.status;
  sol.objective = ir.objective;
  sol.best_bound = ir.best_bound;
  sol.gap = ir.gap();
  sol.ilp_nodes = ir.nodes;

  // Dual-certificate export: the model kept here is the exact root model
  // branch & bound searched (ilp::solve took its own copy and only its copy
  // had bounds mutated), and ir.root_duals certifies its root relaxation.
  if (opt.export_certificate && !ir.root_duals.empty()) {
    auto cert = std::make_shared<RapCertificate>();
    cert->model = std::move(model);
    cert->duals = std::move(ir.root_duals);
    cert->root_lp_objective = ir.root_lp_objective;
    cert->xvar = xvar;
    cert->cand = cand;
    cert->yvar = yvar;
    cert->cluster_w = cluster_w;
    cert->evict_cost = evict_cost;
    cert->root_basis = std::move(round0_basis);
    sol.certificate = std::move(cert);
  }

  // --- extract (subproblem-local indices) -------------------------------------
  if (ir.status == ilp::Status::Optimal || ir.status == ilp::Status::Feasible) {
    sol.open.assign(static_cast<std::size_t>(nr), 0);
    for (int r = 0; r < nr; ++r) {
      sol.open[static_cast<std::size_t>(r)] =
          ir.x[static_cast<std::size_t>(yvar[static_cast<std::size_t>(r)])] > 0.5
              ? 1
              : 0;
    }
    sol.cluster_pair.assign(static_cast<std::size_t>(n_clusters), -1);
    for (int c = 0; c < n_clusters; ++c) {
      for (std::size_t j = 0; j < cand[static_cast<std::size_t>(c)].size(); ++j) {
        if (ir.x[static_cast<std::size_t>(
                xvar[static_cast<std::size_t>(c)][j])] > 0.5) {
          sol.cluster_pair[static_cast<std::size_t>(c)] =
              cand[static_cast<std::size_t>(c)][j];
          break;
        }
      }
      MTH_ASSERT(sol.cluster_pair[static_cast<std::size_t>(c)] >= 0,
                 "rap: cluster left unassigned");
    }
  }
  MTH_DEBUG << "rap: " << n_clusters << " clusters x " << nr << " pairs, N_minR="
            << n_min_pairs << ", ilp " << ilp::to_string(ir.status) << " obj "
            << ir.objective << " nodes " << ir.nodes << " in " << sol.seconds
            << "s";
  return sol;
}

}  // namespace detail

}  // namespace mth::rap
