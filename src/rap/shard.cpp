// The RAP solve (README "Scaling"): decompose the floorplan's row pairs into
// contiguous horizontal bands, solve each band as an independent sparse RAP
// subproblem, then reconcile every band interface with a small repair ILP.
// The whole-design solve is the one-band case of the same pipeline: no quota
// split, no repair, plus the ECO hot start and the hard-failure contract.
//
// Determinism contract: band windows, cluster routing, quota split, the merge
// and the repair schedule are all pure functions of (design, options). The
// thread pool only decides *when* a band solves, never what it returns, and
// the merge walks bands in fixed ascending order — so results are
// bit-identical at any MTH_THREADS and stable across repeated runs.
//
// Why it is faster than the whole-design solve on one core: branch & bound
// cost is superlinear in instance size (the dense-LU LP factorization alone
// is O(m^3) in the row count), so B small trees are much cheaper than one
// monolithic tree over the union — the classic windowed-decomposition
// trade-off of optimality-certificate strength for wall-clock.

#include "mth/rap/rap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/threadpool.hpp"
#include "mth/util/timer.hpp"

namespace mth::rap {

namespace {

/// Resolve RapOptions::shards: 0 auto-sizes so each band carries roughly 40
/// clusters over at least 8 pairs — small enough that a band's branch &
/// bound stays in the sub-second regime, large enough that boundary repair
/// windows stay a small fraction of a band. N clamps to the
/// pair count so every band owns at least one pair.
int effective_bands(const RapOptions& opt, int n_clusters, int nr) {
  int bands = opt.shards;
  if (bands == 0) {
    bands = std::clamp(std::min(n_clusters / 40, nr / 8), 1, 16);
  }
  return std::clamp(bands, 1, std::max(1, nr));
}

/// Index of the pair whose y center is nearest to `y` (ties to the lower
/// index). `pair_y` is ascending.
int nearest_pair(const std::vector<Dbu>& pair_y, double y) {
  const int n = static_cast<int>(pair_y.size());
  const auto it = std::lower_bound(
      pair_y.begin(), pair_y.end(), y,
      [](Dbu p, double v) { return static_cast<double>(p) < v; });
  const int i = static_cast<int>(it - pair_y.begin());
  if (i <= 0) return 0;
  if (i >= n) return n - 1;
  const double dl = y - static_cast<double>(pair_y[static_cast<std::size_t>(i - 1)]);
  const double dr = static_cast<double>(pair_y[static_cast<std::size_t>(i)]) - y;
  return dl <= dr ? i - 1 : i;
}

/// Per-band working state: the subproblem built from the PreparedRap slice
/// and the solution written by the (possibly concurrent) band solve.
struct BandState {
  int lo = 0;                  ///< first pair (inclusive)
  int hi = 0;                  ///< one past the last pair
  int quota = 0;               ///< band share of the Eq. 5 quota
  std::vector<int> clusters;   ///< global cluster ids, ascending
  Dbu demand = 0;              ///< total cluster width routed here
  detail::SubInstance inst;
  detail::SubSolution sol;
};

/// Trivial solve for a band with no clusters: open the `quota` cheapest
/// pairs by (evict cost, index) — with no x variables the ILP degenerates to
/// exactly this selection, so the result is Optimal with bound == objective.
void solve_trivial_band(BandState& bs) {
  const int w = bs.hi - bs.lo;
  std::vector<int> order(static_cast<std::size_t>(w));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return bs.inst.evict_cost[static_cast<std::size_t>(a)] <
           bs.inst.evict_cost[static_cast<std::size_t>(b)];
  });
  bs.sol.open.assign(static_cast<std::size_t>(w), 0);
  bs.sol.objective = 0.0;
  for (int k = 0; k < bs.quota; ++k) {
    const int r = order[static_cast<std::size_t>(k)];
    bs.sol.open[static_cast<std::size_t>(r)] = 1;
    bs.sol.objective += bs.inst.evict_cost[static_cast<std::size_t>(r)];
  }
  bs.sol.best_bound = bs.sol.objective;
  bs.sol.status = ilp::Status::Optimal;
}

/// Member-cell y centers grouped by cluster, each group in minority order.
std::vector<std::vector<Dbu>> member_ys_by_cluster(
    const detail::PreparedRap& prep) {
  std::vector<std::vector<Dbu>> out(static_cast<std::size_t>(prep.n_clusters));
  for (std::size_t k = 0; k < prep.member_ys.size(); ++k) {
    out[static_cast<std::size_t>(prep.cluster_of[k])].push_back(prep.member_ys[k]);
  }
  return out;
}

/// The subproblem over pairs [lo, hi) and clusters `cls`, sliced out of the
/// prepared whole design.
detail::SubInstance slice_instance(
    const detail::PreparedRap& prep,
    const std::vector<std::vector<Dbu>>& member_ys_of,
    const std::vector<int>& cls, int lo, int hi, int quota) {
  detail::SubInstance si;
  si.n_clusters = static_cast<int>(cls.size());
  si.nr = hi - lo;
  si.n_min_pairs = quota;
  si.cost.reserve(cls.size() * static_cast<std::size_t>(hi - lo));
  si.cluster_w.reserve(cls.size());
  for (int c : cls) {
    const double* row = prep.full_cost.data() +
                        static_cast<std::size_t>(c) * static_cast<std::size_t>(prep.nr);
    si.cost.insert(si.cost.end(), row + lo, row + hi);
    si.cluster_w.push_back(prep.cluster_w[static_cast<std::size_t>(c)]);
    const std::vector<Dbu>& mys = member_ys_of[static_cast<std::size_t>(c)];
    si.member_ys.insert(si.member_ys.end(), mys.begin(), mys.end());
  }
  si.caps.assign(static_cast<std::size_t>(hi - lo), prep.pair_cap);
  si.evict_cost.assign(prep.evict_cost.begin() + lo, prep.evict_cost.begin() + hi);
  si.pair_y.assign(prep.pair_y.begin() + lo, prep.pair_y.begin() + hi);
  return si;
}

/// Cut the pairs into `bands` windows, route every cluster to the band
/// owning its y centroid, split the Eq. 5 quota and build each band's
/// subproblem. Returns why the split is infeasible, or "" on success.
std::string split_bands(const detail::PreparedRap& prep,
                        const std::vector<std::vector<Dbu>>& member_ys_of,
                        int bands, std::vector<BandState>& states) {
  const int nr = prep.nr;
  const int n_min_pairs = prep.n_min_pairs;
  states.assign(static_cast<std::size_t>(bands), BandState{});
  std::vector<int> band_lo(static_cast<std::size_t>(bands), 0);
  for (int b = 0; b < bands; ++b) {
    states[static_cast<std::size_t>(b)].lo =
        static_cast<int>(static_cast<std::int64_t>(b) * nr / bands);
    states[static_cast<std::size_t>(b)].hi =
        static_cast<int>(static_cast<std::int64_t>(b + 1) * nr / bands);
    band_lo[static_cast<std::size_t>(b)] = states[static_cast<std::size_t>(b)].lo;
  }

  // Cluster y centroids from the member cell centers; each cluster goes to
  // the band owning its nearest pair.
  for (int c = 0; c < prep.n_clusters; ++c) {
    const std::vector<Dbu>& mys = member_ys_of[static_cast<std::size_t>(c)];
    MTH_ASSERT(!mys.empty(), "rap/shard: empty cluster");
    double sum = 0.0;
    for (Dbu y : mys) sum += static_cast<double>(y);
    const double yc = sum / static_cast<double>(mys.size());
    const int p = nearest_pair(prep.pair_y, yc);
    const int b = static_cast<int>(
        std::upper_bound(band_lo.begin(), band_lo.end(), p) - band_lo.begin()) - 1;
    states[static_cast<std::size_t>(b)].clusters.push_back(c);
    states[static_cast<std::size_t>(b)].demand +=
        prep.cluster_w[static_cast<std::size_t>(c)];
  }

  // --- quota split (Eq. 5 across bands) ---------------------------------------
  // Per-band feasibility floor = the hard packing bound only (demand at full
  // pair capacity). The fill-target slack N_minR carries on top of that bound
  // is handed out by the proportional-target loop below — making it part of
  // the floor would fragment one ceil() per band and overflow N_minR on
  // small designs.
  Dbu total_demand = 0;
  for (const BandState& bs : states) total_demand += bs.demand;
  int floor_sum = 0;
  for (int b = 0; b < bands; ++b) {
    BandState& bs = states[static_cast<std::size_t>(b)];
    if (bs.clusters.empty()) continue;
    const Dbu hard = (bs.demand + prep.pair_cap - 1) / prep.pair_cap;
    if (hard > bs.hi - bs.lo) {
      return "band " + std::to_string(b) + " demand exceeds its capacity";
    }
    bs.quota = static_cast<int>(hard);
    floor_sum += bs.quota;
  }
  if (floor_sum > n_min_pairs) {
    return "per-band quota floors (" + std::to_string(floor_sum) +
           ") exceed N_minR (" + std::to_string(n_min_pairs) + ")";
  }
  // Fixed proportional targets t_b = N_minR * demand_b / total_demand; hand
  // out the leftover one pair at a time to the band farthest below its
  // target (ties to the lower band index), skipping saturated bands.
  std::vector<double> target(static_cast<std::size_t>(bands), 0.0);
  for (int b = 0; b < bands; ++b) {
    if (total_demand > 0) {
      target[static_cast<std::size_t>(b)] =
          static_cast<double>(n_min_pairs) *
          static_cast<double>(states[static_cast<std::size_t>(b)].demand) /
          static_cast<double>(total_demand);
    }
  }
  for (int remaining = n_min_pairs - floor_sum; remaining > 0; --remaining) {
    int best = -1;
    double best_score = 0.0;
    for (int b = 0; b < bands; ++b) {
      const BandState& bs = states[static_cast<std::size_t>(b)];
      if (bs.quota >= bs.hi - bs.lo) continue;  // saturated
      const double score =
          target[static_cast<std::size_t>(b)] - static_cast<double>(bs.quota);
      if (best < 0 || score > best_score) {
        best = b;
        best_score = score;
      }
    }
    if (best < 0) return "quota unsplittable";
    ++states[static_cast<std::size_t>(best)].quota;
  }

  for (BandState& bs : states) {
    bs.inst = slice_instance(prep, member_ys_of, bs.clusters, bs.lo, bs.hi,
                             bs.quota);
  }
  return "";
}

/// Solve every band on the deterministic thread pool. Returns why a band
/// came back without a feasible point, or "" on success.
std::string solve_bands(std::vector<BandState>& states, const RapOptions& opt) {
  util::ParallelOptions par;
  par.num_threads = opt.ctx.exec.num_threads;
  par.grain = 1;
  par.trace_name = "rap/shard";
  util::parallel_chunks(
      static_cast<std::int64_t>(states.size()), par,
      [&](int /*chunk*/, std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
          BandState& bs = states[static_cast<std::size_t>(b)];
          if (bs.clusters.empty()) {
            solve_trivial_band(bs);
          } else {
            bs.sol = detail::solve_subproblem(bs.inst, opt);
          }
        }
      });
  for (std::size_t b = 0; b < states.size(); ++b) {
    const ilp::Status st = states[b].sol.status;
    if (st != ilp::Status::Optimal && st != ilp::Status::Feasible) {
      return "band " + std::to_string(b) + " ILP " + ilp::to_string(st);
    }
  }
  return "";
}

/// ECO hot start (RapOptions::eco_base): map the prior run's solution onto
/// this clustering and offer it as the external incumbent, and hand the
/// prior certificate's root basis to the cut loop. The mapping goes through
/// minority-cell *identity* (the minority enumeration is
/// position-independent, so index i names the same cell in both runs): each
/// new cluster takes the majority vote of its members' prior pairs. Any
/// shape mismatch or out-of-range index — a perturbation large enough to
/// change the minority set, quota or cluster count, or an untrusted
/// deserialized base — leaves `si` cold.
void offer_eco_hint(const RapResult& base, const detail::PreparedRap& prep,
                    detail::SubInstance& si) {
  const int nr = prep.nr;
  const int n_clusters = prep.n_clusters;
  if (!base.bands.empty() || base.num_clusters <= 0 ||
      base.n_min_pairs != prep.n_min_pairs ||
      base.assignment.num_pairs() != nr ||
      base.minority_cells != prep.minority_cells ||
      base.cluster_of.size() != prep.minority_cells.size() ||
      static_cast<int>(base.cluster_pair.size()) != base.num_clusters) {
    return;
  }
  for (const int c : base.cluster_of) {
    if (c < 0 || c >= base.num_clusters) return;
  }
  for (const int r : base.cluster_pair) {
    if (r < 0 || r >= nr) return;
  }
  std::vector<std::map<int, int>> votes(static_cast<std::size_t>(n_clusters));
  for (std::size_t i = 0; i < prep.cluster_of.size(); ++i) {
    const int nc = prep.cluster_of[i];
    if (nc < 0 || nc >= n_clusters) return;
    ++votes[static_cast<std::size_t>(nc)][base.cluster_pair[static_cast<std::size_t>(
        base.cluster_of[i])]];
  }
  std::vector<int> warm_pair(static_cast<std::size_t>(n_clusters), -1);
  for (int c = 0; c < n_clusters; ++c) {
    int best = -1, best_votes = -1;
    // std::map iteration is pair-index ascending: ties break low.
    for (const auto& [pair, n] : votes[static_cast<std::size_t>(c)]) {
      if (n > best_votes) {
        best_votes = n;
        best = pair;
      }
    }
    if (best < 0) return;
    warm_pair[static_cast<std::size_t>(c)] = best;
  }
  si.warm_pair = std::move(warm_pair);
  si.warm_open.assign(static_cast<std::size_t>(nr), 0);
  for (int r = 0; r < nr; ++r) {
    si.warm_open[static_cast<std::size_t>(r)] =
        base.assignment.is_minority_pair(r) ? 1 : 0;
  }
  if (base.certificate != nullptr) {
    si.hot_basis = base.certificate->root_basis;
  }
  MTH_COUNT("rap/eco_hot", 1);
  MTH_DEBUG << "rap: eco hot start mapped (" << n_clusters << " clusters, basis "
            << (si.hot_basis.empty() ? "cold" : "warm") << ")";
}

/// Solve the one band that owns every pair and cluster. It takes the
/// prepared buffers whole (member ys in minority order) and the ECO hot
/// start; the instance is feasible by construction of N_minR, so a return
/// without a feasible point means the capacity model itself is broken.
BandState solve_whole(detail::PreparedRap& prep, const RapOptions& opt) {
  BandState bs;
  bs.hi = prep.nr;
  bs.quota = prep.n_min_pairs;
  bs.clusters.resize(static_cast<std::size_t>(prep.n_clusters));
  std::iota(bs.clusters.begin(), bs.clusters.end(), 0);
  detail::SubInstance& si = bs.inst;
  si.n_clusters = prep.n_clusters;
  si.nr = prep.nr;
  si.n_min_pairs = prep.n_min_pairs;
  si.cluster_w = std::move(prep.cluster_w);
  si.cost = std::move(prep.full_cost);
  si.caps.assign(static_cast<std::size_t>(prep.nr), prep.pair_cap);
  si.evict_cost = std::move(prep.evict_cost);
  si.member_ys = std::move(prep.member_ys);
  si.pair_y = std::move(prep.pair_y);
  if (opt.eco_base != nullptr) offer_eco_hint(*opt.eco_base, prep, si);
  bs.sol = detail::solve_subproblem(si, opt);
  MTH_ASSERT(bs.sol.status == ilp::Status::Optimal ||
                 bs.sol.status == ilp::Status::Feasible,
             "rap: ILP found no feasible assignment (capacity too tight?)");
  return bs;
}

}  // namespace

RapResult solve_rap(const Design& design, const RapOptions& opt) {
  trace::SinkScope sink_scope(opt.ctx.sink);
  MTH_SPAN("rap/solve");
  detail::PreparedRap prep = detail::prepare_rap(design, opt);
  const int nr = prep.nr;
  const int n_clusters = prep.n_clusters;

  int bands = effective_bands(opt, n_clusters, nr);
  MTH_COUNT("rap/bands", bands);
  WallTimer t_ilp;
  std::vector<BandState> states;
  std::vector<std::vector<Dbu>> member_ys_of;
  if (bands > 1) {
    member_ys_of = member_ys_by_cluster(prep);
    std::string why = split_bands(prep, member_ys_of, bands, states);
    if (why.empty()) why = solve_bands(states, opt);
    if (!why.empty()) {
      MTH_WARN << "rap/shard: " << why << " — falling back to one band";
      MTH_COUNT("rap/shard_fallback", 1);
      bands = 1;
    }
  }
  if (bands == 1) {
    states.clear();
    states.push_back(solve_whole(prep, opt));
  }

  // --- ordered merge ------------------------------------------------------------
  RapResult res;
  res.num_clusters = n_clusters;
  res.n_min_pairs = prep.n_min_pairs;
  res.cluster_seconds = prep.cluster_seconds;
  res.cost_seconds = prep.cost_seconds;
  res.assignment = RowAssignment::all_majority(nr);
  res.cluster_pair.assign(static_cast<std::size_t>(n_clusters), -1);
  res.status = ilp::Status::Optimal;
  double bound_total = 0.0;
  for (const BandState& bs : states) {
    for (int r = bs.lo; r < bs.hi; ++r) {
      res.assignment.pair_is_minority[static_cast<std::size_t>(r)] =
          bs.sol.open[static_cast<std::size_t>(r - bs.lo)] != 0;
    }
    for (std::size_t i = 0; i < bs.clusters.size(); ++i) {
      res.cluster_pair[static_cast<std::size_t>(bs.clusters[i])] =
          bs.lo + bs.sol.cluster_pair[i];
    }
    res.objective += bs.sol.objective;
    bound_total += bs.sol.best_bound;
    res.merge(bs.sol);
    if (bs.sol.status != ilp::Status::Optimal) res.status = ilp::Status::Feasible;
  }
  if (bands == 1) {
    res.gap = states[0].sol.gap;
    res.certificate = std::move(states[0].sol.certificate);
  } else {
    res.bands.reserve(states.size());
    for (const BandState& bs : states) {
      RapBand band;
      band.pair_lo = bs.lo;
      band.pair_hi = bs.hi;
      band.clusters = bs.clusters;
      band.n_min_pairs = bs.quota;
      band.status = bs.sol.status;
      band.objective = bs.sol.objective;
      band.best_bound = bs.sol.best_bound;
      band.certificate = bs.sol.certificate;
      res.bands.push_back(std::move(band));
    }
  }

  // --- boundary repair ----------------------------------------------------------
  // Each band interface gets a dense mini-RAP over the pairs within
  // `shard_overlap` of the boundary: participants are the clusters currently
  // assigned there, the window quota is the open count the merge left there
  // (so Eq. 5 stays exact globally), and the merged solution warm-starts the
  // solve — an accepted repair can only lower the objective. Sequential in
  // ascending boundary order; thin bands make consecutive windows overlap,
  // which is fine because each window re-reads the current state.
  const int overlap = std::max(0, opt.shard_overlap);
  for (int b = 1; b < bands && overlap > 0; ++b) {
    MTH_SPAN("rap/repair");
    const int boundary = states[static_cast<std::size_t>(b)].lo;
    const int wlo = std::max(0, boundary - overlap);
    const int whi = std::min(nr, boundary + overlap);
    std::vector<int> parts;
    for (int c = 0; c < n_clusters; ++c) {
      const int p = res.cluster_pair[static_cast<std::size_t>(c)];
      if (p >= wlo && p < whi) parts.push_back(c);
    }
    int quota_w = 0;
    for (int r = wlo; r < whi; ++r) {
      if (res.assignment.pair_is_minority[static_cast<std::size_t>(r)]) ++quota_w;
    }
    if (parts.empty() || quota_w == 0) continue;

    detail::SubInstance wi =
        slice_instance(prep, member_ys_of, parts, wlo, whi, quota_w);
    wi.warm_pair.reserve(parts.size());
    for (int c : parts) {
      wi.warm_pair.push_back(res.cluster_pair[static_cast<std::size_t>(c)] - wlo);
    }
    wi.warm_open.assign(static_cast<std::size_t>(whi - wlo), 0);
    double old_cost = 0.0;
    for (int c : parts) {
      old_cost += prep.full_cost[static_cast<std::size_t>(c) *
                                     static_cast<std::size_t>(nr) +
                                 static_cast<std::size_t>(
                                     res.cluster_pair[static_cast<std::size_t>(c)])];
    }
    for (int r = wlo; r < whi; ++r) {
      if (res.assignment.pair_is_minority[static_cast<std::size_t>(r)]) {
        wi.warm_open[static_cast<std::size_t>(r - wlo)] = 1;
        old_cost += prep.evict_cost[static_cast<std::size_t>(r)];
      }
    }

    RapOptions ropt = opt;
    ropt.max_cand_rows = 0;        // dense: the warm point is always representable
    ropt.export_certificate = false;  // band certificates already cover the bound
    detail::SubSolution ws = detail::solve_subproblem(wi, ropt);
    // A repair window re-solves pairs the bands already own: count its
    // search work, not its model size.
    ws.num_x_vars = 0;
    ws.num_cand_rows = 0;
    res.merge(ws);
    if (ws.status != ilp::Status::Optimal && ws.status != ilp::Status::Feasible) {
      continue;  // keep the merged solution (cannot happen with a valid warm)
    }
    if (ws.objective < old_cost - 1e-9) {
      for (std::size_t i = 0; i < parts.size(); ++i) {
        res.cluster_pair[static_cast<std::size_t>(parts[i])] =
            wlo + ws.cluster_pair[i];
      }
      for (int r = wlo; r < whi; ++r) {
        res.assignment.pair_is_minority[static_cast<std::size_t>(r)] =
            ws.open[static_cast<std::size_t>(r - wlo)] != 0;
      }
      res.objective += ws.objective - old_cost;
      ++res.repair_moves;
      MTH_DEBUG << "rap/shard: repair at boundary " << boundary << " improved "
                << old_cost << " -> " << ws.objective;
    }
  }

  res.ilp_seconds = t_ilp.seconds();
  if (bands > 1) {
    // The decomposition bound is the sum of per-band dual bounds; boundary
    // repair can legitimately push the objective below it (the bands' Eq. 5
    // split was a restriction), so a negative certified gap is meaningful —
    // "better than the decomposition optimum" — and verify::certify_rap
    // accepts it.
    res.gap = (res.objective - bound_total) /
              std::max(std::abs(res.objective), 1.0);
    MTH_DEBUG << "rap/shard: " << bands << " bands x ~" << (nr / bands)
              << " pairs, obj " << res.objective << " bound " << bound_total
              << " repair_moves " << res.repair_moves << " in "
              << res.ilp_seconds << "s";
  }
  res.minority_cells = std::move(prep.minority_cells);
  res.cluster_of = std::move(prep.cluster_of);
  return res;
}

}  // namespace mth::rap
