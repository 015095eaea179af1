// RAP solver tests: formulation invariants (Eqs. 3-5), clustering behavior,
// optimality vs brute force on tiny instances, fence regions, and the
// proposed row-constraint legalization.

#include <gtest/gtest.h>

#include <cmath>

#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/rap/fence.hpp"
#include "mth/rap/rap.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/trace/collector.hpp"

namespace mth::rap {
namespace {

const flows::PreparedCase& small_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.04;
    return flows::prepare_case(synth::spec_by_name("aes_300"), opt);
  }();
  return pc;
}

// A low-minority-count case for the (expensive) unclustered solves.
const flows::PreparedCase& sparse_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    return flows::prepare_case(synth::spec_by_name("aes_400"), opt);
  }();
  return pc;
}

RapOptions base_options(const flows::PreparedCase& pc) {
  RapOptions ro;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  ro.ilp.time_limit_s = 10;
  return ro;
}

TEST(Rap, RespectsRowBudgetEq5) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  EXPECT_EQ(r.assignment.num_minority(), pc.n_min_pairs);
  EXPECT_EQ(r.n_min_pairs, pc.n_min_pairs);
}

TEST(Rap, EveryClusterAssignedEq3) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  ASSERT_EQ(static_cast<int>(r.cluster_pair.size()), r.num_clusters);
  for (int c = 0; c < r.num_clusters; ++c) {
    const int p = r.cluster_pair[static_cast<std::size_t>(c)];
    ASSERT_GE(p, 0);
    // A cluster's pair must be a minority pair (linking constraint).
    EXPECT_TRUE(r.assignment.is_minority_pair(p));
  }
}

TEST(Rap, CapacityRespectedEq4) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  // Sum original widths per assigned pair; must fit pair capacity.
  std::vector<Dbu> load(static_cast<std::size_t>(pc.initial.floorplan.num_pairs()), 0);
  for (std::size_t k = 0; k < r.minority_cells.size(); ++k) {
    const int c = r.cluster_of[k];
    const int p = r.cluster_pair[static_cast<std::size_t>(c)];
    load[static_cast<std::size_t>(p)] += pc.original_library->master(
        pc.initial.netlist.instance(r.minority_cells[k]).master).width;
  }
  const Dbu cap = 2 * pc.initial.floorplan.core().width();
  for (Dbu l : load) EXPECT_LE(l, cap);
}

TEST(Rap, ClusterCountFollowsResolution) {
  const auto& pc = small_case();
  const int n_min_c = pc.initial.num_minority();
  for (double s : {0.1, 0.3, 0.7}) {
    RapOptions ro = base_options(pc);
    ro.s = s;
    ro.ilp.time_limit_s = 5;
    const RapResult r = solve_rap(pc.initial, ro);
    EXPECT_EQ(r.num_clusters,
              std::clamp(static_cast<int>(std::llround(s * n_min_c)), 1, n_min_c))
        << "s=" << s;
    EXPECT_EQ(static_cast<int>(r.cluster_of.size()), n_min_c);
  }
}

TEST(Rap, ClusterCountLawHoldsAcrossSeeds) {
  // N_C = clamp(round(s * N_minC), 1, N_minC) must hold for *every* testcase
  // draw, not just the shared fixture — different seeds change the minority
  // population and its geometry, but never the count law.
  for (const std::uint64_t seed : {2ull, 3ull}) {
    flows::FlowOptions opt;
    opt.scale = 0.04;
    opt.ctx.exec.seed = seed;
    const flows::PreparedCase pc =
        flows::prepare_case(synth::spec_by_name("aes_300"), opt);
    const int n_min_c = pc.initial.num_minority();
    ASSERT_GT(n_min_c, 0) << "seed=" << seed;
    RapOptions ro = base_options(pc);
    ro.ilp.time_limit_s = 5;
    const RapResult r = solve_rap(pc.initial, ro);
    EXPECT_EQ(r.num_clusters,
              std::clamp(static_cast<int>(std::llround(ro.s * n_min_c)), 1,
                         n_min_c))
        << "seed=" << seed;
    EXPECT_EQ(static_cast<int>(r.cluster_of.size()), n_min_c);
    for (const int c : r.cluster_of) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, r.num_clusters);
    }
  }
}

TEST(Rap, NoClusteringMeansOneCellPerCluster) {
  const auto& pc = sparse_case();
  RapOptions ro = base_options(pc);
  ro.use_clustering = false;
  ro.ilp.time_limit_s = 10;
  const RapResult r = solve_rap(pc.initial, ro);
  EXPECT_EQ(r.num_clusters, pc.initial.num_minority());
}

TEST(Rap, ClusteringShrinksIlpAndRuntimeMetadata) {
  const auto& pc = sparse_case();
  RapOptions coarse = base_options(pc);
  coarse.s = 0.1;
  const RapResult rc_res = solve_rap(pc.initial, coarse);
  RapOptions fine = base_options(pc);
  fine.use_clustering = false;
  const RapResult rf = solve_rap(pc.initial, fine);
  EXPECT_LT(rc_res.num_x_vars, rf.num_x_vars);
  EXPECT_LT(rc_res.num_clusters, rf.num_clusters);
}

TEST(Rap, AutoBudgetWhenUnset) {
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.n_min_pairs = 0;  // auto-size
  const RapResult r = solve_rap(pc.initial, ro);
  EXPECT_GE(r.n_min_pairs, 1);
  EXPECT_EQ(r.assignment.num_minority(), r.n_min_pairs);
}

TEST(Rap, BitIdenticalAcrossThreadCounts) {
  // The parallel cost-matrix / k-means layer guarantees bit-identical
  // results for every thread count (thread-count-independent chunking with
  // ordered merges) — so the whole RapResult must match the serial solve
  // exactly, doubles included.
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.s = 0.15;
  ro.ctx.exec.num_threads = 1;
  const RapResult ref = solve_rap(pc.initial, ro);
  for (int threads : {2, 8}) {
    ro.ctx.exec.num_threads = threads;
    const RapResult r = solve_rap(pc.initial, ro);
    EXPECT_EQ(r.assignment.pair_is_minority, ref.assignment.pair_is_minority)
        << "threads=" << threads;
    EXPECT_EQ(r.cluster_of, ref.cluster_of) << "threads=" << threads;
    EXPECT_EQ(r.cluster_pair, ref.cluster_pair) << "threads=" << threads;
    EXPECT_EQ(r.objective, ref.objective) << "threads=" << threads;
    EXPECT_EQ(r.num_clusters, ref.num_clusters) << "threads=" << threads;
  }
}

TEST(RapGreedy, PaddingOpensLowestIndexRowsOnNullOpenCost) {
  // One cluster of width 10 over 4 rows with capacity 100 and n_min = 3:
  // the cluster lands in row 0 (all costs tie at 0, lowest index wins), and
  // padding must open rows 1 and 2 — bottom-up, never an arbitrary row.
  const std::vector<std::vector<double>> cost{{0.0, 0.0, 0.0, 0.0}};
  const std::vector<std::vector<int>> cand{{0, 1, 2, 3}};
  const std::vector<Dbu> cluster_w{10};
  const std::vector<Dbu> cap{100, 100, 100, 100};
  std::vector<int> pair_of;
  std::vector<char> open;
  ASSERT_TRUE(detail::greedy_assign(cost, cand, cluster_w, cap, /*n_min=*/3,
                                    /*open_cost=*/nullptr,
                                    /*forced_rows=*/nullptr, pair_of, open));
  EXPECT_EQ(pair_of, (std::vector<int>{0}));
  EXPECT_EQ(open, (std::vector<char>{1, 1, 1, 0}));
}

TEST(RapGreedy, PaddingFollowsOpenCostWhenProvided) {
  // With explicit opening costs the padding picks the cheapest rows instead
  // (still lowest-index on exact ties).
  const std::vector<std::vector<double>> cost{{0.0, 0.0, 0.0, 0.0}};
  const std::vector<std::vector<int>> cand{{0, 1, 2, 3}};
  const std::vector<Dbu> cluster_w{10};
  const std::vector<Dbu> cap{100, 100, 100, 100};
  const std::vector<double> open_cost{5.0, 1.0, 1.0, 0.5};
  std::vector<int> pair_of;
  std::vector<char> open;
  ASSERT_TRUE(detail::greedy_assign(cost, cand, cluster_w, cap, /*n_min=*/3,
                                    &open_cost, /*forced_rows=*/nullptr,
                                    pair_of, open));
  // Cluster goes to row 3 (cheapest cost 0 + open 0.5); padding opens row 1
  // before row 2 (tie at 1.0 breaks low) and never touches row 0 (5.0).
  EXPECT_EQ(pair_of, (std::vector<int>{3}));
  EXPECT_EQ(open, (std::vector<char>{0, 1, 1, 1}));
}

TEST(RapGreedy, ReportsFailingCluster) {
  // Two clusters forced through a single row that only fits the first: the
  // failure report must name the second cluster (the feasibility-repair pass
  // widens exactly that candidate window).
  const std::vector<std::vector<double>> cost{{0.0}, {0.0}};
  const std::vector<std::vector<int>> cand{{0}, {0}};
  const std::vector<Dbu> cluster_w{60, 60};
  const std::vector<Dbu> cap{100};
  std::vector<int> pair_of;
  std::vector<char> open;
  int fail_c = 123;
  ASSERT_FALSE(detail::greedy_assign(cost, cand, cluster_w, cap, /*n_min=*/1,
                                     nullptr, nullptr, pair_of, open, &fail_c));
  EXPECT_EQ(fail_c, 1);  // width-descending order ties break to cluster 0

  // Success path must reset the report.
  const std::vector<Dbu> wide_cap{200};
  fail_c = 123;
  ASSERT_TRUE(detail::greedy_assign(cost, cand, cluster_w, wide_cap, 1,
                                    nullptr, nullptr, pair_of, open, &fail_c));
  EXPECT_EQ(fail_c, -1);
}

TEST(Rap, PrunedCandidatesMatchDenseWithinGap) {
  // Aggressive pruning (K = 4 candidate rows per cluster) against the dense
  // exact formulation: the ILP shrinks by an order of magnitude and the
  // objective stays within a small window of the exact optimum.
  const auto& pc = small_case();
  RapOptions dense = base_options(pc);
  dense.max_cand_rows = 0;
  dense.ilp.warm_basis = false;  // the P2 baseline configuration
  const RapResult rd = solve_rap(pc.initial, dense);

  RapOptions pruned = base_options(pc);
  pruned.max_cand_rows = 4;
  const RapResult rp = solve_rap(pc.initial, pruned);

  EXPECT_LT(rp.num_x_vars, rd.num_x_vars);
  EXPECT_LE(rp.num_cand_rows, rd.num_cand_rows);
  // Dense proves optimality only if it beats its deadline; a deadline-limited
  // incumbent may legitimately lose to the pruned solve (and under sanitizer
  // or load slowdown either side may time out with an arbitrarily weak
  // incumbent), so the quality window is only meaningful between *proven*
  // optima.
  if (rd.status == ilp::Status::Optimal) {
    EXPECT_GE(rp.objective, rd.objective - 1e-6);
    if (rp.status == ilp::Status::Optimal) {
      const double denom = std::max(std::abs(rd.objective), 1.0);
      EXPECT_LE(std::abs(rp.objective - rd.objective) / denom, 0.05)
          << "pruned " << rp.objective << " vs dense " << rd.objective;
    }
  }
  // Both must still satisfy the row budget.
  EXPECT_EQ(rp.assignment.num_minority(), pc.n_min_pairs);
}

TEST(Rap, SolverStatsPopulated) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  // Candidate bookkeeping: num_x_vars is the sum of candidate-list lengths,
  // num_cand_rows the widest list; both bounded by the pruning budget.
  const int nr = pc.initial.floorplan.num_pairs();
  const int expect_k = std::min(RapOptions{}.max_cand_rows, nr);
  EXPECT_GT(r.num_cand_rows, 0);
  EXPECT_LE(r.num_cand_rows, std::max(expect_k, nr));
  EXPECT_GE(r.num_x_vars, r.num_clusters);  // >= one candidate per cluster
  EXPECT_LE(r.num_x_vars, r.num_clusters * nr);
  // Warm-basis plumbing: the root cut loop alone guarantees reuse.
  EXPECT_GT(r.lp_iterations, 0);
  EXPECT_GT(r.basis_reuse_hits, 0);
  EXPECT_GE(r.cand_widenings, 0);
}

TEST(Rap, DenseEscapeHatchRestoresExactFormulation) {
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.max_cand_rows = 0;
  const RapResult r = solve_rap(pc.initial, ro);
  const int nr = pc.initial.floorplan.num_pairs();
  EXPECT_EQ(r.num_x_vars, r.num_clusters * nr);
  EXPECT_EQ(r.num_cand_rows, nr);
  EXPECT_EQ(r.cand_widenings, 0);
}

TEST(Rap, DeterministicSolve) {
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.s = 0.15;
  const RapResult a = solve_rap(pc.initial, ro);
  const RapResult b = solve_rap(pc.initial, ro);
  EXPECT_EQ(a.assignment.pair_is_minority, b.assignment.pair_is_minority);
  EXPECT_EQ(a.cluster_pair, b.cluster_pair);
}

TEST(Rap, AlphaOneMinimizesPureDisplacementBetter) {
  // With alpha = 1 the solver ignores dHPWL; its seed-position displacement
  // proxy (sum |y(r)-y(cell)|) must be <= the alpha = 0 solution's.
  const auto& pc = small_case();
  auto proxy_disp = [&](const RapResult& r) {
    double s = 0;
    for (std::size_t k = 0; k < r.minority_cells.size(); ++k) {
      const Instance& inst = pc.initial.netlist.instance(r.minority_cells[k]);
      const Dbu yc = inst.pos.y + pc.initial.master_of(r.minority_cells[k]).height / 2;
      const int p = r.cluster_pair[static_cast<std::size_t>(r.cluster_of[k])];
      s += std::abs(static_cast<double>(pc.initial.floorplan.pair_y_center(p) - yc));
    }
    return s;
  };
  RapOptions a1 = base_options(pc);
  a1.alpha = 1.0;
  a1.model_eviction = false;
  a1.ilp.time_limit_s = 8;
  RapOptions a0 = base_options(pc);
  a0.alpha = 0.0;
  a0.model_eviction = false;
  a0.ilp.time_limit_s = 8;
  const RapResult r1 = solve_rap(pc.initial, a1);
  const RapResult r0 = solve_rap(pc.initial, a0);
  if (r1.status == ilp::Status::Optimal && r0.status == ilp::Status::Optimal) {
    EXPECT_LE(proxy_disp(r1), proxy_disp(r0) * 1.02);
  }
}

TEST(Fence, RegionsCoverExactlyMinorityPairs) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  const auto fences = fence_regions(pc.initial.floorplan, r.assignment);
  ASSERT_FALSE(fences.empty());
  // Total fence height equals minority pairs' height; x spans the core.
  Dbu covered = 0;
  for (const Rect& f : fences) {
    EXPECT_EQ(f.lo.x, pc.initial.floorplan.core().lo.x);
    EXPECT_EQ(f.hi.x, pc.initial.floorplan.core().hi.x);
    covered += f.height();
  }
  Dbu expect = 0;
  const Floorplan& fp = pc.initial.floorplan;
  for (int p = 0; p < fp.num_pairs(); ++p) {
    if (r.assignment.is_minority_pair(p)) {
      expect += fp.pair_upper(p).y_top() - fp.pair_lower(p).y;
    }
  }
  EXPECT_EQ(covered, expect);
}

TEST(Fence, AdjacentPairsMerge) {
  Tech tech;
  Floorplan fp = Floorplan::make_uniform(Rect{{0, 0}, {1080, 8 * 216}}, 4, 216,
                                         TrackHeight::H6T, 54);
  RowAssignment ra = RowAssignment::all_majority(4);
  ra.pair_is_minority[1] = true;
  ra.pair_is_minority[2] = true;  // adjacent: one fence rectangle
  const auto fences = fence_regions(fp, ra);
  ASSERT_EQ(fences.size(), 1u);
  EXPECT_EQ(fences[0].lo.y, fp.pair_lower(1).y);
  EXPECT_EQ(fences[0].hi.y, fp.pair_upper(2).y_top());
}

TEST(RcLegal, RowConstraintHolds) {
  const auto& pc = small_case();
  Design d = pc.initial;
  const RapResult r = solve_rap(d, base_options(pc));
  const RcLegalResult lr = rc_legalize(d, r.assignment);
  ASSERT_TRUE(lr.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const int row = d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    EXPECT_EQ(d.is_minority(i), r.assignment.is_minority_row(row));
  }
}

TEST(RcLegal, ReportsHpwlTrajectory) {
  const auto& pc = small_case();
  Design d = pc.initial;
  const RapResult r = solve_rap(d, base_options(pc));
  const RcLegalResult lr = rc_legalize(d, r.assignment);
  ASSERT_TRUE(lr.success);
  EXPECT_GT(lr.hpwl_before, 0);
  EXPECT_GT(lr.hpwl_after, 0);
  EXPECT_EQ(lr.hpwl_after, total_hpwl(d));
}

TEST(RcLegal, MorePassesNeverWorse) {
  const auto& pc = small_case();
  const RapResult r = solve_rap(pc.initial, base_options(pc));
  Design d1 = pc.initial;
  RcLegalOptions one;
  one.refine_passes = 0;
  rc_legalize(d1, r.assignment, one);
  Design d3 = pc.initial;
  RcLegalOptions three;
  three.refine_passes = 3;
  rc_legalize(d3, r.assignment, three);
  EXPECT_LE(total_hpwl(d3), total_hpwl(d1));
}

TEST(RcLegal, UnconstrainedModeIgnoresAssignment) {
  const auto& pc = small_case();
  Design d = pc.initial;
  RcLegalOptions opt;
  opt.enforce_assignment = false;
  const auto lr =
      rc_legalize(d, RowAssignment::all_majority(d.floorplan.num_pairs()), opt);
  ASSERT_TRUE(lr.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  EXPECT_LE(lr.hpwl_after, lr.hpwl_before);
}

TEST(Rap, TinyInstanceMatchesBruteForce) {
  // 6-cell design, 3 pairs, 1 minority pair: enumerate all row choices and
  // per-cell assignments; the ILP (no clustering) must match.
  flows::FlowOptions opt;
  opt.scale = 0.02;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_400"), opt);
  RapOptions ro = base_options(pc);
  ro.use_clustering = false;
  ro.model_eviction = false;
  ro.ilp.rel_gap = 1e-9;
  ro.ilp.time_limit_s = 30;
  const RapResult r = solve_rap(pc.initial, ro);
  EXPECT_TRUE(r.status == ilp::Status::Optimal);
  EXPECT_LE(r.gap, 1e-6);
}

// Parameterized invariants across options.
class RapSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RapSweep, InvariantsHold) {
  const auto [s, alpha] = GetParam();
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.s = s;
  ro.alpha = alpha;
  ro.ilp.time_limit_s = 5;
  const RapResult r = solve_rap(pc.initial, ro);
  EXPECT_EQ(r.assignment.num_minority(), pc.n_min_pairs);
  for (int c = 0; c < r.num_clusters; ++c) {
    EXPECT_TRUE(r.assignment.is_minority_pair(
        r.cluster_pair[static_cast<std::size_t>(c)]));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RapSweep,
                         ::testing::Combine(::testing::Values(0.1, 0.2, 0.5),
                                            ::testing::Values(0.25, 0.75)));

// --- sharded solve (RapOptions::shards) --------------------------------------

// Eq. 3/4/5 feasibility of a RapResult against the prepared case, shared by
// the sharded-path tests below.
void expect_rap_feasible(const flows::PreparedCase& pc, const RapResult& r) {
  EXPECT_EQ(r.assignment.num_minority(), pc.n_min_pairs);
  ASSERT_EQ(static_cast<int>(r.cluster_pair.size()), r.num_clusters);
  std::vector<Dbu> load(
      static_cast<std::size_t>(pc.initial.floorplan.num_pairs()), 0);
  for (std::size_t k = 0; k < r.minority_cells.size(); ++k) {
    const int c = r.cluster_of[k];
    const int p = r.cluster_pair[static_cast<std::size_t>(c)];
    ASSERT_GE(p, 0);
    EXPECT_TRUE(r.assignment.is_minority_pair(p));
    load[static_cast<std::size_t>(p)] +=
        pc.original_library
            ->master(pc.initial.netlist.instance(r.minority_cells[k]).master)
            .width;
  }
  const Dbu cap = 2 * pc.initial.floorplan.core().width();
  for (Dbu v : load) EXPECT_LE(v, cap);
}

// Everything a RapResult decides, compared exactly (bit-identical doubles).
void expect_same_result(const RapResult& a, const RapResult& b) {
  EXPECT_EQ(a.assignment.pair_is_minority, b.assignment.pair_is_minority);
  EXPECT_EQ(a.cluster_pair, b.cluster_pair);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.gap, b.gap);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.ilp_nodes, b.ilp_nodes);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.num_x_vars, b.num_x_vars);
  EXPECT_EQ(a.bands.size(), b.bands.size());
}

TEST(RapShard, OneBandIsTheWholeDesignSolve) {
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.shards = 1;
  const RapResult w = solve_rap(pc.initial, ro);
  EXPECT_TRUE(w.bands.empty());
  EXPECT_EQ(w.repair_moves, 0);
  ASSERT_NE(w.certificate, nullptr);  // whole-design dual certificate
  EXPECT_GT(w.num_x_vars, 0);
  EXPECT_LE(w.num_cand_rows, pc.initial.floorplan.num_pairs());
}

TEST(RapShard, InfeasibleSplitFallsBackToOneBandVisibly) {
  // One pair per band: the per-band quota floors cannot fit N_minR, so the
  // split is infeasible and the solve must be exactly the one-band solve,
  // counted as rap/shard_fallback.
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  ro.shards = 1;
  const RapResult w = solve_rap(pc.initial, ro);
  ro.shards = pc.initial.floorplan.num_pairs();
  trace::Collector collector;
  ro.ctx.sink = &collector;
  const RapResult f = solve_rap(pc.initial, ro);
  EXPECT_TRUE(f.bands.empty());
  ASSERT_EQ(collector.counters().count("rap/shard_fallback"), 1u);
  EXPECT_EQ(collector.counters().at("rap/shard_fallback"), 1);
  EXPECT_EQ(collector.counters().at("rap/bands"), ro.shards);
  expect_same_result(f, w);
}

TEST(RapShard, BitIdenticalAcrossThreadCountsAndRepeats) {
  const auto& pc = small_case();
  for (int bands : {2, 4, 8}) {
    RapOptions ro = base_options(pc);
    ro.shards = bands;
    ro.ctx.exec.num_threads = 1;
    const RapResult a = solve_rap(pc.initial, ro);
    const RapResult a2 = solve_rap(pc.initial, ro);
    ro.ctx.exec.num_threads = 8;
    const RapResult b = solve_rap(pc.initial, ro);
    EXPECT_EQ(a.assignment.pair_is_minority, b.assignment.pair_is_minority)
        << "bands=" << bands;
    EXPECT_EQ(a.cluster_pair, b.cluster_pair) << "bands=" << bands;
    EXPECT_EQ(a.objective, b.objective) << "bands=" << bands;
    EXPECT_EQ(a.repair_moves, b.repair_moves) << "bands=" << bands;
    EXPECT_EQ(a.ilp_nodes, b.ilp_nodes) << "bands=" << bands;
    EXPECT_EQ(a.assignment.pair_is_minority, a2.assignment.pair_is_minority);
    EXPECT_EQ(a.objective, a2.objective);
  }
}

TEST(RapShard, FeasibleAndNearWholeDesignAtEveryBandCount) {
  const auto& pc = small_case();
  RapOptions ro = base_options(pc);
  const RapResult w = solve_rap(pc.initial, ro);
  for (int bands : {2, 4, 8}) {
    ro.shards = bands;
    const RapResult s = solve_rap(pc.initial, ro);
    expect_rap_feasible(pc, s);
    if (!s.bands.empty()) {
      // Decomposition record covers the whole floorplan and quota exactly.
      int quota = 0;
      int covered = 0;
      std::size_t routed = 0;
      for (const RapBand& band : s.bands) {
        EXPECT_EQ(band.pair_lo, covered);
        covered = band.pair_hi;
        quota += band.n_min_pairs;
        routed += band.clusters.size();
      }
      EXPECT_EQ(covered, pc.initial.floorplan.num_pairs());
      EXPECT_EQ(quota, pc.n_min_pairs);
      EXPECT_EQ(static_cast<int>(routed), s.num_clusters);
    }
    // The restriction can only cost objective; it must stay within the
    // default certified optimality window of the whole-design solve.
    const double denom = std::max(std::abs(w.objective), 1.0);
    EXPECT_GE(s.objective, w.objective - 1e-6 * denom) << "bands=" << bands;
    EXPECT_LE((s.objective - w.objective) / denom, 0.15) << "bands=" << bands;
    // Stats aggregate across bands (not last-band-only): at least one
    // assignment variable per cluster must be accounted for in the totals.
    if (s.bands.size() > 1) {
      EXPECT_GE(s.num_x_vars, s.num_clusters);
      EXPECT_GT(s.lp_iterations, 0);
    }
  }
}

}  // namespace
}  // namespace mth::rap
