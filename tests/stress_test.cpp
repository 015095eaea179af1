// Robustness / stress tests: degenerate designs, capacity pressure, solver
// failure injection, numeric edge cases — things a downstream user will hit.

#include <gtest/gtest.h>

#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/rap/rap.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/util/rng.hpp"

namespace mth {
namespace {

// ---------------------------------------------------------------------------
// Simplex under stress.
// ---------------------------------------------------------------------------

TEST(SimplexStress, RandomEqualitySystemsStayConsistent) {
  // Build LPs from known feasible points: generate x*, derive b = A x*, then
  // check the solver returns Optimal with objective <= c'x* and a feasible x.
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const int nv = 6 + static_cast<int>(rng.uniform_int(0, 10));
    const int nc = 2 + static_cast<int>(rng.uniform_int(0, 5));
    lp::Model m;
    std::vector<double> xstar(static_cast<std::size_t>(nv));
    for (int v = 0; v < nv; ++v) {
      m.add_var(0.0, 10.0, rng.uniform_real(-2, 2));
      xstar[static_cast<std::size_t>(v)] = rng.uniform_real(0.5, 9.5);
    }
    for (int r = 0; r < nc; ++r) {
      std::vector<lp::RowEntry> row;
      double rhs = 0.0;
      for (int v = 0; v < nv; ++v) {
        if (rng.chance(0.5)) {
          const double coef = rng.uniform_real(-2, 2);
          row.push_back({v, coef});
          rhs += coef * xstar[static_cast<std::size_t>(v)];
        }
      }
      if (row.empty()) continue;
      m.add_row(lp::Sense::EQ, rhs, std::move(row));
    }
    const lp::Result res = lp::solve(m);
    ASSERT_EQ(res.status, lp::Status::Optimal) << "trial " << trial;
    EXPECT_LE(res.objective, m.objective_value(xstar) + 1e-6);
    EXPECT_LE(m.max_violation(res.x), 1e-6);
  }
}

TEST(SimplexStress, LargeSparseAssignmentSolves) {
  // 60x60 assignment (7200 vars, 120 rows) — the RAP's LP relaxation shape.
  Rng rng(7);
  lp::Model m;
  const int n = 60;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(n),
                                  std::vector<int>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m.add_var(0, 1, rng.uniform_real(0, 100));
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<lp::RowEntry> row, col;
    for (int j = 0; j < n; ++j) {
      row.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
      col.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], 1.0});
    }
    m.add_row(lp::Sense::EQ, 1.0, row);
    m.add_row(lp::Sense::EQ, 1.0, col);
  }
  const lp::Result res = lp::solve(m);
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_LE(m.max_violation(res.x), 1e-6);
}

TEST(SimplexStress, TinyCoefficientsAndBigRhs) {
  lp::Model m;
  const int x = m.add_var(0, 1e9, 1.0);
  m.add_row(lp::Sense::GE, 1e6, {{x, 1e-3}});
  const lp::Result res = lp::solve(m);
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.x[0], 1e9, 1.0);
}

// ---------------------------------------------------------------------------
// Degenerate designs through the flow machinery.
// ---------------------------------------------------------------------------

TEST(StressFlow, MinimumSizedDesignSurvivesAllFlows) {
  // The generator clamps to >= 60 cells; drive it at an absurdly low scale.
  flows::FlowOptions opt;
  opt.scale = 0.0001;
  opt.rap.ilp.time_limit_s = 5;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_400"), opt);
  EXPECT_GE(pc.initial.netlist.num_instances(), 60);
  for (auto id : {flows::FlowId::F1, flows::FlowId::F2, flows::FlowId::F3,
                  flows::FlowId::F4, flows::FlowId::F5}) {
    const flows::FlowResult r = flows::run_flow(pc, id, opt, false, false).result;
    EXPECT_GT(r.hpwl, 0) << to_string(id);
  }
}

TEST(StressFlow, HighMinorityFractionCase) {
  // aes_300 is the highest-minority Table II case (28%); run a tight
  // variant with a 92% fill target (full-width Eq. 4 capacity leaves the
  // legalizer only 8% slack in minority rows).
  flows::FlowOptions opt;
  opt.scale = 0.04;
  opt.baseline.minority_row_fill = 0.92;
  opt.rap.ilp.time_limit_s = 10;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_300"), opt);
  const flows::FlowResult r5 = flows::run_flow(pc, flows::FlowId::F5, opt, false, false).result;
  EXPECT_GT(r5.hpwl, 0);
  EXPECT_EQ(r5.n_min_pairs, pc.n_min_pairs);
}

TEST(StressFlow, UtilizationSweepStaysLegal) {
  for (double util : {0.4, 0.6, 0.8}) {
    flows::FlowOptions opt;
    opt.scale = 0.02;
    opt.utilization = util;
    opt.rap.ilp.time_limit_s = 5;
    const flows::PreparedCase pc =
        flows::prepare_case(synth::spec_by_name("des3_290"), opt);
    std::string why;
    EXPECT_TRUE(placement_is_legal(pc.initial, &why)) << "util " << util << ": " << why;
    const flows::FlowResult r = flows::run_flow(pc, flows::FlowId::F5, opt, false, false).result;
    EXPECT_GT(r.hpwl, 0);
  }
}

TEST(StressFlow, RouteOnDenseDesign) {
  flows::FlowOptions opt;
  opt.scale = 0.03;
  opt.utilization = 0.85;  // dense: congestion machinery must engage
  opt.rap.ilp.time_limit_s = 5;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("jpeg_400"), opt);
  const flows::FlowResult r = flows::run_flow(pc, flows::FlowId::F2, opt, true, false).result;
  EXPECT_TRUE(r.routed);
  EXPECT_GT(r.post.routed_wl, 0);
}

// ---------------------------------------------------------------------------
// RAP under capacity pressure and bad budgets.
// ---------------------------------------------------------------------------

TEST(StressRap, OverTightBudgetStillYieldsAssignment) {
  flows::FlowOptions opt;
  opt.scale = 0.03;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_320"), opt);
  rap::RapOptions ro;
  ro.width_library = pc.original_library.get();
  ro.ilp.time_limit_s = 5;
  // Give one more pair than the absolute minimum: still solvable.
  ro.n_min_pairs = std::max(
      1, baseline::auto_minority_pairs(pc.initial, *pc.original_library, 1.0));
  const rap::RapResult r = rap::solve_rap(pc.initial, ro);
  EXPECT_EQ(r.assignment.num_minority(), ro.n_min_pairs);
}

TEST(StressRap, GenerousBudgetUsesExactlyBudget) {
  flows::FlowOptions opt;
  opt.scale = 0.03;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_320"), opt);
  rap::RapOptions ro;
  ro.width_library = pc.original_library.get();
  ro.ilp.time_limit_s = 5;
  ro.n_min_pairs = pc.initial.floorplan.num_pairs() / 2;
  const rap::RapResult r = rap::solve_rap(pc.initial, ro);
  // Eq. 5 is an equality: exactly the budget, even when generous.
  EXPECT_EQ(r.assignment.num_minority(), ro.n_min_pairs);
}

TEST(StressRap, RejectsInvalidOptions) {
  flows::FlowOptions opt;
  opt.scale = 0.02;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_400"), opt);
  rap::RapOptions bad_s;
  bad_s.s = 0.0;
  EXPECT_THROW(rap::solve_rap(pc.initial, bad_s), Error);
  rap::RapOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(rap::solve_rap(pc.initial, bad_alpha), Error);
}

// ---------------------------------------------------------------------------
// Legalizer failure injection.
// ---------------------------------------------------------------------------

TEST(StressLegal, ImpossibleCapacityFailsCleanly) {
  // Shrink the admissible row set to one pair that cannot hold the cells;
  // abacus must return success=false instead of corrupting the design.
  flows::FlowOptions opt;
  opt.scale = 0.03;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_320"), opt);
  Design d = pc.initial;
  legal::AbacusOptions aopt;
  aopt.row_filter = [](InstId, int row) { return row < 2; };  // one pair only
  const auto r = legal::abacus_legalize(d, aopt);
  EXPECT_FALSE(r.success);
}

TEST(StressLegal, RcLegalizeOnAlreadyLegalIsStable) {
  flows::FlowOptions opt;
  opt.scale = 0.03;
  opt.rap.ilp.time_limit_s = 5;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_360"), opt);
  Design d = pc.initial;
  rap::RapOptions ro;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  ro.ilp.time_limit_s = 5;
  const rap::RapResult rr = rap::solve_rap(d, ro);
  const auto first = rap::rc_legalize(d, rr.assignment);
  ASSERT_TRUE(first.success);
  const Dbu hpwl1 = total_hpwl(d);
  const auto second = rap::rc_legalize(d, rr.assignment);
  ASSERT_TRUE(second.success);
  // Idempotent-ish: a second run may only improve.
  EXPECT_LE(total_hpwl(d), hpwl1);
}

}  // namespace
}  // namespace mth
