// MILP branch & bound tests: knapsacks and assignment problems against brute
// force, status handling, warm starts, heuristic hook, priority branching.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mth/ilp/solver.hpp"
#include "mth/util/rng.hpp"

namespace mth::ilp {
namespace {

std::vector<int> all_vars(const lp::Model& m) {
  std::vector<int> v;
  for (int i = 0; i < m.num_vars(); ++i) v.push_back(i);
  return v;
}

TEST(Ilp, TinyKnapsack) {
  // max 5a + 4b + 3c st 2a + 3b + c <= 4 (binary) == min negated.
  // Best: a + c = value 8 (weight 3); a+b infeasible weight 5.
  lp::Model m;
  const int a = m.add_var(0, 1, -5);
  const int b = m.add_var(0, 1, -4);
  const int c = m.add_var(0, 1, -3);
  m.add_row(lp::Sense::LE, 4, {{a, 2}, {b, 3}, {c, 1}});
  const Result r = solve(m, all_vars(m));
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -8.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(a)], 1.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(Ilp, IntegralityMatters) {
  // LP optimum is fractional (x = 1.5); ILP must land on 1.
  lp::Model m;
  const int x = m.add_var(0, 10, -1);
  m.add_row(lp::Sense::LE, 3, {{x, 2}});
  const Result r = solve(m, std::vector<int>{x});
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 1.0, 1e-6);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(Ilp, InfeasibleDetected) {
  lp::Model m;
  const int x = m.add_var(0, 1, 0);
  const int y = m.add_var(0, 1, 0);
  m.add_row(lp::Sense::GE, 3, {{x, 1}, {y, 1}});
  EXPECT_EQ(solve(m, all_vars(m)).status, Status::Infeasible);
}

TEST(Ilp, FractionallyFeasibleButIntegrallyInfeasible) {
  // x + y == 1 with x == y forces x = y = 0.5: LP feasible, ILP infeasible.
  lp::Model m;
  const int x = m.add_var(0, 1, 0);
  const int y = m.add_var(0, 1, 0);
  m.add_row(lp::Sense::EQ, 1, {{x, 1}, {y, 1}});
  m.add_row(lp::Sense::EQ, 0, {{x, 1}, {y, -1}});
  EXPECT_EQ(solve(m, all_vars(m)).status, Status::Infeasible);
}

TEST(Ilp, MixedIntegerContinuous) {
  // y continuous: min -y - x st y <= 2.5, x binary, x + y <= 3.
  lp::Model m;
  const int x = m.add_var(0, 1, -1);
  const int y = m.add_var(0, 2.5, -1);
  m.add_row(lp::Sense::LE, 3, {{x, 1}, {y, 1}});
  const Result r = solve(m, std::vector<int>{x});
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);  // x=1, y=2
}

TEST(Ilp, WarmStartAccepted) {
  lp::Model m;
  const int x = m.add_var(0, 1, -5);
  const int y = m.add_var(0, 1, -4);
  m.add_row(lp::Sense::LE, 1, {{x, 1}, {y, 1}});
  const std::vector<double> warm{0.0, 1.0};  // feasible, obj -4
  Options o;
  o.max_nodes = 0;  // no search at all: incumbent must come from warm start
  const Result r = solve(m, all_vars(m), o, &warm);
  EXPECT_EQ(r.status, Status::Feasible);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
}

TEST(Ilp, InfeasibleWarmStartIgnored) {
  lp::Model m;
  const int x = m.add_var(0, 1, -1);
  m.add_row(lp::Sense::LE, 0, {{x, 1}});
  const std::vector<double> warm{1.0};  // violates the row
  const Result r = solve(m, all_vars(m), {}, &warm);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Ilp, HeuristicHookProvidesIncumbent) {
  // LP root is fractional (x=1, y=2/3), so the hook fires at the root.
  lp::Model m;
  const int x = m.add_var(0, 1, -5);
  const int y = m.add_var(0, 1, -4);
  m.add_row(lp::Sense::LE, 4, {{x, 2}, {y, 3}});
  bool called = false;
  Options o;
  o.heuristic = [&](const std::vector<double>&, std::vector<double>& out) {
    called = true;
    out = {1.0, 0.0};
    return true;
  };
  const Result r = solve(m, all_vars(m), o);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-9);  // x alone fits; x+y exceeds the cap
  EXPECT_TRUE(called);
}

TEST(Ilp, GapReportedUnderNodeLimit) {
  // Larger knapsack stopped early must report a valid bound <= objective.
  Rng rng(3);
  lp::Model m;
  std::vector<lp::RowEntry> row;
  for (int i = 0; i < 30; ++i) {
    const int v = m.add_var(0, 1, -rng.uniform_real(1, 10));
    row.push_back({v, rng.uniform_real(1, 10)});
  }
  m.add_row(lp::Sense::LE, 40, row);
  Options o;
  o.max_nodes = 3;
  o.rel_gap = 1e-9;
  const Result r = solve(m, all_vars(m), o);
  ASSERT_TRUE(r.status == Status::Feasible || r.status == Status::Optimal);
  EXPECT_LE(r.best_bound, r.objective + 1e-9);
  EXPECT_GE(r.gap(), 0.0);
}

TEST(Ilp, PriorityVarsBranchFirst) {
  // Construct a model where both a priority and a non-priority var go
  // fractional; solution must still be optimal (smoke test for the path).
  lp::Model m;
  const int x = m.add_var(0, 1, -3);
  const int y = m.add_var(0, 1, -2);
  const int z = m.add_var(0, 1, -1);
  m.add_row(lp::Sense::LE, 2.5, {{x, 1}, {y, 1}, {z, 1}});
  Options o;
  o.priority_vars = {z};
  const Result r = solve(m, all_vars(m), o);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-6);  // x + y fit, z does not
}

TEST(Ilp, RejectsBadIntegerIndex) {
  lp::Model m;
  m.add_var(0, 1, 0);
  EXPECT_THROW(solve(m, std::vector<int>{3}), Error);
}

TEST(Ilp, WarmBasisMatchesColdAndSavesIterations) {
  // A/B over the same non-trivial knapsack: warm-basis B&B (child nodes
  // dual-resolve from the parent's optimal basis) must report the same
  // objective as the cold baseline, actually reuse bases, and never spend
  // more simplex pivots than cold phase-1 restarts at every node.
  Rng rng(7);
  lp::Model m;
  std::vector<lp::RowEntry> row;
  for (int i = 0; i < 18; ++i) {
    const int v = m.add_var(0, 1, -static_cast<double>(rng.uniform_int(1, 9)));
    row.push_back({v, static_cast<double>(rng.uniform_int(1, 9))});
  }
  m.add_row(lp::Sense::LE, 30, row);

  Options warm_o;
  warm_o.warm_basis = true;
  const Result warm = solve(m, all_vars(m), warm_o);
  Options cold_o;
  cold_o.warm_basis = false;
  const Result cold = solve(m, all_vars(m), cold_o);

  ASSERT_EQ(warm.status, Status::Optimal);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_EQ(warm.objective, cold.objective);  // integer costs: exact
  EXPECT_EQ(cold.basis_reuse_hits, 0);
  EXPECT_GT(warm.basis_reuse_hits, 0);
  EXPECT_LE(warm.lp_iterations, cold.lp_iterations);
}

TEST(Ilp, RootBasisWarmStartsRootRelaxation) {
  // Feed the root relaxation's own optimal basis back in: the root LP then
  // re-solves with zero pivots and the search still proves the optimum.
  lp::Model m;
  const int x = m.add_var(0, 1, -3);
  const int y = m.add_var(0, 1, -2);
  const int z = m.add_var(0, 1, -1);
  m.add_row(lp::Sense::LE, 2.5, {{x, 1}, {y, 1}, {z, 1}});
  const lp::Result root = lp::solve(m);
  ASSERT_EQ(root.status, lp::Status::Optimal);
  const Result r = solve(m, all_vars(m), {}, nullptr, &root.basis);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-6);
  EXPECT_GT(r.basis_reuse_hits, 0);
}

// ---------------------------------------------------------------------------
// Property: random binary knapsacks vs exhaustive enumeration.
// ---------------------------------------------------------------------------
class KnapsackProperty : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131u);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform_int(0, 4));  // 8..12
    std::vector<double> value(static_cast<std::size_t>(n)), weight(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      value[static_cast<std::size_t>(i)] = rng.uniform_real(1, 9);
      weight[static_cast<std::size_t>(i)] = rng.uniform_real(1, 9);
    }
    const double cap = rng.uniform_real(8, 24);
    lp::Model m;
    std::vector<lp::RowEntry> row;
    for (int i = 0; i < n; ++i) {
      m.add_var(0, 1, -value[static_cast<std::size_t>(i)]);
      row.push_back({i, weight[static_cast<std::size_t>(i)]});
    }
    m.add_row(lp::Sense::LE, cap, row);
    const Result r = solve(m, all_vars(m));
    ASSERT_EQ(r.status, Status::Optimal);

    double best = 0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double v = 0, w = 0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) {
          v += value[static_cast<std::size_t>(i)];
          w += weight[static_cast<std::size_t>(i)];
        }
      }
      if (w <= cap) best = std::max(best, v);
    }
    EXPECT_NEAR(-r.objective, best, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty, ::testing::Range(1, 8));

// Property: random generalized-assignment MILPs (the RAP structure) vs brute
// force over row subsets x cluster assignments.
class GapProperty : public ::testing::TestWithParam<int> {};

TEST_P(GapProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 733u);
  for (int trial = 0; trial < 4; ++trial) {
    const int nc = 3 + static_cast<int>(rng.uniform_int(0, 1));  // clusters
    const int nr = 3 + static_cast<int>(rng.uniform_int(0, 1));  // rows
    const int nmin = 2;
    std::vector<double> w(static_cast<std::size_t>(nc));
    for (double& v : w) v = rng.uniform_real(1, 5);
    const double cap = 7.0;
    std::vector<std::vector<double>> cost(static_cast<std::size_t>(nc),
                                          std::vector<double>(static_cast<std::size_t>(nr)));
    for (auto& rrow : cost) {
      for (double& v : rrow) v = rng.uniform_real(0, 10);
    }

    lp::Model m;
    std::vector<std::vector<int>> x(static_cast<std::size_t>(nc),
                                    std::vector<int>(static_cast<std::size_t>(nr)));
    for (int c = 0; c < nc; ++c) {
      for (int r = 0; r < nr; ++r) {
        x[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)] =
            m.add_var(0, 1, cost[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]);
      }
    }
    std::vector<int> y(static_cast<std::size_t>(nr));
    for (int r = 0; r < nr; ++r) y[static_cast<std::size_t>(r)] = m.add_var(0, 1, 0);
    for (int c = 0; c < nc; ++c) {
      std::vector<lp::RowEntry> row;
      for (int r = 0; r < nr; ++r) {
        row.push_back({x[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)], 1.0});
      }
      m.add_row(lp::Sense::EQ, 1.0, row);
    }
    for (int r = 0; r < nr; ++r) {
      std::vector<lp::RowEntry> row;
      for (int c = 0; c < nc; ++c) {
        row.push_back({x[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)],
                       w[static_cast<std::size_t>(c)]});
      }
      row.push_back({y[static_cast<std::size_t>(r)], -cap});
      m.add_row(lp::Sense::LE, 0.0, row);
    }
    {
      std::vector<lp::RowEntry> row;
      for (int r = 0; r < nr; ++r) row.push_back({y[static_cast<std::size_t>(r)], 1.0});
      m.add_row(lp::Sense::EQ, nmin, row);
    }
    const Result res = solve(m, all_vars(m));

    // Brute force over row subsets of size nmin and cluster assignments.
    double best = 1e300;
    for (int mask = 0; mask < (1 << nr); ++mask) {
      if (__builtin_popcount(static_cast<unsigned>(mask)) != nmin) continue;
      std::vector<int> asg(static_cast<std::size_t>(nc), 0);
      const int combos = static_cast<int>(std::pow(nr, nc));
      for (int e = 0; e < combos; ++e) {
        int t = e;
        double total = 0;
        std::vector<double> used(static_cast<std::size_t>(nr), 0);
        bool ok = true;
        for (int c = 0; c < nc && ok; ++c) {
          const int r = t % nr;
          t /= nr;
          if (!(mask & (1 << r))) {
            ok = false;
            break;
          }
          used[static_cast<std::size_t>(r)] += w[static_cast<std::size_t>(c)];
          if (used[static_cast<std::size_t>(r)] > cap + 1e-9) ok = false;
          total += cost[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)];
        }
        if (ok) best = std::min(best, total);
      }
      (void)asg;
    }
    if (best >= 1e300) {
      EXPECT_EQ(res.status, Status::Infeasible);
    } else {
      ASSERT_EQ(res.status, Status::Optimal) << "trial " << trial;
      EXPECT_NEAR(res.objective, best, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapProperty, ::testing::Range(1, 7));

// Property: the batch-parallel node loop (node_batch > 1) proves the same
// optimum as the historical serial loop, and its result is bit-identical
// across worker counts — the pop order, node ids and incumbent updates all
// happen in the serial merge, so threads only change who computes each LP.
class BatchedBnb : public ::testing::TestWithParam<int> {};

TEST_P(BatchedBnb, BitIdenticalAcrossThreadsAndMatchesSerial) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977u);
  for (int trial = 0; trial < 4; ++trial) {
    const int nc = 4 + static_cast<int>(rng.uniform_int(0, 1));
    const int nr = 4;
    std::vector<double> w(static_cast<std::size_t>(nc));
    for (double& v : w) v = rng.uniform_real(1, 5);
    lp::Model m;
    std::vector<int> xs;
    for (int c = 0; c < nc; ++c) {
      for (int r = 0; r < nr; ++r) {
        xs.push_back(m.add_var(0, 1, rng.uniform_real(0, 10)));
      }
    }
    std::vector<int> y(static_cast<std::size_t>(nr));
    for (int r = 0; r < nr; ++r) y[static_cast<std::size_t>(r)] = m.add_var(0, 1, 0);
    for (int c = 0; c < nc; ++c) {
      std::vector<lp::RowEntry> row;
      for (int r = 0; r < nr; ++r) {
        row.push_back({xs[static_cast<std::size_t>(c * nr + r)], 1.0});
      }
      m.add_row(lp::Sense::EQ, 1.0, row);
    }
    for (int r = 0; r < nr; ++r) {
      std::vector<lp::RowEntry> row;
      for (int c = 0; c < nc; ++c) {
        row.push_back({xs[static_cast<std::size_t>(c * nr + r)],
                       w[static_cast<std::size_t>(c)]});
      }
      row.push_back({y[static_cast<std::size_t>(r)], -7.0});
      m.add_row(lp::Sense::LE, 0.0, row);
    }
    {
      std::vector<lp::RowEntry> row;
      for (int r = 0; r < nr; ++r) row.push_back({y[static_cast<std::size_t>(r)], 1.0});
      m.add_row(lp::Sense::EQ, 2.0, row);
    }

    const Result serial = solve(m, all_vars(m));
    Options batch;
    batch.node_batch = 8;
    util::ExecPolicy exec;
    exec.num_threads = 1;
    const Result b1 = solve(m, all_vars(m), batch, nullptr, nullptr, exec);
    exec.num_threads = 8;
    const Result b8 = solve(m, all_vars(m), batch, nullptr, nullptr, exec);

    ASSERT_EQ(b1.status, b8.status);
    EXPECT_EQ(b1.objective, b8.objective);
    EXPECT_EQ(b1.x, b8.x);
    EXPECT_EQ(b1.nodes, b8.nodes);
    EXPECT_EQ(b1.lp_iterations, b8.lp_iterations);

    ASSERT_EQ(serial.status, b1.status);
    if (serial.status == Status::Optimal) {
      EXPECT_NEAR(serial.objective, b1.objective, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedBnb, ::testing::Range(1, 6));

}  // namespace
}  // namespace mth::ilp
