// LP solver tests: hand-checked problems, status detection, and property
// sweeps against brute force (assignment-problem LP relaxations are integral,
// so the simplex optimum must match the best permutation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "mth/lp/model.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/lp/sparse_lu.hpp"
#include "mth/util/rng.hpp"

namespace mth::lp {
namespace {

TEST(LpModel, BasicAccounting) {
  Model m;
  const int x = m.add_var(0, 5, 2.0);
  const int y = m.add_var(-1, 1, -3.0);
  EXPECT_EQ(m.num_vars(), 2);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.obj(x), 2.0);
  EXPECT_EQ(m.lb(y), -1.0);
}

TEST(LpModel, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_var(2, 1, 0), Error);
}

TEST(LpModel, RejectsUnknownVarInRow) {
  Model m;
  m.add_var(0, 1, 0);
  EXPECT_THROW(m.add_row(Sense::LE, 0, {{5, 1.0}}), Error);
}

TEST(LpModel, MaxViolation) {
  Model m;
  const int x = m.add_var(0, 1, 0);
  m.add_row(Sense::LE, 0.5, {{x, 1.0}});
  EXPECT_DOUBLE_EQ(m.max_violation({0.2}), 0.0);
  EXPECT_NEAR(m.max_violation({0.9}), 0.4, 1e-12);
  EXPECT_NEAR(m.max_violation({-0.3}), 0.3, 1e-12);
}

TEST(Simplex, TrivialNoConstraints) {
  Model m;
  m.add_var(1, 4, 2.0);   // min at lb
  m.add_var(-3, 7, -1.0); // min at ub
  m.add_var(-2, 2, 0.0);
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);
  EXPECT_DOUBLE_EQ(r.x[1], 7.0);
  EXPECT_DOUBLE_EQ(r.objective, 2.0 - 7.0);
}

TEST(Simplex, TrivialUnboundedBelow) {
  Model m;
  m.add_var(-kInf, kInf, 1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, SimpleTwoVar) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
  // Optimum at (2, 2): obj -6.
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-8);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
  EXPECT_NEAR(r.x[y], 2.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 3y  s.t. x + y == 5, 0 <= x <= 4, 0 <= y <= 10 -> (4, 1), obj 7.
  Model m;
  const int x = m.add_var(0, 4, 1.0);
  const int y = m.add_var(0, 10, 3.0);
  m.add_row(Sense::EQ, 5.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-8);
}

TEST(Simplex, GreaterEqual) {
  // min 2x + y  s.t. x + y >= 3, x,y in [0, 10] -> (0, 3), obj 3.
  Model m;
  const int x = m.add_var(0, 10, 2.0);
  const int y = m.add_var(0, 10, 1.0);
  m.add_row(Sense::GE, 3.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
  EXPECT_NEAR(r.x[y], 3.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.add_var(0, 1, 0.0);
  m.add_row(Sense::GE, 5.0, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  Model m;
  const int x = m.add_var(0, 10, 0.0);
  const int y = m.add_var(0, 10, 0.0);
  m.add_row(Sense::EQ, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::EQ, 9.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x  s.t. x - y <= 1, x,y >= 0 unbounded above along x == y + 1.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, 0.0);
  m.add_row(Sense::LE, 1.0, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsGe) {
  // min x s.t. -x <= -2  (x >= 2), x in [0, 10] -> 2.
  Model m;
  const int x = m.add_var(0, 10, 1.0);
  m.add_row(Sense::LE, -2.0, {{x, -1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
}

TEST(Simplex, FreeVariable) {
  // min x^+ style: free var with equality pinning: x + y == 0, min y,
  // x free in [-inf, inf], y in [-2, 2] -> y = -2, x = 2.
  Model m;
  const int x = m.add_var(-kInf, kInf, 0.0);
  const int y = m.add_var(-2, 2, 1.0);
  m.add_row(Sense::EQ, 0.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[y], -2.0, 1e-8);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
}

TEST(Simplex, DualsMatchObjectiveOnEqualities) {
  // For an equality-constrained LP with interior bounds, strong duality:
  // obj == y' b when no variable sits strictly at a finite bound with
  // nonzero reduced cost. Use a transportation-like instance.
  Model m;
  const int a = m.add_var(0, 10, 2.0);
  const int b = m.add_var(0, 10, 3.0);
  m.add_row(Sense::EQ, 4.0, {{a, 1.0}, {b, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_EQ(r.duals.size(), 1u);
  EXPECT_NEAR(r.objective, 8.0, 1e-8);
  EXPECT_NEAR(r.duals[0], 2.0, 1e-8);  // marginal cost of one more unit
}

// --- warm-basis re-solves (dual simplex) ------------------------------------
// Costs and bounds below are small integers, so every pivot is exact in
// binary floating point and warm-vs-cold comparisons can demand bit-for-bit
// equality, not just tolerance.

TEST(SimplexWarm, BoundTighteningResolvesInFewIterations) {
  // min -x - 2y  s.t. x + y <= 4, x in [0,3], y in [0,2] -> (2,2), obj -6.
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());

  // Tighten the basic variable's upper bound past the old optimum (x sits
  // basic at 2 with y at its bound): the parent basis stays dual-feasible
  // but turns primal-infeasible, so the dual simplex repairs it in O(1)
  // pivots instead of a cold phase 1 + phase 2.
  m.set_bounds(x, 0.0, 1.0);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_LE(warm.iterations, 3);
  EXPECT_GE(warm.dual_iterations, 1);

  const Result recold = solve(m);
  ASSERT_EQ(recold.status, Status::Optimal);
  EXPECT_FALSE(recold.warm_used);
  // Unique integral vertex (1,2): warm and cold must agree bit-for-bit.
  EXPECT_EQ(warm.objective, recold.objective);
  ASSERT_EQ(warm.x.size(), recold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i) {
    EXPECT_EQ(warm.x[i], recold.x[i]) << "component " << i;
  }
  EXPECT_EQ(warm.objective, -5.0);
}

TEST(SimplexWarm, CutRowExtensionKeepsBasis) {
  // Appended rows after a solve (a root cut loop): the stored basis is for
  // the smaller row set; new slacks enter basic and the re-solve stays warm.
  Model m;
  const int x = m.add_var(0, 4, -1.0);
  const int y = m.add_var(0, 4, -1.0);
  m.add_row(Sense::LE, 6.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_EQ(cold.objective, -6.0);  // any vertex with x + y == 6

  m.add_row(Sense::LE, 5.0, {{x, 1.0}, {y, 1.0}});  // violated cut
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  const Result recold = solve(m);
  EXPECT_EQ(warm.objective, recold.objective);
  EXPECT_EQ(warm.objective, -5.0);
}

TEST(SimplexWarm, StaleBasisFallsBackToColdSolve) {
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}});
  Basis stale;
  stale.num_structs = 7;  // from some other model
  stale.basic = {0};
  stale.state = {BasisState::Basic, BasisState::AtLower};
  const Result r = solve(m, {}, &stale);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_FALSE(r.warm_used);
  EXPECT_EQ(r.objective, -7.0);
}

TEST(SimplexWarm, SingularWarmBasisFallsBackCold) {
  // x and y have identical columns, so a basis holding both is singular:
  // the warm start is refused at factorization and the solve runs cold.
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 3, -2.0);
  const int z = m.add_var(0, 2, -1.5);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  m.add_row(Sense::LE, 5.0, {{x, 2.0}, {y, 2.0}, {z, 0.5}});
  Basis singular;
  singular.num_structs = 3;
  singular.basic = {x, y};
  singular.state = {BasisState::Basic, BasisState::Basic, BasisState::AtLower,
                    BasisState::AtLower, BasisState::AtLower};
  const Result warm = solve(m, {}, &singular);
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_FALSE(warm.warm_used);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(std::memcmp(&warm.objective, &cold.objective, sizeof(double)), 0);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  ASSERT_EQ(warm.duals.size(), cold.duals.size());
  EXPECT_EQ(std::memcmp(warm.x.data(), cold.x.data(), warm.x.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(warm.duals.data(), cold.duals.data(),
                        warm.duals.size() * sizeof(double)),
            0);
  EXPECT_EQ(warm.basis.basic, cold.basis.basic);
  EXPECT_EQ(warm.basis.state, cold.basis.state);
}

TEST(SimplexWarm, WarmResolveWithoutChangesIsInstant) {
  Model m;
  const int x = m.add_var(0, 5, 1.0);
  const int y = m.add_var(0, 5, 2.0);
  m.add_row(Sense::GE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_EQ(warm.dual_iterations, 0);  // already primal-feasible: no pivots
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(SimplexWarm, DegenerateDualResolveTerminates) {
  // Known-degenerate vertex: many redundant rows through (2,0)/(0,2) ties.
  // After tightening, the dual simplex must terminate (anti-cycling) and
  // reproduce the cold objective exactly.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, -1.0);
  for (int k = 1; k <= 12; ++k) {
    m.add_row(Sense::LE, 2.0, {{x, 1.0}, {y, static_cast<double>(k) / 6.0}});
  }
  m.add_row(Sense::LE, 2.0, {{x, 1.0}});
  m.add_row(Sense::LE, 2.0, {{y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());

  m.set_bounds(x, 0.0, 1.0);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  const Result recold = solve(m);
  ASSERT_EQ(recold.status, Status::Optimal);
  EXPECT_EQ(warm.objective, recold.objective);
  EXPECT_LE(m.max_violation(warm.x), 1e-7);
}

TEST(SimplexWarm, RandomBoundTighteningsMatchColdExactly) {
  // Property: on integral assignment-style LPs, warm re-solves after a bound
  // fix (the branch & bound step) must match the cold solve bit-for-bit.
  Rng rng(20240807u);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4;
    Model m;
    std::vector<int> vars;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        vars.push_back(
            m.add_var(0, 1, static_cast<double>(rng.uniform_int(0, 16))));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<RowEntry> row_i, col_i;
      for (int j = 0; j < n; ++j) {
        row_i.push_back({vars[static_cast<std::size_t>(i * n + j)], 1.0});
        col_i.push_back({vars[static_cast<std::size_t>(j * n + i)], 1.0});
      }
      m.add_row(Sense::EQ, 1.0, row_i);
      m.add_row(Sense::EQ, 1.0, col_i);
    }
    const Result root = solve(m);
    ASSERT_EQ(root.status, Status::Optimal);
    // Fix one variable to each side, as branching does.
    const int bv = vars[rng.uniform_int(0, static_cast<int>(vars.size()) - 1)];
    for (double fixed : {0.0, 1.0}) {
      m.set_bounds(bv, fixed, fixed);
      const Result warm = solve(m, {}, &root.basis);
      const Result cold = solve(m);
      ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
      if (cold.status == Status::Optimal) {
        EXPECT_EQ(warm.objective, cold.objective) << "trial " << trial;
      }
      m.set_bounds(bv, 0.0, 1.0);
    }
  }
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, -1.0);
  for (int k = 1; k <= 12; ++k) {
    m.add_row(Sense::LE, 2.0, {{x, 1.0}, {y, static_cast<double>(k) / 6.0}});
  }
  m.add_row(Sense::LE, 2.0, {{x, 1.0}});
  m.add_row(Sense::LE, 2.0, {{y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_LE(m.max_violation(r.x), 1e-7);
}

// ---------------------------------------------------------------------------
// Property: assignment-problem LP relaxations are integral; simplex optimum
// must equal the best permutation found by brute force.
// ---------------------------------------------------------------------------
class AssignmentLp : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentLp, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 2));  // 3..5
    std::vector<std::vector<double>> c(static_cast<std::size_t>(n),
                                       std::vector<double>(static_cast<std::size_t>(n)));
    for (auto& row : c) {
      for (double& v : row) v = rng.uniform_real(0.0, 10.0);
    }
    Model m;
    std::vector<std::vector<int>> x(static_cast<std::size_t>(n),
                                    std::vector<int>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            m.add_var(0, 1, c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<RowEntry> row_i, col_i;
      for (int j = 0; j < n; ++j) {
        row_i.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
        col_i.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], 1.0});
      }
      m.add_row(Sense::EQ, 1.0, row_i);
      m.add_row(Sense::EQ, 1.0, col_i);
    }
    const Result r = solve(m);
    ASSERT_EQ(r.status, Status::Optimal);

    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    double best = 1e300;
    do {
      double s = 0;
      for (int i = 0; i < n; ++i) {
        s += c[static_cast<std::size_t>(i)][static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
      }
      best = std::min(best, s);
    } while (std::next_permutation(perm.begin(), perm.end()));

    EXPECT_NEAR(r.objective, best, 1e-6) << "n=" << n << " trial=" << trial;
    EXPECT_LE(m.max_violation(r.x), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentLp, ::testing::Range(1, 9));

// Property: random LE-constrained LPs — solution feasible and no sampled
// feasible point beats it.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, OptimalBeatsSampledPoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977u);
  for (int trial = 0; trial < 6; ++trial) {
    const int nv = 4 + static_cast<int>(rng.uniform_int(0, 4));
    const int nc = 3 + static_cast<int>(rng.uniform_int(0, 4));
    Model m;
    for (int v = 0; v < nv; ++v) m.add_var(0.0, 5.0, rng.uniform_real(-3, 3));
    for (int r = 0; r < nc; ++r) {
      std::vector<RowEntry> row;
      for (int v = 0; v < nv; ++v) {
        if (rng.chance(0.6)) row.push_back({v, rng.uniform_real(0.1, 2.0)});
      }
      if (row.empty()) row.push_back({0, 1.0});
      m.add_row(Sense::LE, rng.uniform_real(2.0, 12.0), std::move(row));
    }
    const Result res = solve(m);
    ASSERT_EQ(res.status, Status::Optimal);  // x == 0 is always feasible here
    ASSERT_LE(m.max_violation(res.x), 1e-7);
    for (int s = 0; s < 200; ++s) {
      std::vector<double> z(static_cast<std::size_t>(nv));
      for (double& v : z) v = rng.uniform_real(0.0, 5.0);
      if (m.max_violation(z) <= 0.0) {
        ASSERT_GE(m.objective_value(z), res.objective - 1e-7);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Dual certificate property: the exported duals must reconstruct the optimum.
// This is the identity verify::certify_rap leans on — evaluate it here with
// independent arithmetic on every class of LP the solver emits duals for.
// ---------------------------------------------------------------------------

/// Lagrangian box bound b'y + sum_j min(d_j lb_j, d_j ub_j), d = c - A'y,
/// with duals clamped into the valid cone per row sense first (min-problem:
/// LE rows need y <= 0, GE rows y >= 0). At an optimal basis the bound
/// equals the primal objective exactly (strong duality + complementary
/// slackness); clamping is a no-op there and only guards noisy duals.
double dual_bound(const Model& m, const Result& r) {
  std::vector<double> d(static_cast<std::size_t>(m.num_vars()));
  for (int j = 0; j < m.num_vars(); ++j) {
    d[static_cast<std::size_t>(j)] = m.obj(j);
  }
  double bound = 0.0;
  for (int i = 0; i < m.num_rows(); ++i) {
    const Row& row = m.row(i);
    double y = r.duals[static_cast<std::size_t>(i)];
    if (row.sense == Sense::LE) y = std::min(y, 0.0);
    if (row.sense == Sense::GE) y = std::max(y, 0.0);
    bound += y * row.rhs;
    for (const RowEntry& e : row.entries) {
      d[static_cast<std::size_t>(e.var)] -= y * e.coef;
    }
  }
  for (int j = 0; j < m.num_vars(); ++j) {
    const double dj = d[static_cast<std::size_t>(j)];
    bound += std::min(dj * m.lb(j), dj * m.ub(j));
  }
  return bound;
}

class DualCertificate : public ::testing::TestWithParam<int> {};

TEST_P(DualCertificate, BoundMatchesObjectiveAtOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131u + 7u);
  for (int trial = 0; trial < 6; ++trial) {
    Model m;
    const int nv = 3 + static_cast<int>(rng.uniform_int(0, 4));
    for (int v = 0; v < nv; ++v) {
      m.add_var(0.0, rng.uniform_real(1.0, 6.0), rng.uniform_real(-4, 4));
    }
    const int nc = 2 + static_cast<int>(rng.uniform_int(0, 4));
    for (int r = 0; r < nc; ++r) {
      std::vector<RowEntry> row;
      for (int v = 0; v < nv; ++v) {
        if (rng.chance(0.7)) row.push_back({v, rng.uniform_real(-1.5, 2.0)});
      }
      if (row.empty()) row.push_back({0, 1.0});
      const int pick = static_cast<int>(rng.uniform_int(0, 2));
      const Sense sense =
          pick == 0 ? Sense::LE : (pick == 1 ? Sense::GE : Sense::EQ);
      // Keep the row satisfiable at x == midpoint to avoid mass infeasibility.
      double mid = 0.0;
      for (const RowEntry& e : row) mid += e.coef * m.ub(e.var) * 0.5;
      const double slack = rng.uniform_real(0.0, 3.0);
      const double rhs = sense == Sense::GE ? mid - slack
                         : sense == Sense::LE ? mid + slack
                                              : mid;
      m.add_row(sense, rhs, std::move(row));
    }
    const Result r = solve(m);
    if (r.status != Status::Optimal) continue;  // infeasible draws are fine
    ASSERT_EQ(r.duals.size(), static_cast<std::size_t>(m.num_rows()));
    const double scale = std::max(1.0, std::abs(r.objective));
    EXPECT_NEAR(dual_bound(m, r), r.objective, 1e-6 * scale)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualCertificate, ::testing::Range(1, 9));

TEST(DualCertificate, NoisyDualsStayValidLowerBound) {
  // Perturbed duals must still give a *lower* bound after cone clamping —
  // this is what makes the certifier robust to solver round-off.
  Rng rng(424242u);
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  for (int trial = 0; trial < 50; ++trial) {
    Result noisy = r;
    for (double& d : noisy.duals) d += rng.uniform_real(-0.5, 0.5);
    EXPECT_LE(dual_bound(m, noisy), r.objective + 1e-9) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// detail::SparseLu against the dense LU it replaced: same pivots, same
// rounding, so every solve must match the reference bit for bit.
// ---------------------------------------------------------------------------

/// Reference: dense LU with partial pivoting (PA = LU) on a row-major matrix.
class DenseLu {
 public:
  bool factorize(std::vector<double> a, int n, double tol) {
    n_ = n;
    a_ = std::move(a);
    perm_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      int piv = k;
      double best = std::abs(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double v = std::abs(at(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best <= tol) return false;
      if (piv != k) {
        for (int j = 0; j < n; ++j) std::swap(at(k, j), at(piv, j));
        std::swap(perm_[static_cast<std::size_t>(k)],
                  perm_[static_cast<std::size_t>(piv)]);
      }
      const double inv = 1.0 / at(k, k);
      for (int i = k + 1; i < n; ++i) {
        const double l = at(i, k) * inv;
        at(i, k) = l;
        if (l != 0.0) {
          for (int j = k + 1; j < n; ++j) at(i, j) -= l * at(k, j);
        }
      }
    }
    return true;
  }

  void solve(std::vector<double>& b) const {
    std::vector<double> x(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      x[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    }
    for (int i = 1; i < n_; ++i) {
      double s = x[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(i, j) * x[static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(i)] = s;
    }
    for (int i = n_ - 1; i >= 0; --i) {
      double s = x[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < n_; ++j) s -= at(i, j) * x[static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(i)] = s / at(i, i);
    }
    b = x;
  }

  void solve_transpose(std::vector<double>& b) const {
    std::vector<double> x = b;
    for (int i = 0; i < n_; ++i) {
      double s = x[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(j, i) * x[static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(i)] = s / at(i, i);
    }
    for (int i = n_ - 1; i >= 0; --i) {
      double s = x[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < n_; ++j) s -= at(j, i) * x[static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(i)] = s;
    }
    for (int i = 0; i < n_; ++i) {
      b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          x[static_cast<std::size_t>(i)];
    }
  }

 private:
  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }

  int n_ = 0;
  std::vector<double> a_;
  std::vector<int> perm_;
};

/// Row-major n x n matrix, the form both factorizations are fed from.
struct DenseMatrix {
  int n = 0;
  std::vector<double> a;
  double& operator()(int i, int j) {
    return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(j)];
  }
};

DenseMatrix zeros(int n) {
  return {n, std::vector<double>(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0)};
}

SparseView columns_of(const DenseMatrix& m) {
  SparseView v;
  v.ptr.push_back(0);
  for (int j = 0; j < m.n; ++j) {
    for (int i = 0; i < m.n; ++i) {
      const double c = m.a[static_cast<std::size_t>(i) * static_cast<std::size_t>(m.n) +
                           static_cast<std::size_t>(j)];
      if (c != 0.0) {
        v.idx.push_back(i);
        v.val.push_back(c);
      }
    }
    v.ptr.push_back(static_cast<int>(v.idx.size()));
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Right-hand sides that exercise the sign-of-zero corner cases too: unit
/// vectors (a B^{-1} row), sparse vectors with -0 entries, dense vectors.
std::vector<std::vector<double>> rhs_set(int n, Rng& rng) {
  std::vector<std::vector<double>> out;
  for (int p : {0, n / 2, n - 1}) {
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(p)] = 1.0;
    out.push_back(e);
  }
  for (int t = 0; t < 4; ++t) {
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    for (double& v : b) {
      const int kind = static_cast<int>(rng.uniform_int(0, 5));
      if (kind == 0) v = -0.0;
      if (kind == 1) v = static_cast<double>(rng.uniform_int(-2, 2));
      if (kind == 2) v = rng.uniform_real(-5.0, 5.0);
    }
    out.push_back(b);
  }
  std::vector<double> dense(static_cast<std::size_t>(n));
  for (double& v : dense) v = rng.uniform_real(-1.0, 1.0);
  out.push_back(dense);
  return out;
}

/// Factorizes `m` both ways and compares every solve bit for bit. Returns
/// whether the matrix was nonsingular.
bool expect_same_as_dense(const DenseMatrix& m, Rng& rng) {
  DenseLu ref;
  detail::SparseLu lu;
  const bool ok = ref.factorize(m.a, m.n, 1e-11);
  EXPECT_EQ(lu.factorize(columns_of(m), 1e-11), ok);
  if (!ok) return false;
  for (const std::vector<double>& b : rhs_set(m.n, rng)) {
    std::vector<double> want = b, got = b;
    ref.solve(want);
    lu.solve(got);
    EXPECT_TRUE(same_bits(want, got)) << "solve, n=" << m.n;
    want = b;
    got = b;
    ref.solve_transpose(want);
    lu.solve_transpose(got);
    EXPECT_TRUE(same_bits(want, got)) << "solve_transpose, n=" << m.n;
  }
  return true;
}

/// A basis like the RAP ones: mostly slack (unit) columns, the rest
/// x-columns with 2-3 nonzeros of small integer or real coefficients.
DenseMatrix slack_heavy(int n, Rng& rng) {
  DenseMatrix m = zeros(n);
  std::vector<int> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  rng.shuffle(rows);
  for (int j = 0; j < n; ++j) {
    if (rng.chance(0.6)) {
      m(rows[static_cast<std::size_t>(j)], j) = 1.0;
      continue;
    }
    const int nnz = static_cast<int>(rng.uniform_int(2, 3));
    for (int t = 0; t < nnz; ++t) {
      const int i = static_cast<int>(rng.uniform_int(0, n - 1));
      m(i, j) = rng.chance(0.5) ? static_cast<double>(rng.uniform_int(1, 4))
                                : rng.uniform_real(-3.0, 3.0);
    }
  }
  return m;
}

TEST(SparseLu, SlackHeavyBasesMatchDenseBitForBit) {
  Rng rng(1313u);
  int nonsingular = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    nonsingular += expect_same_as_dense(slack_heavy(n, rng), rng) ? 1 : 0;
  }
  EXPECT_GE(nonsingular, 10);
}

TEST(SparseLu, RowSwapsMatchDense) {
  // Small diagonal, larger off-diagonal entries: most steps pivot away from
  // the current position.
  Rng rng(77u);
  int nonsingular = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 30));
    DenseMatrix m = zeros(n);
    for (int j = 0; j < n; ++j) {
      m(j, j) = rng.uniform_real(0.01, 0.1);
      for (int t = 0; t < 3; ++t) {
        m(static_cast<int>(rng.uniform_int(0, n - 1)), j) = rng.uniform_real(-9.0, 9.0);
      }
    }
    nonsingular += expect_same_as_dense(m, rng) ? 1 : 0;
  }
  EXPECT_GE(nonsingular, 30);
}

TEST(SparseLu, TiedPivotMagnitudesMatchDense) {
  // Entries from {-2, -1, 1, 2}: equal |a(i,k)| candidates at every step,
  // and exact cancellations that leave signed zeros in the solves.
  Rng rng(4242u);
  int nonsingular = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 25));
    DenseMatrix m = zeros(n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        if (i == j || rng.chance(0.2)) {
          const double mag = rng.chance(0.5) ? 1.0 : 2.0;
          m(i, j) = rng.chance(0.5) ? mag : -mag;
        }
      }
    }
    nonsingular += expect_same_as_dense(m, rng) ? 1 : 0;
  }
  EXPECT_GE(nonsingular, 40);
}

TEST(SparseLu, FillInMatchesDense) {
  // Arrowhead with the dense row/column first: eliminating column 0 fills
  // the whole trailing block.
  Rng rng(99u);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 30));
    DenseMatrix m = zeros(n);
    for (int i = 0; i < n; ++i) {
      m(i, 0) = rng.uniform_real(0.5, 2.0);
      m(0, i) = rng.uniform_real(-2.0, 2.0);
      m(i, i) = rng.uniform_real(1.0, 3.0) * (rng.chance(0.5) ? 1.0 : -1.0);
    }
    m(0, 0) = 5.0;
    EXPECT_TRUE(expect_same_as_dense(m, rng)) << "trial " << trial;
  }
}

TEST(SparseLu, RejectsSingularBases) {
  Rng rng(5u);
  // Numerically singular: column 2 is 3 * column 0.
  DenseMatrix numeric = zeros(3);
  numeric(0, 0) = 1.0;
  numeric(1, 0) = 2.0;
  numeric(2, 0) = 3.0;
  numeric(0, 1) = 1.0;
  numeric(2, 1) = -1.0;
  for (int i = 0; i < 3; ++i) numeric(i, 2) = 3.0 * numeric(i, 0);
  EXPECT_FALSE(expect_same_as_dense(numeric, rng));

  // Structurally singular: an empty column.
  DenseMatrix empty = zeros(4);
  for (int i = 0; i < 4; ++i) empty(i, i) = 1.0;
  empty(2, 2) = 0.0;
  EXPECT_FALSE(expect_same_as_dense(empty, rng));

  // Duplicate columns (the same variable basic twice).
  DenseMatrix dup = slack_heavy(12, rng);
  for (int i = 0; i < 12; ++i) dup(i, 7) = dup(i, 3);
  EXPECT_FALSE(expect_same_as_dense(dup, rng));
}

}  // namespace
}  // namespace mth::lp
