#pragma once
// Mixed-integer linear programming by LP-based branch & bound.
//
// This is the reproduction's stand-in for CPLEX 22.1.1 (DESIGN.md §2):
// best-first branch & bound over an lp::Model, most-fractional branching
// with value-directed child ordering, optional caller-supplied rounding
// heuristic (the RAP module plugs in a capacity-aware repair), incumbent
// warm starts, relative-gap and wall-clock termination. Node expansion can
// run in deterministic fixed-width batches whose LPs solve in parallel
// (Options::node_batch); pop order and node ids are fully pinned, so the
// search tree never depends on the thread count.

#include <functional>
#include <vector>

#include "mth/lp/model.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/util/exec.hpp"

namespace mth::ilp {

enum class Status {
  Optimal,     ///< proven optimal within gap tolerance
  Feasible,    ///< stopped early with an incumbent (time/node limit)
  Infeasible,  ///< no integer point exists
  NoSolution,  ///< stopped early without an incumbent
};

const char* to_string(Status s);

/// Heuristic hook: given an LP-relaxation point, try to produce an integral
/// feasible point in `out`; return true on success. Called at every node.
using RoundingHeuristic =
    std::function<bool(const std::vector<double>& relaxation,
                       std::vector<double>& out)>;

struct Options {
  double time_limit_s = 120.0;
  double rel_gap = 1e-6;        ///< stop when (incumbent-bound)/|incumbent| below
  double int_tol = 1e-6;        ///< integrality tolerance
  int max_nodes = 200000;
  lp::Options lp;               ///< per-node LP settings
  RoundingHeuristic heuristic;  ///< optional
  /// Variables to branch on first while any of them is fractional (e.g. the
  /// RAP's row-opening indicators y_r, whose fixing collapses the search).
  std::vector<int> priority_vars;
  /// A/B toggle — start each node's LP from the parent's optimal basis
  /// (dual simplex re-solve) instead of a cold two-phase solve. false =
  /// cold baseline. The warm-vs-cold A/B lives in `bench_fig5_ilp_scaling`
  /// (BENCH_ilp_sparse.json; gated by tools/perf_smoke.sh); no dedicated
  /// CLI flag. Acceptance rate shows up as Result::basis_reuse_hits and the
  /// `lp/warm_hits` trace counter (README "Observability").
  bool warm_basis = true;
  /// A/B knob — deterministic parallel branch & bound batch width. Each
  /// round pops up to `node_batch` open nodes in best-first order, solves
  /// their LP relaxations concurrently on util::ThreadPool (one root-bounds
  /// model copy per node), then merges results serially in pop order with
  /// monotonic node ids. The search tree — node count, incumbents, bounds —
  /// is a pure function of (model, options): the batch width shapes it, the
  /// thread count only moves wall-clock, so results are bit-identical at any
  /// MTH_THREADS. 1 = the historical serial best-first loop (in-place bound
  /// mutation, no model copies). The serial-vs-batch A/B lives in
  /// `bench_scaling` (BENCH_shard.json; gated by tools/perf_smoke.sh). The
  /// worker count comes from the ExecPolicy handed to solve().
  int node_batch = 1;
};

struct Result {
  Status status = Status::NoSolution;
  double objective = 0.0;       ///< incumbent objective (valid unless NoSolution)
  double best_bound = -lp::kInf;///< proven lower bound
  std::vector<double> x;        ///< incumbent point (structural vars)
  int nodes = 0;
  int lp_iterations = 0;
  int basis_reuse_hits = 0;     ///< node LPs that accepted an inherited basis
  double solve_seconds = 0.0;
  /// Dual certificate of the root relaxation (lp::solve row duals at the
  /// root node's optimum, over the model as handed in). Empty when the root
  /// LP never solved to optimality. An independent verifier can recompute
  /// the Lagrangian bound b'y + min_box (c - A'y)'x from these and the model
  /// without trusting the simplex (mth::verify::IlpCertifier does).
  std::vector<double> root_duals;
  double root_lp_objective = -lp::kInf;  ///< root relaxation optimum

  double gap() const {
    if (status == Status::NoSolution || status == Status::Infeasible) return lp::kInf;
    const double denom = std::abs(objective) > 1e-12 ? std::abs(objective) : 1.0;
    return (objective - best_bound) / denom;
  }
};

/// Solve min c'x with the model's rows/bounds and the listed variables
/// restricted to integers. `warm_start`, when given and feasible, seeds the
/// incumbent; `root_basis`, when given (e.g. from a root cut loop's last LP),
/// warm-starts the root relaxation. The model is taken by value (bounds are
/// mutated during search). `exec.num_threads` sizes the batch node-LP
/// workers (Options::node_batch > 1); it never affects results, only
/// wall-clock.
Result solve(lp::Model model, const std::vector<int>& integer_vars,
             const Options& options = {},
             const std::vector<double>* warm_start = nullptr,
             const lp::Basis* root_basis = nullptr,
             const util::ExecPolicy& exec = {});

}  // namespace mth::ilp
