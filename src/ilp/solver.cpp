#include "mth/ilp/solver.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <cmath>
#include <utility>

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/threadpool.hpp"
#include "mth/util/timer.hpp"

namespace mth::ilp {

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Feasible: return "feasible";
    case Status::Infeasible: return "infeasible";
    case Status::NoSolution: return "no-solution";
  }
  return "?";
}

namespace {

/// Every Nth branch & bound node wraps its LP re-solve in an `ilp/node_lp`
/// span (the `ilp/nodes` counter stays exact for every node).
constexpr int kNodeSpanSample = 64;

struct BoundChange {
  int var = 0;
  double lb = 0.0;
  double ub = 0.0;
};

struct Node {
  /// Creation order (root = 0, then children in push order). Monotonic and
  /// assigned during the serial merge only, so it is a pure function of the
  /// search — the deterministic last-resort pop tie-break.
  std::int64_t id = 0;
  std::vector<BoundChange> changes;  ///< cumulative path from the root
  double parent_bound = -lp::kInf;   ///< LP bound inherited from the parent
  /// Parent's optimal LP basis (shared by both children): the child bound
  /// change leaves it dual-feasible, so the node LP re-solves with a few
  /// dual-simplex pivots instead of a cold phase 1.
  std::shared_ptr<const lp::Basis> basis;
};

/// Most-fractional integer variable in `x`; -1 when integral.
int pick_branch_var(const std::vector<double>& x,
                    const std::vector<int>& int_vars, double int_tol) {
  int best = -1;
  double best_frac_dist = int_tol;
  for (int v : int_vars) {
    const double xv = x[static_cast<std::size_t>(v)];
    const double frac = xv - std::floor(xv);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = v;
    }
  }
  return best;
}

bool is_integral(const std::vector<double>& x, const std::vector<int>& int_vars,
                 double int_tol) {
  return pick_branch_var(x, int_vars, int_tol) < 0;
}

std::vector<double> rounded(const std::vector<double>& x,
                            const std::vector<int>& int_vars) {
  std::vector<double> out = x;
  for (int v : int_vars) {
    out[static_cast<std::size_t>(v)] =
        std::round(out[static_cast<std::size_t>(v)]);
  }
  return out;
}

}  // namespace

Result solve(lp::Model model, const std::vector<int>& integer_vars,
             const Options& options, const std::vector<double>* warm_start,
             const lp::Basis* root_basis, const util::ExecPolicy& exec) {
  WallTimer timer;
  Result res;

  for (int v : integer_vars) {
    MTH_ASSERT(v >= 0 && v < model.num_vars(), "ilp: bad integer var index");
  }

  // Root bounds (restored around every node solve).
  std::vector<double> root_lb(static_cast<std::size_t>(model.num_vars()));
  std::vector<double> root_ub(static_cast<std::size_t>(model.num_vars()));
  for (int v = 0; v < model.num_vars(); ++v) {
    root_lb[static_cast<std::size_t>(v)] = model.lb(v);
    root_ub[static_cast<std::size_t>(v)] = model.ub(v);
  }

  bool have_incumbent = false;
  double incumbent = lp::kInf;
  std::vector<double> incumbent_x;

  auto try_incumbent = [&](const std::vector<double>& x) {
    if (model.max_violation(x) > 1e-6) return;
    if (!is_integral(x, integer_vars, options.int_tol)) return;
    const double obj = model.objective_value(x);
    if (!have_incumbent || obj < incumbent - 1e-12) {
      have_incumbent = true;
      incumbent = obj;
      incumbent_x = x;
      MTH_DEBUG << "ilp: new incumbent " << obj << " after " << res.nodes
                << " nodes";
    }
  };

  if (warm_start != nullptr) try_incumbent(*warm_start);

  // One shared bound-prune predicate: a node (or child) whose LP bound is
  // already within the relative gap of the incumbent proves nothing more.
  auto pruned_by_bound = [&](double bound) {
    if (!have_incumbent || bound <= -lp::kInf) return false;
    const double denom = std::abs(incumbent) > 1e-12 ? std::abs(incumbent) : 1.0;
    return (incumbent - bound) / denom <= options.rel_gap;
  };

  // Best-first search: always expand the open node with the weakest
  // (smallest) inherited bound, so the proven global bound — the top of the
  // heap — rises monotonically and the gap actually closes (depth-first
  // would pin it at the root LP value until subtrees finish). Ties prefer
  // the deeper node, then the earlier-created one: the full ordering is
  // total, so pop order never falls to heap internals — a prerequisite for
  // the batch-parallel expansion below staying thread-count-invariant.
  auto worse = [](const Node& a, const Node& b) {
    if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
    if (a.changes.size() != b.changes.size()) return a.changes.size() < b.changes.size();
    return a.id > b.id;
  };
  std::priority_queue<Node, std::vector<Node>, decltype(worse)> open(worse);
  std::int64_t next_id = 0;
  {
    Node root;
    root.id = next_id++;
    if (options.warm_basis && root_basis != nullptr && !root_basis->empty()) {
      root.basis = std::make_shared<lp::Basis>(*root_basis);
    }
    open.push(std::move(root));
  }

  auto open_bound = [&]() {
    return open.empty() ? lp::kInf : open.top().parent_bound;
  };

  // Node expansion runs in batch-synchronous rounds: pop up to `node_batch`
  // nodes in best-first order, solve their LP relaxations (concurrently for
  // batches > 1 — each worker gets its own root-bounds model copy, so the
  // shared `model` is never mutated off the serial path), then merge the
  // results serially in pop order. A width-1 batch reproduces the historical
  // serial loop exactly (including its in-place bound mutation); wider
  // batches solve some nodes speculatively that serial pruning would have
  // skipped, but the tree is still a pure function of (model, options) —
  // the thread count only moves wall-clock.
  const int batch_width = std::max(1, options.node_batch);
  std::vector<Node> batch;
  std::vector<lp::Result> rels;
  bool exhausted = true;
  while (!open.empty()) {
    if (timer.seconds() > options.time_limit_s || res.nodes >= options.max_nodes) {
      exhausted = false;
      break;
    }
    // Collect the round, dropping bound-pruned nodes unsolved (the incumbent
    // may have improved since they were pushed).
    batch.clear();
    while (static_cast<int>(batch.size()) < batch_width && !open.empty()) {
      Node popped = open.top();
      open.pop();
      if (pruned_by_bound(popped.parent_bound)) continue;
      batch.push_back(std::move(popped));
    }
    if (batch.empty()) continue;  // loop header re-checks open.empty()

    rels.assign(batch.size(), lp::Result());
    if (batch.size() == 1) {
      const Node& node = batch[0];
      for (const BoundChange& bc : node.changes) {
        model.set_bounds(bc.var, bc.lb, bc.ub);
      }
      if (res.nodes % kNodeSpanSample == 0) {
        // Sampled node-LP spans: one in kNodeSpanSample nodes gets a span so
        // large searches stay legible in the trace; the counters below are
        // exact regardless.
        MTH_SPAN("ilp/node_lp");
        rels[0] = lp::solve(model, options.lp,
                            options.warm_basis ? node.basis.get() : nullptr);
      } else {
        rels[0] = lp::solve(model, options.lp,
                            options.warm_basis ? node.basis.get() : nullptr);
      }
      for (const BoundChange& bc : node.changes) {
        model.set_bounds(bc.var, root_lb[static_cast<std::size_t>(bc.var)],
                         root_ub[static_cast<std::size_t>(bc.var)]);
      }
    } else {
      util::ParallelOptions par;
      par.num_threads = exec.num_threads;
      par.grain = 1;
      par.trace_name = "ilp/worker";
      util::parallel_chunks(
          static_cast<std::int64_t>(batch.size()), par,
          [&](int /*chunk*/, std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              lp::Model node_model = model;  // root bounds
              for (const BoundChange& bc :
                   batch[static_cast<std::size_t>(i)].changes) {
                node_model.set_bounds(bc.var, bc.lb, bc.ub);
              }
              rels[static_cast<std::size_t>(i)] = lp::solve(
                  node_model, options.lp,
                  options.warm_basis
                      ? batch[static_cast<std::size_t>(i)].basis.get()
                      : nullptr);
            }
          });
    }

    // Serial merge in pop order: counters, incumbents, and child pushes are
    // identical no matter how the LP solves above were scheduled.
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      Node& node = batch[bi];
      lp::Result& rel = rels[bi];
      ++res.nodes;
      MTH_COUNT("ilp/nodes", 1);
      res.lp_iterations += rel.iterations;
      if (rel.warm_used) ++res.basis_reuse_hits;

      // Export the root relaxation's dual certificate (the root is the
      // unique node with no bound changes, always popped first).
      if (node.changes.empty() && rel.status == lp::Status::Optimal) {
        res.root_duals = rel.duals;
        res.root_lp_objective = rel.objective;
      }

      if (rel.status == lp::Status::Infeasible) continue;
      if (rel.status != lp::Status::Optimal) {
        // Unbounded/iteration-limited relaxation: treat conservatively as an
        // unexplorable subtree with no bound (cannot prune siblings).
        MTH_WARN << "ilp: node relaxation " << lp::to_string(rel.status);
        exhausted = false;
        continue;
      }
      if (pruned_by_bound(rel.objective)) continue;

      if (is_integral(rel.x, integer_vars, options.int_tol)) {
        try_incumbent(rounded(rel.x, integer_vars));
        continue;
      }

      // Heuristics: naive rounding, then the caller's repair hook.
      try_incumbent(rounded(rel.x, integer_vars));
      if (options.heuristic) {
        std::vector<double> h;
        if (options.heuristic(rel.x, h)) try_incumbent(h);
      }

      // Prune the children at push time: the heuristics above may have
      // raised the incumbent past this node's own bound, and dead nodes on
      // the heap only cost pops later.
      if (pruned_by_bound(rel.objective)) continue;

      int bv = options.priority_vars.empty()
                   ? -1
                   : pick_branch_var(rel.x, options.priority_vars,
                                     options.int_tol);
      if (bv < 0) bv = pick_branch_var(rel.x, integer_vars, options.int_tol);
      MTH_ASSERT(bv >= 0, "ilp: fractional point with no branch var");
      const double xv = rel.x[static_cast<std::size_t>(bv)];
      const double fl = std::floor(xv);

      std::shared_ptr<const lp::Basis> child_basis;
      if (options.warm_basis && !rel.basis.empty()) {
        child_basis = std::make_shared<lp::Basis>(std::move(rel.basis));
      }
      Node down = node;
      down.id = next_id++;
      down.parent_bound = rel.objective;
      down.basis = child_basis;
      down.changes.push_back(
          {bv, root_lb[static_cast<std::size_t>(bv)], fl});
      Node up = std::move(node);
      up.id = next_id++;
      up.parent_bound = rel.objective;
      up.basis = std::move(child_basis);
      up.changes.push_back(
          {bv, fl + 1.0, root_ub[static_cast<std::size_t>(bv)]});

      open.push(std::move(down));
      open.push(std::move(up));
    }
  }

  res.solve_seconds = timer.seconds();
  res.best_bound = exhausted && open.empty()
                       ? (have_incumbent ? incumbent : lp::kInf)
                       : open_bound();
  if (have_incumbent) {
    res.objective = incumbent;
    res.x = std::move(incumbent_x);
    res.best_bound = std::min(res.best_bound, incumbent);
    res.status = (exhausted && open.empty()) || res.gap() <= options.rel_gap
                     ? Status::Optimal
                     : Status::Feasible;
  } else {
    res.status = (exhausted && open.empty()) ? Status::Infeasible
                                             : Status::NoSolution;
  }
  return res;
}

}  // namespace mth::ilp
