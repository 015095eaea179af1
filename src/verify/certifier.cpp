#include "mth/verify/certifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mth/util/error.hpp"

namespace mth::verify {
namespace {

/// Vertical center of an instance (the y the RAP cost function prices).
Dbu center_y(const Design& d, InstId i) {
  return d.netlist.instance(i).pos.y + d.master_of(i).height / 2;
}

/// Brute-force replacement for the solver's incremental YExtremes: y-span of
/// `net` when instance `cell`'s contribution is replaced by `newy`, and the
/// current span. Every pin is rescanned from the netlist each call.
struct SpanScan {
  Dbu others_lo = INT64_MAX;
  Dbu others_hi = INT64_MIN;
  Dbu full_lo = INT64_MAX;
  Dbu full_hi = INT64_MIN;

  SpanScan(const Design& d, NetId net, InstId cell) {
    for (const PinRef& ref : d.netlist.net(net).pins) {
      Dbu y;
      bool is_cell = false;
      if (ref.is_port()) {
        y = d.netlist.port(ref.pin).pos.y;
      } else {
        y = center_y(d, ref.inst);
        is_cell = ref.inst == cell;
      }
      full_lo = std::min(full_lo, y);
      full_hi = std::max(full_hi, y);
      if (!is_cell) {
        others_lo = std::min(others_lo, y);
        others_hi = std::max(others_hi, y);
      }
    }
  }

  Dbu span() const { return full_lo == INT64_MAX ? 0 : full_hi - full_lo; }
  Dbu span_with(Dbu newy) const {
    if (others_lo == INT64_MAX || others_hi == INT64_MIN) return 0;
    return std::max(others_hi, newy) - std::min(others_lo, newy);
  }
};

/// Independent "row pair containing y" lookup (clamped like row_at_y).
int pair_of_y(const Floorplan& fp, Dbu y) {
  const int nrows = fp.num_rows();
  if (y < fp.row(0).y) return 0;
  if (y >= fp.row(nrows - 1).y_top()) return (nrows - 1) / 2;
  int lo = 0, hi = nrows - 1;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (fp.row(mid).y <= y) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo / 2;
}

bool close_rel(double a, double b, double rel_tol) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= rel_tol * scale;
}

}  // namespace

std::string CertifyReport::summary(std::size_t max_lines) const {
  if (ok()) {
    return "certified: objective " + std::to_string(reported_objective) +
           (bound_available
                ? ", dual bound " + std::to_string(dual_bound) + ", gap " +
                      std::to_string(certified_gap)
                : ", no dual certificate");
  }
  std::string out = std::to_string(problems.size()) + " problem(s): ";
  const std::size_t n = std::min(max_lines, problems.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += "; ";
    out += problems[i];
  }
  if (problems.size() > n) {
    out += "; ... " + std::to_string(problems.size() - n) + " more";
  }
  return out;
}

CertifyReport certify_rap(const Design& design, const rap::RapResult& result,
                          const rap::RapOptions& rap_options,
                          const CertifyOptions& options) {
  CertifyReport rep;
  rep.reported_objective = result.objective;
  rep.gap_window_used =
      options.gap_window > 0.0
          ? options.gap_window
          : std::max(0.15, 2.0 * rap_options.ilp.rel_gap);
  auto problem = [&](const std::string& msg) { rep.problems.push_back(msg); };

  const Floorplan& fp = design.floorplan;
  const Library& wlib = rap_options.width_library != nullptr
                            ? *rap_options.width_library
                            : *design.library;
  const int nr = fp.num_pairs();
  const double alpha = rap_options.alpha;

  // --- re-derive the minority cell set from the design ----------------------
  std::vector<InstId> minority;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    if (design.is_minority(i)) minority.push_back(i);
  }
  if (minority != result.minority_cells) {
    problem("minority cell set does not match the design");
    return rep;  // every later index would be unreliable
  }
  const int n_min_c = static_cast<int>(minority.size());
  const int n_clusters = result.num_clusters;
  if (n_clusters <= 0 ||
      result.cluster_of.size() != static_cast<std::size_t>(n_min_c) ||
      result.cluster_pair.size() != static_cast<std::size_t>(n_clusters)) {
    problem("cluster map shapes inconsistent");
    return rep;
  }

  // --- Eq. 3: every cluster on exactly one row pair -------------------------
  bool feasible = true;
  for (int k = 0; k < n_min_c; ++k) {
    const int c = result.cluster_of[static_cast<std::size_t>(k)];
    if (c < 0 || c >= n_clusters) {
      problem("cell " + std::to_string(k) + " in out-of-range cluster");
      feasible = false;
    }
  }
  for (int c = 0; c < n_clusters; ++c) {
    const int r = result.cluster_pair[static_cast<std::size_t>(c)];
    if (r < 0 || r >= nr) {
      problem("cluster " + std::to_string(c) + " assigned no valid pair");
      feasible = false;
    }
  }
  if (!feasible) return rep;

  // --- Eq. 4 + linking: capacity, and clusters only on opened pairs ---------
  std::vector<Dbu> cluster_w(static_cast<std::size_t>(n_clusters), 0);
  for (int k = 0; k < n_min_c; ++k) {
    cluster_w[static_cast<std::size_t>(
        result.cluster_of[static_cast<std::size_t>(k)])] +=
        wlib.master(design.netlist.instance(minority[static_cast<std::size_t>(k)])
                        .master)
            .width;
  }
  if (result.assignment.num_pairs() != nr) {
    problem("assignment pair count does not match the floorplan");
    return rep;
  }
  const Dbu pair_cap = fp.pair_capacity();
  std::vector<Dbu> load(static_cast<std::size_t>(nr), 0);
  for (int c = 0; c < n_clusters; ++c) {
    const int r = result.cluster_pair[static_cast<std::size_t>(c)];
    load[static_cast<std::size_t>(r)] += cluster_w[static_cast<std::size_t>(c)];
    if (!result.assignment.is_minority_pair(r)) {
      problem("cluster " + std::to_string(c) + " on closed pair " +
              std::to_string(r) + " (linking violated)");
      feasible = false;
    }
  }
  for (int r = 0; r < nr; ++r) {
    if (load[static_cast<std::size_t>(r)] > pair_cap) {
      problem("pair " + std::to_string(r) + " over capacity: " +
              std::to_string(load[static_cast<std::size_t>(r)]) + " > " +
              std::to_string(pair_cap));
      feasible = false;
    }
  }
  // --- Eq. 5: exactly N_minR minority pairs ---------------------------------
  if (result.assignment.num_minority() != result.n_min_pairs) {
    problem("assignment opens " +
            std::to_string(result.assignment.num_minority()) +
            " pairs, Eq. 5 requires " + std::to_string(result.n_min_pairs));
    feasible = false;
  }
  rep.feasible = feasible;

  // --- objective recomputation (Eqs. 1/2 + eviction surcharge) --------------
  // f contribution of one minority cell priced on pair r, matching the
  // solver's term order (alpha * Disp + (1 - alpha) * dHPWL) but with
  // brute-force net rescans instead of incremental extreme tracking.
  const auto& uses = design.netlist.inst_uses();
  auto cell_cost_on_pair = [&](InstId i, int r) {
    const Dbu ry = fp.pair_y_center(r);
    const double disp = static_cast<double>(std::llabs(ry - center_y(design, i)));
    double dhpwl = 0.0;
    for (const InstUse& u : uses[static_cast<std::size_t>(i)]) {
      if (design.netlist.net(u.net).is_clock) continue;
      const SpanScan scan(design, u.net, i);
      dhpwl += static_cast<double>(scan.span_with(ry) - scan.span());
    }
    return alpha * disp + (1.0 - alpha) * dhpwl;
  };
  // Cluster-then-cell accumulation in ascending minority index, the same
  // per-slot order the solver uses, so a correct result matches closely.
  std::vector<std::vector<int>> cluster_cells(
      static_cast<std::size_t>(n_clusters));
  for (int k = 0; k < n_min_c; ++k) {
    cluster_cells[static_cast<std::size_t>(
                      result.cluster_of[static_cast<std::size_t>(k)])]
        .push_back(k);
  }
  auto cluster_cost_on_pair = [&](int c, int r) {
    double f = 0.0;
    for (const int k : cluster_cells[static_cast<std::size_t>(c)]) {
      f += cell_cost_on_pair(minority[static_cast<std::size_t>(k)], r);
    }
    return f;
  };

  std::vector<double> evict(static_cast<std::size_t>(nr), 0.0);
  if (rap_options.model_eviction) {
    const Dbu pitch = nr > 1 ? fp.pair_y_center(1) - fp.pair_y_center(0)
                             : fp.core().height();
    for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
      if (design.is_minority(i)) continue;
      evict[static_cast<std::size_t>(pair_of_y(fp, center_y(design, i)))] +=
          alpha * static_cast<double>(pitch);
    }
  }

  double objective = 0.0;
  for (int c = 0; c < n_clusters; ++c) {
    objective +=
        cluster_cost_on_pair(c, result.cluster_pair[static_cast<std::size_t>(c)]);
  }
  for (int r = 0; r < nr; ++r) {
    if (result.assignment.is_minority_pair(r)) {
      objective += evict[static_cast<std::size_t>(r)];
    }
  }
  rep.recomputed_objective = objective;
  rep.objective_ok =
      close_rel(objective, result.objective, options.obj_rel_tol);
  if (!rep.objective_ok) {
    problem("reported objective " + std::to_string(result.objective) +
            " != recomputed " + std::to_string(objective));
  }

  // --- dual certificate(s) ---------------------------------------------------
  // One certificate check over a window view: the certificate claims to be
  // the root ILP for `view_clusters` (global ids, certificate-local order;
  // null == identity over all clusters) on pairs [pair_lo, pair_lo + n_pairs)
  // with Eq. 5 quota `quota`. Whole-design solves use the identity view;
  // sharded solves run one view per band and sum the dual bounds. Returns
  // false (with problems appended) when the certificate is malformed;
  // `bound_out` receives the clamped-dual Lagrangian bound on success.
  auto check_certificate = [&](const rap::RapCertificate& cert,
                               const std::vector<int>* view_clusters,
                               int pair_lo, int n_pairs, int quota,
                               double* bound_out) {
    const int n_cl = view_clusters != nullptr
                         ? static_cast<int>(view_clusters->size())
                         : n_clusters;
    auto global_cluster = [&](int lc) {
      return view_clusters != nullptr
                 ? (*view_clusters)[static_cast<std::size_t>(lc)]
                 : lc;
    };
    const lp::Model& model = cert.model;
    const int num_vars = model.num_vars();
    const int num_rows = model.num_rows();

    // Index maps: model var -> (local cluster, local candidate pair) / local
    // pair indicator.
    bool shape_ok = cert.xvar.size() == static_cast<std::size_t>(n_cl) &&
                    cert.cand.size() == static_cast<std::size_t>(n_cl) &&
                    cert.yvar.size() == static_cast<std::size_t>(n_pairs) &&
                    cert.duals.size() == static_cast<std::size_t>(num_rows);
    std::vector<int> var_cluster(static_cast<std::size_t>(num_vars), -1);
    std::vector<int> var_pair(static_cast<std::size_t>(num_vars), -1);
    std::vector<char> var_is_y(static_cast<std::size_t>(num_vars), 0);
    int mapped = 0;
    if (shape_ok) {
      for (int c = 0; c < n_cl && shape_ok; ++c) {
        const auto& xs = cert.xvar[static_cast<std::size_t>(c)];
        const auto& cs = cert.cand[static_cast<std::size_t>(c)];
        if (xs.size() != cs.size()) shape_ok = false;
        for (std::size_t j = 0; j < xs.size() && shape_ok; ++j) {
          const int v = xs[j];
          if (v < 0 || v >= num_vars ||
              var_cluster[static_cast<std::size_t>(v)] >= 0 || cs[j] < 0 ||
              cs[j] >= n_pairs) {
            shape_ok = false;
            break;
          }
          var_cluster[static_cast<std::size_t>(v)] = c;
          var_pair[static_cast<std::size_t>(v)] = cs[j];
          ++mapped;
        }
      }
      for (int r = 0; r < n_pairs && shape_ok; ++r) {
        const int v = cert.yvar[static_cast<std::size_t>(r)];
        if (v < 0 || v >= num_vars ||
            var_cluster[static_cast<std::size_t>(v)] >= 0 ||
            var_is_y[static_cast<std::size_t>(v)]) {
          shape_ok = false;
          break;
        }
        var_is_y[static_cast<std::size_t>(v)] = 1;
        var_pair[static_cast<std::size_t>(v)] = r;
        ++mapped;
      }
      if (mapped != num_vars) shape_ok = false;
    }
    if (!shape_ok) {
      problem("certificate index maps malformed");
      return false;
    }

    // Certificate cluster data must agree with our recomputation.
    bool cert_ok = true;
    auto cert_problem = [&](const std::string& msg) {
      problem(msg);
      cert_ok = false;
    };
    for (int c = 0; c < n_cl && cert_ok; ++c) {
      if (cert.cluster_w.size() != static_cast<std::size_t>(n_cl) ||
          cert.cluster_w[static_cast<std::size_t>(c)] !=
              cluster_w[static_cast<std::size_t>(global_cluster(c))]) {
        cert_problem("certificate cluster widths differ from recomputed widths");
      }
    }
    // Variable bounds and objective coefficients (the recomputed f_cr /
    // evict).
    for (int v = 0; v < num_vars && cert_ok; ++v) {
      if (model.lb(v) != 0.0 || model.ub(v) != 1.0) {
        cert_problem("model var " + std::to_string(v) + " not a 0/1 relaxation");
      }
    }
    for (int c = 0; c < n_cl && cert_ok; ++c) {
      const auto& xs = cert.xvar[static_cast<std::size_t>(c)];
      const auto& cs = cert.cand[static_cast<std::size_t>(c)];
      for (std::size_t j = 0; j < xs.size(); ++j) {
        const double f = cluster_cost_on_pair(global_cluster(c), pair_lo + cs[j]);
        if (!close_rel(model.obj(xs[j]), f, options.obj_rel_tol)) {
          cert_problem("model cost of cluster " +
                       std::to_string(global_cluster(c)) + " on pair " +
                       std::to_string(pair_lo + cs[j]) + " is " +
                       std::to_string(model.obj(xs[j])) + ", recomputed " +
                       std::to_string(f));
          break;
        }
      }
    }
    for (int r = 0; r < n_pairs && cert_ok; ++r) {
      if (!close_rel(model.obj(cert.yvar[static_cast<std::size_t>(r)]),
                     evict[static_cast<std::size_t>(pair_lo + r)],
                     options.obj_rel_tol)) {
        cert_problem("model eviction cost of pair " +
                     std::to_string(pair_lo + r) + " differs from recomputed");
      }
    }

    // Structural row classification: each row must be a well-formed Eq. 3, 4,
    // 5 row or a valid x_cr <= y_r linking cut (valid for every integral
    // point: y_r = 0 closes the pair via Eq. 4, forcing x_cr = 0).
    std::vector<char> eq3_seen(static_cast<std::size_t>(n_cl), 0);
    std::vector<char> eq4_seen(static_cast<std::size_t>(n_pairs), 0);
    int eq5_seen = 0;
    for (int ri = 0; ri < num_rows && cert_ok; ++ri) {
      const lp::Row& row = model.row(ri);
      const std::size_t sz = row.entries.size();
      const bool leads_with_y =
          sz > 0 && var_is_y[static_cast<std::size_t>(row.entries[0].var)];
      if (row.sense == lp::Sense::EQ && row.rhs == 1.0 && !leads_with_y) {
        // Eq. 3: all x vars of one cluster, coefficient 1.
        int c = -1;
        bool good = sz > 0;
        for (const lp::RowEntry& e : row.entries) {
          const int ec = var_cluster[static_cast<std::size_t>(e.var)];
          if (e.coef != 1.0 || ec < 0 || (c >= 0 && ec != c)) {
            good = false;
            break;
          }
          c = ec;
        }
        if (!good || c < 0 ||
            sz != cert.xvar[static_cast<std::size_t>(c)].size() ||
            eq3_seen[static_cast<std::size_t>(c)]) {
          cert_problem("row " + std::to_string(ri) + " is a malformed Eq. 3 row");
          break;
        }
        eq3_seen[static_cast<std::size_t>(c)] = 1;
      } else if (row.sense == lp::Sense::EQ && leads_with_y &&
                 row.rhs == static_cast<double>(quota)) {
        // Eq. 5: all y vars, coefficient 1.
        bool good = sz == static_cast<std::size_t>(n_pairs);
        for (const lp::RowEntry& e : row.entries) {
          if (e.coef != 1.0 || !var_is_y[static_cast<std::size_t>(e.var)]) {
            good = false;
            break;
          }
        }
        if (!good || eq5_seen++ > 0) {
          cert_problem("row " + std::to_string(ri) + " is a malformed Eq. 5 row");
          break;
        }
      } else if (row.sense == lp::Sense::LE && row.rhs == 0.0 && sz == 2 &&
                 var_is_y[static_cast<std::size_t>(row.entries[1].var)] &&
                 !var_is_y[static_cast<std::size_t>(row.entries[0].var)] &&
                 row.entries[0].coef == 1.0 && row.entries[1].coef == -1.0) {
        // Linking cut x_cr <= y_r (an Eq. 4 row with one x entry never has
        // these coefficients: its y coefficient is the negated capacity).
        if (var_pair[static_cast<std::size_t>(row.entries[0].var)] !=
            var_pair[static_cast<std::size_t>(row.entries[1].var)]) {
          cert_problem("row " + std::to_string(ri) + " is a malformed cut");
          break;
        }
      } else if (row.sense == lp::Sense::LE && row.rhs == 0.0) {
        // Eq. 4: w(c) on each x of pair r, -capacity on y_r.
        int r = -1;
        int y_entries = 0;
        bool good = sz > 0;
        for (const lp::RowEntry& e : row.entries) {
          if (var_is_y[static_cast<std::size_t>(e.var)]) {
            ++y_entries;
            r = var_pair[static_cast<std::size_t>(e.var)];
            if (e.coef != -static_cast<double>(pair_cap)) good = false;
          } else {
            const int c = var_cluster[static_cast<std::size_t>(e.var)];
            if (e.coef != static_cast<double>(cluster_w[static_cast<std::size_t>(
                              global_cluster(c))])) {
              good = false;
            }
          }
        }
        if (!good || y_entries != 1 || eq4_seen[static_cast<std::size_t>(r)]) {
          cert_problem("row " + std::to_string(ri) + " is a malformed Eq. 4 row");
          break;
        }
        // Every x entry must price this row's pair.
        for (const lp::RowEntry& e : row.entries) {
          if (!var_is_y[static_cast<std::size_t>(e.var)] &&
              var_pair[static_cast<std::size_t>(e.var)] != r) {
            cert_problem("row " + std::to_string(ri) +
                         " mixes pairs in an Eq. 4 row");
            break;
          }
        }
        if (!cert_ok) break;
        eq4_seen[static_cast<std::size_t>(r)] = 1;
      } else {
        cert_problem("row " + std::to_string(ri) + " unrecognized");
        break;
      }
    }
    if (cert_ok) {
      for (int c = 0; c < n_cl; ++c) {
        if (!eq3_seen[static_cast<std::size_t>(c)]) {
          cert_problem("Eq. 3 row missing for cluster " +
                       std::to_string(global_cluster(c)));
          break;
        }
      }
      for (int r = 0; cert_ok && r < n_pairs; ++r) {
        if (!eq4_seen[static_cast<std::size_t>(r)]) {
          cert_problem("Eq. 4 row missing for pair " +
                       std::to_string(pair_lo + r));
          break;
        }
      }
      if (cert_ok && eq5_seen != 1) cert_problem("Eq. 5 row missing");
    }
    if (!cert_ok) return false;

    // --- Lagrangian dual bound -----------------------------------------------
    // Two valid lower bounds from the same (clamped) duals; report the max.
    //
    // (a) Full dualization: y'b + min_{0<=x<=1} (c - A'y)'x over the box —
    //     equals the root LP optimum at an exact optimal basis.
    // (b) Partial dualization: dualize only the LE rows (Eq. 4 + linking
    //     cuts; their duals clamp to <= 0) and keep the Eq. 3 / Eq. 5
    //     structure in the subproblem, which then decomposes into "cheapest
    //     candidate per cluster" + "quota cheapest pair indicators".
    //     Dominates (a) for any fixed multipliers (it is the max over the
    //     dropped equality duals); at exact LP-optimal duals the two
    //     coincide (the subproblem polytope is integral — Geoffrion), so
    //     (b)'s value is robustness against dual noise, not extra strength.
    //
    // Clamping first means numerical noise in the duals can only weaken the
    // bounds, never invalidate them.
    std::vector<double> y = cert.duals;
    double box_bound = 0.0;
    for (int ri = 0; ri < num_rows; ++ri) {
      const lp::Row& row = model.row(ri);
      double& yi = y[static_cast<std::size_t>(ri)];
      if (row.sense == lp::Sense::LE) yi = std::min(yi, 0.0);
      if (row.sense == lp::Sense::GE) yi = std::max(yi, 0.0);
      box_bound += yi * row.rhs;
    }
    std::vector<double> reduced(static_cast<std::size_t>(num_vars), 0.0);
    std::vector<double> le_reduced(static_cast<std::size_t>(num_vars), 0.0);
    for (int v = 0; v < num_vars; ++v) {
      reduced[static_cast<std::size_t>(v)] = model.obj(v);
      le_reduced[static_cast<std::size_t>(v)] = model.obj(v);
    }
    double le_bound = 0.0;
    for (int ri = 0; ri < num_rows; ++ri) {
      const lp::Row& row = model.row(ri);
      const double yi = y[static_cast<std::size_t>(ri)];
      if (yi == 0.0) continue;
      for (const lp::RowEntry& e : row.entries) {
        reduced[static_cast<std::size_t>(e.var)] -= yi * e.coef;
        if (row.sense == lp::Sense::LE) {
          le_reduced[static_cast<std::size_t>(e.var)] -= yi * e.coef;
        }
      }
      if (row.sense == lp::Sense::LE) le_bound += yi * row.rhs;
    }
    for (int v = 0; v < num_vars; ++v) {
      const double d = reduced[static_cast<std::size_t>(v)];
      // Bounds are verified 0/1 above; the general form stays for clarity.
      box_bound += d > 0.0 ? d * model.lb(v) : d * model.ub(v);
    }
    for (int c = 0; c < n_cl; ++c) {
      double best = std::numeric_limits<double>::max();
      for (const int v : cert.xvar[static_cast<std::size_t>(c)]) {
        best = std::min(best, le_reduced[static_cast<std::size_t>(v)]);
      }
      le_bound += best;
    }
    double bound = box_bound;
    if (quota >= 1 && quota <= n_pairs) {
      std::vector<double> ycosts;
      ycosts.reserve(static_cast<std::size_t>(n_pairs));
      for (int r = 0; r < n_pairs; ++r) {
        ycosts.push_back(le_reduced[static_cast<std::size_t>(
            cert.yvar[static_cast<std::size_t>(r)])]);
      }
      std::nth_element(ycosts.begin(), ycosts.begin() + (quota - 1),
                       ycosts.end());
      for (int k = 0; k < quota; ++k) {
        le_bound += ycosts[static_cast<std::size_t>(k)];
      }
      bound = std::max(bound, le_bound);
    }
    *bound_out = bound;
    return true;
  };

  if (result.bands.empty()) {
    // --- whole-design certificate --------------------------------------------
    const rap::RapCertificate* cert = result.certificate.get();
    if (cert == nullptr) {
      if (options.require_certificate) problem("no dual certificate attached");
      return rep;
    }
    double bound = 0.0;
    rep.certificate_ok =
        check_certificate(*cert, nullptr, 0, nr, result.n_min_pairs, &bound);
    if (!rep.certificate_ok) return rep;
    rep.bound_available = true;
    rep.dual_bound = bound;
    if (bound > result.objective + 1e-6 * std::max(1.0, std::abs(bound))) {
      problem("dual bound " + std::to_string(bound) +
              " exceeds the reported objective " +
              std::to_string(result.objective) + " — certificate inconsistent");
      rep.bound_available = false;
      return rep;
    }
  } else {
    // --- sharded: per-band certificates, aggregated --------------------------
    // The bands must partition the pairs, the clusters and the Eq. 5 quota;
    // each band's certificate is checked against its own window and the
    // per-band dual bounds sum to a bound on the *decomposition* optimum.
    // Boundary repair may afterwards beat that optimum, so — unlike the
    // whole-design path — an objective below the aggregated bound is not an
    // inconsistency and the certified gap may be negative.
    int covered = 0;
    int quota_sum = 0;
    std::vector<char> routed(static_cast<std::size_t>(n_clusters), 0);
    bool partition_ok = true;
    for (const rap::RapBand& band : result.bands) {
      if (band.pair_lo != covered || band.pair_hi <= band.pair_lo ||
          band.pair_hi > nr) {
        partition_ok = false;
        break;
      }
      covered = band.pair_hi;
      quota_sum += band.n_min_pairs;
      for (int c : band.clusters) {
        if (c < 0 || c >= n_clusters || routed[static_cast<std::size_t>(c)]) {
          partition_ok = false;
          break;
        }
        routed[static_cast<std::size_t>(c)] = 1;
      }
      if (!partition_ok) break;
    }
    if (partition_ok) {
      for (int c = 0; c < n_clusters; ++c) {
        if (!routed[static_cast<std::size_t>(c)]) partition_ok = false;
      }
    }
    if (!partition_ok || covered != nr || quota_sum != result.n_min_pairs) {
      problem("band decomposition does not partition pairs/clusters/quota");
      rep.certificate_ok = false;
      return rep;
    }

    double bound_total = 0.0;
    bool all_ok = true;
    for (std::size_t b = 0; b < result.bands.size(); ++b) {
      const rap::RapBand& band = result.bands[b];
      const int n_pairs = band.pair_hi - band.pair_lo;
      if (band.clusters.empty()) {
        // Trivial band: its optimum is the quota cheapest eviction
        // surcharges in the window — recomputed here, no dual needed.
        std::vector<double> ecosts(
            evict.begin() + band.pair_lo, evict.begin() + band.pair_hi);
        const int q = std::clamp(band.n_min_pairs, 0, n_pairs);
        if (q > 0) {
          std::nth_element(ecosts.begin(), ecosts.begin() + (q - 1),
                           ecosts.end());
          for (int k = 0; k < q; ++k) {
            bound_total += ecosts[static_cast<std::size_t>(k)];
          }
        }
        continue;
      }
      if (band.certificate == nullptr) {
        if (options.require_certificate) {
          problem("band " + std::to_string(b) + " has no dual certificate");
        }
        return rep;  // no aggregate bound without every band's certificate
      }
      double band_bound = 0.0;
      if (!check_certificate(*band.certificate, &band.clusters, band.pair_lo,
                             n_pairs, band.n_min_pairs, &band_bound)) {
        all_ok = false;
        break;
      }
      bound_total += band_bound;
    }
    rep.certificate_ok = all_ok;
    if (!all_ok) return rep;
    rep.bound_available = true;
    rep.dual_bound = bound_total;
  }

  const double denom = std::max(std::abs(result.objective), 1.0);
  rep.certified_gap = (result.objective - rep.dual_bound) / denom;
  rep.gap_ok = rep.certified_gap <= rep.gap_window_used;
  if (!rep.gap_ok && result.status == ilp::Status::Optimal) {
    problem("certified gap " + std::to_string(rep.certified_gap) +
            " above window " + std::to_string(rep.gap_window_used));
  }
  return rep;
}

}  // namespace mth::verify
