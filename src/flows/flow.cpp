#include "mth/flows/flow.hpp"

#include <algorithm>
#include <cmath>

#include "mth/db/metrics.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/legal/polish.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/timer.hpp"
#include "mth/verify/certifier.hpp"
#include "mth/verify/checker.hpp"

namespace mth::flows {

const char* to_string(FlowId id) {
  switch (id) {
    case FlowId::F1: return "Flow(1)";
    case FlowId::F2: return "Flow(2)[10]";
    case FlowId::F3: return "Flow(3)";
    case FlowId::F4: return "Flow(4)[Ours]";
    case FlowId::F5: return "Flow(5)[Ours]";
  }
  return "?";
}

namespace {

/// FlowOptions::verify hook: grade a stage's output with the independent
/// placement oracle and abort the flow on any violation.
void verify_stage(const Design& design, const char* stage,
                  const RowAssignment* assignment, bool require_track_match) {
  verify::CheckOptions co;
  co.assignment = assignment;
  co.require_track_match = require_track_match;
  const verify::CheckReport rep = verify::check_placement(design, co);
  MTH_ASSERT(rep.ok(), std::string("verify[") + stage + "]: " + rep.summary());
}

/// Fraction of total cell area contributed by 7.5T masters.
double minority_area_fraction(const Design& d) {
  double total = 0.0, minority = 0.0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const double a = static_cast<double>(d.master_of(i).area());
    total += a;
    if (d.is_minority(i)) minority += a;
  }
  return total > 0.0 ? minority / total : 0.0;
}

/// The preparation tail both entry points share: mLEF transform (paper step
/// ii) and uniform floorplan, the initial placement under `place/global`,
/// detailed refinement under `place/refine`, the verify hook, the snapshot,
/// N_minR and the log line. `global_place` runs the analytic placer first
/// (synthetic cases); ingested designs start from their DEF positions.
void finish_prepare(PreparedCase& pc, const FlowOptions& opt,
                    bool global_place, const WallTimer& timer) {
  pc.mlef = std::make_shared<MlefTransform>(pc.original_library,
                                            minority_area_fraction(pc.initial));
  pc.mlef->to_mlef(pc.initial);
  place::build_uniform_floorplan(pc.initial, opt.utilization, opt.aspect_ratio);

  // Unconstrained initial placement (paper step iii), legalized onto the
  // fresh floorplan with minimum displacement.
  {
    MTH_SPAN("place/global");
    if (global_place) {
      place::GlobalPlaceOptions gp = opt.gp;
      gp.seed = opt.ctx.exec.seed;
      place::global_place(pc.initial, gp);
    }
    const auto ar = legal::abacus_legalize(pc.initial, {});
    MTH_ASSERT(ar.success, "prepare: initial legalization failed");
  }
  {
    // Detailed-placement refinement, as a commercial initial placement would
    // include (median pulls + swap polish, no row constraint). All flows
    // branch after this, so none gets an unfair head start.
    MTH_SPAN("place/refine");
    rap::RcLegalOptions dp_opt = opt.rclegal;
    dp_opt.enforce_assignment = false;
    const auto dp_res = rap::rc_legalize(
        pc.initial,
        RowAssignment::all_majority(pc.initial.floorplan.num_pairs()), dp_opt);
    MTH_ASSERT(dp_res.success, "prepare: detailed refinement failed");
    legal::swap_polish_converge(pc.initial);
  }

  if (opt.verify) verify_stage(pc.initial, "prepare", nullptr, false);

  pc.initial_positions = placement_snapshot(pc.initial);
  pc.n_min_pairs = baseline::auto_minority_pairs(
      pc.initial, *pc.original_library, opt.baseline.minority_row_fill);
  pc.prepare_seconds = timer.seconds();
  MTH_INFO << pc.spec.short_name << ": prepared "
           << (global_place ? "" : "external design, ")
           << pc.initial.netlist.num_instances() << " cells ("
           << pc.minority_cells << " minority), "
           << pc.initial.floorplan.num_pairs() << " row pairs, N_minR="
           << pc.n_min_pairs << " in " << pc.prepare_seconds << "s";
}

}  // namespace

PreparedCase prepare_case(const synth::TestcaseSpec& spec,
                          const FlowOptions& opt) {
  trace::SinkScope sink_scope(opt.ctx.sink);
  MTH_SPAN("flow/prepare");
  WallTimer timer;
  PreparedCase pc;
  pc.spec = spec;

  synth::GeneratorOptions gen = opt.gen;
  gen.scale = opt.scale;
  gen.seed = opt.ctx.exec.seed;
  pc.original_library = liberty::library_ref();

  {
    MTH_SPAN("synth/generate");
    auto synth_res = synth::generate_testcase(spec, pc.original_library, gen);
    pc.initial = std::move(synth_res.design);
  }
  pc.minority_cells = pc.initial.num_minority();
  finish_prepare(pc, opt, /*global_place=*/true, timer);
  return pc;
}

PreparedCase prepare_external_case(Design design, const FlowOptions& opt) {
  trace::SinkScope sink_scope(opt.ctx.sink);
  MTH_SPAN("flow/prepare");
  WallTimer timer;
  MTH_ASSERT(design.library != nullptr,
             "prepare_external: design carries no library");
  design.netlist.check(*design.library);

  PreparedCase pc;
  pc.spec.circuit = design.name;
  pc.spec.short_name = design.name;
  pc.spec.clock_ps = static_cast<int>(design.clock_ps);
  pc.spec.num_cells = design.netlist.num_instances();
  pc.spec.num_nets = design.netlist.num_nets();
  pc.original_library = design.library;
  pc.initial = std::move(design);
  pc.minority_cells = pc.initial.num_minority();
  if (pc.spec.num_cells > 0) {
    pc.spec.pct_75t =
        100.0 * pc.minority_cells / static_cast<double>(pc.spec.num_cells);
  }
  finish_prepare(pc, opt, /*global_place=*/false, timer);
  return pc;
}

void finalize_mixed(Design& design, const MlefTransform& mlef,
                    const RowAssignment& assignment) {
  const Floorplan old_fp = design.floorplan;
  MTH_ASSERT(assignment.num_pairs() == old_fp.num_pairs(),
             "finalize: assignment mismatch");

  // Remember which physical row each cell occupies.
  std::vector<int> row_of(static_cast<std::size_t>(design.netlist.num_instances()));
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    row_of[static_cast<std::size_t>(i)] =
        old_fp.row_at_y(design.netlist.instance(i).pos.y);
  }

  // Swap back to the original mixed-height library (paper step v).
  mlef.revert(design);
  const Tech& tech = design.library->tech();

  // Mixed floorplan: same pair count/order, real heights.
  std::vector<TrackHeight> pair_th(static_cast<std::size_t>(old_fp.num_pairs()));
  for (int p = 0; p < old_fp.num_pairs(); ++p) {
    pair_th[static_cast<std::size_t>(p)] = assignment.is_minority_pair(p)
                                               ? TrackHeight::H75T
                                               : TrackHeight::H6T;
  }
  const Dbu old_height = old_fp.core().height();
  design.floorplan = Floorplan::make_mixed(
      Rect{{old_fp.core().lo.x, 0}, {old_fp.core().hi.x, 1}},
      old_fp.core().lo.y, pair_th, tech, old_fp.site_width());
  const Floorplan& fp = design.floorplan;

  // Rescale boundary port y coordinates into the new core height.
  const Dbu new_height = fp.core().height();
  for (PortId p = 0; p < design.netlist.num_ports(); ++p) {
    Point& pos = design.netlist.port(p).pos;
    if (pos.y > fp.core().lo.y) {
      const double f = static_cast<double>(pos.y - old_fp.core().lo.y) /
                       static_cast<double>(old_height);
      pos.y = fp.core().lo.y +
              static_cast<Dbu>(std::llround(f * static_cast<double>(new_height)));
    }
  }

  // Drop every cell into the same physical row index of the new floorplan.
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    Instance& inst = design.netlist.instance(i);
    const Row& row = fp.row(row_of[static_cast<std::size_t>(i)]);
    inst.pos.y = row.y;
    inst.pos.x = std::clamp(inst.pos.x, row.x0, row.x1 - design.master_of(i).width);
  }

  // Track-height-aware Abacus absorbs the mLEF->original width changes.
  legal::AbacusOptions aopt;
  aopt.respect_track_height = true;
  const auto ar = legal::abacus_legalize(design, aopt);
  MTH_ASSERT(ar.success, "finalize: mixed-height legalization failed");
}

FlowOutput run_flow(const PreparedCase& pc, FlowId flow,
                    const FlowOptions& opt, bool with_route,
                    bool capture_design) {
  trace::SinkScope sink_scope(opt.ctx.sink);
  MTH_SPAN("flow/run");
  FlowOutput out;
  FlowResult& res = out.result;
  res.flow = flow;
  res.testcase = pc.spec.short_name;
  res.n_min_pairs = pc.n_min_pairs;

  Design design = pc.initial;  // branch from the shared initial placement
  WallTimer total;

  RowAssignment assignment = RowAssignment::all_majority(design.floorplan.num_pairs());

  if (flow != FlowId::F1) {
    // --- row assignment -----------------------------------------------------
    WallTimer t_assign;
    std::vector<InstId> bound_cells;
    std::vector<int> bound_pairs;
    {
      MTH_SPAN("flow/assign");
      if (flow == FlowId::F2 || flow == FlowId::F3) {
        MTH_SPAN("baseline/assign");
        baseline::KmeansAssignment ka =
            baseline::assign_rows_kmeans(design, pc.n_min_pairs, opt.baseline);
        assignment = std::move(ka.rows);
        bound_cells = std::move(ka.minority_cells);
        bound_pairs = std::move(ka.cell_pair);
      } else {
        if (pc.rap_cache == nullptr) {
          rap::RapOptions ro = opt.rap;
          ro.n_min_pairs = pc.n_min_pairs;
          ro.width_library = pc.original_library.get();
          if (ro.ctx.exec.num_threads < 0) {
            ro.ctx.exec.num_threads = opt.ctx.exec.num_threads;
          }
          pc.rap_cache = std::make_shared<const rap::RapResult>(
              rap::solve_rap(design, ro));
        }
        const rap::RapResult& rr = *pc.rap_cache;
        if (opt.verify) {
          rap::RapOptions ro = opt.rap;
          ro.n_min_pairs = pc.n_min_pairs;
          ro.width_library = pc.original_library.get();
          const verify::CertifyReport cr =
              verify::certify_rap(design, rr, ro, opt.certify);
          MTH_ASSERT(cr.ok(), "verify[rap]: " + cr.summary());
        }
        assignment = rr.assignment;
        res.num_clusters = rr.num_clusters;
        res.ilp_seconds = rr.ilp_seconds;
        res.cluster_seconds = rr.cluster_seconds;
        res.ilp_status = rr.status;
        bound_cells = rr.minority_cells;
        bound_pairs.resize(bound_cells.size());
        for (std::size_t k = 0; k < bound_cells.size(); ++k) {
          bound_pairs[k] =
              rr.cluster_pair[static_cast<std::size_t>(rr.cluster_of[k])];
        }
        // On a cache hit report the original solve time (both flows "ran"
        // it).
        res.assign_seconds =
            rr.cluster_seconds + rr.cost_seconds + rr.ilp_seconds;
      }
    }
    if (res.assign_seconds == 0.0) res.assign_seconds = t_assign.seconds();

    // --- row-constraint legalization -----------------------------------------
    WallTimer t_legal;
    {
      MTH_SPAN("flow/legalize");
      if (flow == FlowId::F2 || flow == FlowId::F4) {
        // Previous work's legalization: displacement-minimizing Abacus seeded
        // by the cluster -> row binding.
        MTH_SPAN("legal/baseline");
        const auto ar = baseline::legalize_with_assignment(
            design, assignment, &bound_cells, &bound_pairs);
        MTH_ASSERT(ar.success, "flow: baseline legalization failed");
      } else {
        // Proposed fence-region legalization (free assignment within fences).
        const auto rr = rap::rc_legalize(design, assignment, opt.rclegal);
        MTH_ASSERT(rr.success, "flow: rc legalization failed");
      }
    }
    res.legal_seconds = t_legal.seconds();
    if (opt.verify) verify_stage(design, "legalize", &assignment, false);
  }

  // --- post-placement metrics (mLEF space; Table IV) -------------------------
  {
    MTH_SPAN("flow/metrics");
    res.displacement = total_displacement(design, pc.initial_positions,
                                          opt.ctx.exec.num_threads);
    res.hpwl = total_hpwl(design, opt.ctx.exec.num_threads);
  }
  // Table IV total runtime = row assignment + legalization (the cached RAP
  // contributes its original solve time; wall clock otherwise).
  res.total_seconds =
      std::max(total.seconds(), res.assign_seconds + res.legal_seconds);

  // --- finalize + post-route (Table V; routing time not part of Table IV) -----
  if (with_route) {
    if (flow != FlowId::F1) {
      MTH_SPAN("flow/finalize");
      finalize_mixed(design, *pc.mlef, assignment);
      if (opt.verify) verify_stage(design, "finalize", &assignment, true);
    }
    const route::RouteResult routes = route_design(design, opt.router);
    res.post.routed_wl = routes.total_wirelength;
    res.post.overflowed_edges = routes.overflowed_edges;
    res.post.timing = timing::analyze(design, &routes, opt.sta);
    res.post.cts = cts::build_clock_tree(design);
    res.routed = true;
  }
  if (capture_design) out.design = std::move(design);
  return out;
}

}  // namespace mth::flows
