// Repository benchmark driver: runs one workload of the placement flow for
// a fixed measuring time and prints its metrics.
//
//   mth_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scale-factor <f>] [--spans <path>]
//
// --trace 0 times the product path untraced: flows::prepare_case (set-up,
// repeated kSetupReps times) and then flows::run_flow repetitions until the
// measuring time is spent. --trace 1 replays the same flow layer by layer,
// wrapping each layer's public function in a span recorded here, alternates
// those traced repetitions with untraced run_flow calls (for the tracing
// overhead), runs a few stand-alone layer probes on the same inputs and
// writes the spans as JSON. Every repetition's output is checked outside the
// timed region; a failed check makes the run exit nonzero.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mth/baseline/linchang.hpp"
#include "mth/cluster/kmeans.hpp"
#include "mth/cts/htree.hpp"
#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/legal/polish.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/place/placer.hpp"
#include "mth/rap/rap.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/route/router.hpp"
#include "mth/synth/testcases.hpp"
#include "mth/timing/sta.hpp"
#include "mth/util/log.hpp"
#include "mth/util/simd.hpp"
#include "mth/verify/certifier.hpp"
#include "mth/verify/checker.hpp"

namespace {

using namespace mth;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kSetupReps = 3;      // prepare_case calls per untraced run
constexpr double kDbuPerUm = 1000.0;  // 1 dbu == 1 nm

/// Every workload times one fixed design. Run time and QoR move by tens of
/// percent between generated designs of equal size (flow_s by 45 % and
/// total displacement by 60 % of the median, IQR over five generator seeds
/// of des3_250 at scale 0.3), so the timed design does not depend on --seed.
/// The seed generates a smaller design instead, which every run puts through
/// the same flow and output checks (seeded_check).
constexpr std::uint64_t kDesignSeed = 1;
constexpr double kSeededScale = 0.1;  // seeded design scale, share of the workload's

int bench_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hc == 0 ? 1u : hc));
}

struct Workload {
  const char* name;
  const char* testcase;
  double scale;
  flows::FlowId flow;
  int shards;     // RapOptions::shards
  int max_nodes;  // ilp::Options::max_nodes (the ILP has no deadline); 0 = no RAP
  bool route;     // run_flow with finalize + route + STA + CTS
};

constexpr Workload kWorkloads[] = {
    {"f5_whole", "des3_250", 0.3, flows::FlowId::F5, 1, 50, false},
    {"f5_sharded", "nova_300", 0.5, flows::FlowId::F5, 0, 200, false},
    {"f2_route", "des3_250", 0.3, flows::FlowId::F2, 1, 0, true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale_factor = 1.0;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "mth_perfbench: %s\nusage: mth_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale-factor <f>] "
               "[--spans <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scale-factor") a.scale_factor = std::stod(v);
    else if (k == "--spans") a.spans_path = v;
    else usage("unknown option " + k);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || !(a.scale_factor > 0.0)) usage("bad --seconds/--scale-factor");
  return a;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest by call order (one
/// thread records them), so a span's self time is its duration minus the
/// durations of its direct children.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int rep = 0;
  };

  explicit Tracer(std::string workload)
      : workload_(std::move(workload)), t0_(Clock::now()) {}

  /// Run `f` inside a span named `name` for repetition `rep`.
  template <class F>
  decltype(auto) span(const char* name, int rep, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, since(t0_), 0.0, stack_.empty() ? -1 : stack_.back(), rep});
    stack_.push_back(id);
    struct Close {
      Tracer& t;
      int id;
      ~Close() {
        t.spans_[static_cast<std::size_t>(id)].end = since(t.t0_);
        t.stack_.pop_back();
      }
    } close{*this, id};
    return f();
  }

  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  /// Median over repetitions of the summed duration of spans named `name`
  /// (self time when `self`); 0 when no such span was recorded.
  double median_of(const std::string& name, bool self = false) const {
    const std::vector<double> st = self_times();
    std::map<int, double> per_rep;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      per_rep[spans_[i].rep] += self ? st[i] : spans_[i].end - spans_[i].start;
    }
    std::vector<double> v;
    for (const auto& [rep, d] : per_rep) v.push_back(d);
    return median(v);
  }

  void write_json(const std::string& path, std::uint64_t seed) const {
    std::ofstream os(path);
    require(static_cast<bool>(os), "cannot write spans to " + path);
    const std::vector<double> st = self_times();
    char buf[512];
    os << "{\"workload\": \"" << workload_ << "\", \"seed\": " << seed << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %d, "
                    "\"workload\": \"%s\", \"rep\": %d}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end, st[i],
                    s.parent, workload_.c_str(), s.rep);
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  std::string workload_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Calls `f` directly when no tracer is given, inside a span otherwise.
template <class F>
decltype(auto) timed(Tracer* tr, const char* name, int rep, F&& f) {
  if (tr == nullptr) return f();
  return tr->span(name, rep, std::forward<F>(f));
}

// --- one run's state -----------------------------------------------------------

/// Quality of one flow repetition; must repeat bit-exactly across repetitions.
struct Qor {
  double hpwl_um = 0.0;
  double disp_um = 0.0;
  double rap_obj = 0.0;
  double ilp_gap = 0.0;
  double routed_wl_um = 0.0;
  int overflow_edges = 0;
  bool operator==(const Qor&) const = default;
};

/// Everything one flow repetition produced that the checks and metrics read.
struct RepOutput {
  Design design;
  RowAssignment assignment;
  std::shared_ptr<const rap::RapResult> rap;  // f5 workloads only
  Qor qor;
};

class Bench {
 public:
  Bench(const Workload& w, double scale, std::uint64_t seed) : w_(w) {
    const int threads = bench_threads();
    spec_ = synth::spec_by_name(w.testcase);
    opt_.scale = scale;
    opt_.ctx.exec.seed = seed;
    opt_.ctx.exec.num_threads = threads;
    opt_.rap.shards = w.shards;
    opt_.rap.ctx.exec.num_threads = threads;
    opt_.rap.ilp.time_limit_s = std::numeric_limits<double>::infinity();
    if (w.max_nodes > 0) opt_.rap.ilp.max_nodes = w.max_nodes;
  }

  bool is_rap() const { return w_.flow == flows::FlowId::F5; }

  /// The product's set-up path, untraced.
  flows::PreparedCase prepare() const { return flows::prepare_case(spec_, opt_); }

  /// prepare_case replayed stage by stage under spans (same inputs, same
  /// calls, same order), so each stage's time can be read from outside.
  flows::PreparedCase prepare_traced(Tracer& tr) const {
    return tr.span("setup", 0, [&] {
      flows::PreparedCase pc;
      pc.spec = spec_;
      pc.original_library = liberty::library_ref();
      synth::GeneratorOptions gen = opt_.gen;
      gen.scale = opt_.scale;
      gen.seed = opt_.ctx.exec.seed;
      pc.initial = tr.span("synth.generate", 0, [&] {
        return synth::generate_testcase(spec_, pc.original_library, gen).design;
      });
      pc.minority_cells = pc.initial.num_minority();
      tr.span("db.mlef", 0, [&] {
        pc.mlef = std::make_shared<MlefTransform>(pc.original_library,
                                                  minority_area_fraction(pc.initial));
        pc.mlef->to_mlef(pc.initial);
        place::build_uniform_floorplan(pc.initial, opt_.utilization, opt_.aspect_ratio);
      });
      tr.span("place.global", 0, [&] {
        place::GlobalPlaceOptions gp = opt_.gp;
        gp.seed = opt_.ctx.exec.seed;
        place::global_place(pc.initial, gp);
      });
      tr.span("place.abacus", 0, [&] {
        require(legal::abacus_legalize(pc.initial, {}).success, "setup: abacus failed");
      });
      tr.span("place.refine", 0, [&] {
        rap::RcLegalOptions dp = opt_.rclegal;
        dp.enforce_assignment = false;
        require(rap::rc_legalize(pc.initial,
                                 RowAssignment::all_majority(pc.initial.floorplan.num_pairs()),
                                 dp)
                    .success,
                "setup: refinement failed");
        legal::swap_polish_converge(pc.initial);
      });
      pc.initial_positions = placement_snapshot(pc.initial);
      pc.n_min_pairs = baseline::auto_minority_pairs(pc.initial, *pc.original_library,
                                                      opt_.baseline.minority_row_fill);
      return pc;
    });
  }

  /// One untraced product-path repetition; returns its wall time. The RAP
  /// cache is cleared so every repetition solves the RAP again.
  double run_untraced(const flows::PreparedCase& pc, RepOutput& out) const {
    pc.rap_cache.reset();
    const Clock::time_point t0 = Clock::now();
    flows::FlowOutput fo = flows::run_flow(pc, w_.flow, opt_, w_.route, true);
    const double wall = since(t0);
    out.design = std::move(*fo.design);
    out.rap = pc.rap_cache;
    out.assignment = out.rap ? out.rap->assignment : baseline_assignment(pc);
    const flows::FlowResult& r = fo.result;
    out.qor = qor_of(r.hpwl, r.displacement, out.rap.get(), r.post.routed_wl,
                     r.post.overflowed_edges);
    return wall;
  }

  /// run_flow replayed layer by layer under spans; returns its wall time.
  double run_traced(const flows::PreparedCase& pc, Tracer& tr, int rep,
                    RepOutput& out) const {
    const Clock::time_point t0 = Clock::now();
    Dbu routed_wl = 0;
    int overflow = 0;
    Dbu hpwl = 0, disp = 0;
    tr.span("flow", rep, [&] {
      Design design = pc.initial;
      std::vector<InstId> cells;
      std::vector<int> pairs;
      if (is_rap()) {
        const rap::RapOptions ro = rap_options(pc);
        out.rap = std::make_shared<const rap::RapResult>(
            tr.span("rap.solve", rep, [&] { return rap::solve_rap_sharded(design, ro); }));
        out.assignment = out.rap->assignment;
        tr.span("legal.rc", rep, [&] {
          require(rap::rc_legalize(design, out.assignment, opt_.rclegal).success,
                  "flow: rc legalization failed");
        });
      } else {
        tr.span("baseline.assign", rep, [&] {
          baseline::KmeansAssignment ka =
              baseline::assign_rows_kmeans(design, pc.n_min_pairs, opt_.baseline);
          out.assignment = std::move(ka.rows);
          cells = std::move(ka.minority_cells);
          pairs = std::move(ka.cell_pair);
        });
        tr.span("legal.baseline", rep, [&] {
          require(baseline::legalize_with_assignment(design, out.assignment, &cells, &pairs)
                      .success,
                  "flow: baseline legalization failed");
        });
      }
      tr.span("db.metrics", rep, [&] {
        disp = total_displacement(design, pc.initial_positions, opt_.ctx.exec.num_threads);
        hpwl = total_hpwl(design, opt_.ctx.exec.num_threads);
      });
      if (w_.route) {
        tr.span("legal.finalize", rep,
                [&] { flows::finalize_mixed(design, *pc.mlef, out.assignment); });
        const route::RouteResult routes =
            tr.span("route.global", rep, [&] { return route::route_design(design, opt_.router); });
        routed_wl = routes.total_wirelength;
        overflow = routes.overflowed_edges;
        tr.span("timing.sta", rep, [&] { return timing::analyze(design, &routes, opt_.sta); });
        tr.span("cts.build", rep, [&] { return cts::build_clock_tree(design); });
      }
      out.design = std::move(design);
    });
    const double wall = since(t0);
    out.qor = qor_of(hpwl, disp, out.rap.get(), routed_wl, overflow);
    return wall;
  }

  /// Output checks, outside the timed region: placement legality with the
  /// flow's assignment (mixed space with the track check after routing
  /// flows), RAP certification on the RAP workloads. Returns the problems.
  std::vector<std::string> check(const flows::PreparedCase& pc, const RepOutput& out,
                                 Tracer* tr, int rep) const {
    std::vector<std::string> problems;
    verify::CheckOptions co;
    co.assignment = &out.assignment;
    co.require_track_match = w_.route;
    const verify::CheckReport cr = timed(tr, "verify.check", rep, [&] {
      return verify::check_placement(out.design, co);
    });
    if (!cr.ok()) problems.push_back("placement: " + cr.summary());
    if (is_rap()) {
      const verify::CertifyReport rr = timed(tr, "verify.certify", rep, [&] {
        return verify::certify_rap(pc.initial, *out.rap, rap_options(pc), opt_.certify);
      });
      if (!rr.ok()) problems.push_back("rap certificate: " + rr.summary());
    }
    return problems;
  }

  rap::RapOptions rap_options(const flows::PreparedCase& pc) const {
    rap::RapOptions ro = opt_.rap;
    ro.n_min_pairs = pc.n_min_pairs;
    ro.width_library = pc.original_library.get();
    return ro;
  }

  const flows::FlowOptions& options() const { return opt_; }

 private:
  static double minority_area_fraction(const Design& d) {
    double total = 0.0, minority = 0.0;
    for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
      const double a = static_cast<double>(d.master_of(i).area());
      total += a;
      if (d.is_minority(i)) minority += a;
    }
    return total > 0.0 ? minority / total : 0.0;
  }

  /// Flow 2's row assignment, replayed on the prepared input outside the
  /// timed region (run_flow does not return it).
  RowAssignment baseline_assignment(const flows::PreparedCase& pc) const {
    return baseline::assign_rows_kmeans(pc.initial, pc.n_min_pairs, opt_.baseline).rows;
  }

  static Qor qor_of(Dbu hpwl, Dbu disp, const rap::RapResult* rr, Dbu routed_wl,
                    int overflow) {
    Qor q;
    q.hpwl_um = static_cast<double>(hpwl) / kDbuPerUm;
    q.disp_um = static_cast<double>(disp) / kDbuPerUm;
    if (rr != nullptr) {
      q.rap_obj = rr->objective;
      q.ilp_gap = rr->gap;
    }
    q.routed_wl_um = static_cast<double>(routed_wl) / kDbuPerUm;
    q.overflow_edges = overflow;
    return q;
  }

  const Workload& w_;
  synth::TestcaseSpec spec_;
  flows::FlowOptions opt_;
};

// --- metrics output ---------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

void print_result(bool correct, int attempted, int failed, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Repetition bookkeeping shared by both modes.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::optional<Qor> first;

  void record(const std::vector<std::string>& problems, const Qor& q, int rep) {
    ++attempted;
    std::vector<std::string> all = problems;
    if (!first) first = q;
    else if (!(q == *first)) all.push_back("QoR differs from repetition 1");
    if (all.empty()) return;
    ++failed;
    for (const std::string& p : all) std::printf("FAIL rep %d: %s\n", rep, p.c_str());
  }
  void record_exception(const std::exception& e, int rep) {
    ++attempted;
    ++failed;
    std::printf("FAIL rep %d: exception: %s\n", rep, e.what());
  }
};

/// Puts a design generated from the run's seed through the workload's flow
/// twice, with the same output checks as the timed repetitions. Adds its
/// repetitions to `tally`'s counts.
void seeded_check(const Workload& w, std::uint64_t seed, Tally& tally) {
  const Bench b(w, w.scale * kSeededScale, seed);
  Tally t;
  try {
    const flows::PreparedCase pc = b.prepare();
    for (int rep = 1; rep <= 2; ++rep) {
      RepOutput out;
      b.run_untraced(pc, out);
      t.record(b.check(pc, out, nullptr, rep), out.qor, rep);
    }
    std::printf("seeded check: seed=%llu cells=%d, %d of %d repetitions failed\n",
                static_cast<unsigned long long>(seed), pc.initial.netlist.num_instances(),
                t.failed, t.attempted);
  } catch (const std::exception& e) {
    t.record_exception(e, 0);
  }
  tally.attempted += t.attempted;
  tally.failed += t.failed;
}

void print_qor(const Qor& q, bool rap, bool route) {
  std::printf("hpwl_um = %.17g um\n", q.hpwl_um);
  std::printf("disp_um = %.17g um\n", q.disp_um);
  if (rap) {
    std::printf("rap_obj = %.17g dbu\n", q.rap_obj);
    std::printf("ilp_gap = %.17g ratio\n", q.ilp_gap);
  } else {
    std::printf("rap_obj = n/a (no RAP solve in this flow)\n");
    std::printf("ilp_gap = n/a (no RAP solve in this flow)\n");
  }
  if (route) {
    std::printf("routed_wl_um = %.17g um\n", q.routed_wl_um);
    std::printf("overflow_edges = %d count\n", q.overflow_edges);
  } else {
    std::printf("routed_wl_um = n/a (flow is not routed)\n");
    std::printf("overflow_edges = n/a (flow is not routed)\n");
  }
}

/// 1 when a sharded solve was asked for but the RAP ran whole-design.
int shard_fallback(const Workload& w, const rap::RapResult& rr) {
  return w.shards != 1 && rr.bands.empty() ? 1 : 0;
}

/// Counts showing the workload still exercises what it was chosen for.
void print_shape(const Workload& w, const rap::RapResult* rr, const Qor& q) {
  if (rr == nullptr) {
    std::printf("shape: route.overflow_edges=%d (route.global_s share: --trace 1)\n",
                q.overflow_edges);
    return;
  }
  const int bands = static_cast<int>(rr->bands.size());
  const int fallback = shard_fallback(w, *rr);
  std::printf("shape: rap.bands=%d rap.shard_fallback=%d lp.iterations=%d ilp.nodes=%d\n",
              bands, fallback, rr->lp_iterations, rr->ilp_nodes);
  if (w.shards != 1 && (bands < 2 || fallback != 0)) {
    std::printf("WARN shape: %s expects rap.bands >= 2 and no shard fallback\n", w.name);
  }
}

// --- the two modes ------------------------------------------------------------------

int measure_untraced(const Workload& w, const Args& a, const Bench& b) {
  std::vector<double> setup_s;
  std::vector<Point> first_positions;
  std::optional<flows::PreparedCase> pc;
  bool setup_ok = true;
  for (int i = 0; i < kSetupReps; ++i) {
    pc.reset();  // one prepared case alive at a time
    const Clock::time_point t0 = Clock::now();
    flows::PreparedCase p = b.prepare();
    setup_s.push_back(since(t0));
    if (i == 0) {
      std::printf("design: %s scale=%.4g design_seed=%llu cells=%d minority=%d pairs=%d "
                  "n_min_pairs=%d\n",
                  w.testcase, b.options().scale,
                  static_cast<unsigned long long>(kDesignSeed), p.initial.netlist.num_instances(),
                  p.minority_cells, p.initial.floorplan.num_pairs(), p.n_min_pairs);
    } else if (p.initial_positions != first_positions) {
      setup_ok = false;
      std::printf("FAIL setup %d: initial placement differs from set-up 1\n", i + 1);
    }
    if (i == 0) first_positions = p.initial_positions;
    pc.emplace(std::move(p));
  }

  Tally tally;
  std::vector<double> flow_s;
  std::shared_ptr<const rap::RapResult> last_rap;
  const Clock::time_point start = Clock::now();
  for (int rep = 1; rep == 1 || since(start) < a.seconds; ++rep) {
    try {
      RepOutput out;
      flow_s.push_back(b.run_untraced(*pc, out));
      tally.record(b.check(*pc, out, nullptr, rep), out.qor, rep);
      last_rap = out.rap;
    } catch (const std::exception& e) {
      tally.record_exception(e, rep);
    }
  }

  seeded_check(w, a.seed, tally);
  const double rss = peak_rss_mb();
  std::printf("setup_s = %.6f s (median of %d; min %.6f max %.6f)\n", median(setup_s),
              kSetupReps, *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  if (!flow_s.empty()) {
    std::printf("flow_s = %.6f s (median of %zu; min %.6f max %.6f)\n", median(flow_s),
                flow_s.size(), *std::min_element(flow_s.begin(), flow_s.end()),
                *std::max_element(flow_s.begin(), flow_s.end()));
  }
  if (tally.first) print_qor(*tally.first, b.is_rap(), w.route);
  std::printf("peak_rss_mb = %.3f MB\n", rss);
  std::printf("fail_rate = %.6g (%d of %d repetitions failed)\n",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 1.0,
              tally.failed, tally.attempted);
  if (tally.first) print_shape(w, last_rap.get(), *tally.first);

  Metrics m;
  m.add("setup_s", median(setup_s), "s");
  m.add("flow_s", median(flow_s), "s");
  m.add("hpwl_um", tally.first ? tally.first->hpwl_um : 0.0, "um");
  m.add("disp_um", tally.first ? tally.first->disp_um : 0.0, "um");
  m.add("peak_rss_mb", rss, "MB");
  const bool correct = setup_ok && tally.failed == 0 && tally.first.has_value();
  print_result(correct, std::max(tally.attempted, 1), tally.failed, m);
  return correct ? 0 : 1;
}

/// Stand-alone layer probes on the traced run's inputs, outside the flow:
/// RAP preparation, the 2-D k-means it runs, the 1-D k-means warm starts the
/// ILP stage ran, and a cold LP solve of the exported root model.
std::vector<std::string> run_probes(const Bench& b, const flows::PreparedCase& pc,
                                    const rap::RapResult& rr, Tracer& tr, Metrics& m) {
  std::vector<std::string> problems;
  const rap::RapOptions ro = b.rap_options(pc);
  const rap::detail::PreparedRap prep =
      tr.span("rap.prepare", 0, [&] { return rap::detail::prepare_rap(pc.initial, ro); });
  if (prep.n_clusters != rr.num_clusters) problems.push_back("probe: cluster count differs");

  const int n_min_c = static_cast<int>(prep.minority_cells.size());
  std::vector<Point> centers;
  for (InstId i : prep.minority_cells) {
    const Instance& inst = pc.initial.netlist.instance(i);
    const CellMaster& cm = pc.initial.master_of(i);
    centers.push_back({inst.pos.x + cm.width / 2, inst.pos.y + cm.height / 2});
  }
  cluster::KMeansOptions ko;
  ko.max_iterations = ro.kmeans_max_iterations;
  ko.exec = ro.ctx.exec;
  const cluster::KMeansResult km2 = tr.span(
      "cluster.kmeans2d", 0, [&] { return cluster::kmeans_2d(centers, prep.n_clusters, ko); });
  if (prep.n_clusters < n_min_c && km2.assignment != prep.cluster_of) {
    problems.push_back("probe: k-means replay differs from the RAP clustering");
  }
  m.add("cluster.kmeans_iters", km2.iterations, "count");

  // The 1-D warm starts: one per whole-design solve, one per band otherwise,
  // each over the member ys in the order the band subproblem holds them.
  std::vector<std::pair<std::vector<Dbu>, int>> calls;
  if (rr.bands.empty()) {
    calls.emplace_back(prep.member_ys, prep.n_min_pairs);
  } else {
    std::vector<std::vector<Dbu>> ys_of(static_cast<std::size_t>(prep.n_clusters));
    for (std::size_t k = 0; k < prep.member_ys.size(); ++k) {
      ys_of[static_cast<std::size_t>(prep.cluster_of[k])].push_back(prep.member_ys[k]);
    }
    for (const rap::RapBand& band : rr.bands) {
      std::vector<Dbu> ys;
      for (int c : band.clusters) {
        ys.insert(ys.end(), ys_of[static_cast<std::size_t>(c)].begin(),
                  ys_of[static_cast<std::size_t>(c)].end());
      }
      calls.emplace_back(std::move(ys), band.n_min_pairs);
    }
  }
  tr.span("cluster.kmeans1d", 0, [&] {
    for (const auto& [ys, quota] : calls) {
      const int k = std::min(quota, static_cast<int>(ys.size()));
      if (k > 0) cluster::kmeans_1d(ys, k);
    }
  });

  // Cold root LP: the whole-design certificate, or the largest band's.
  const rap::RapCertificate* cert = rr.certificate.get();
  for (const rap::RapBand& band : rr.bands) {
    if (band.certificate &&
        (cert == nullptr || band.certificate->model.num_rows() > cert->model.num_rows())) {
      cert = band.certificate.get();
    }
  }
  int root_iters = 0;
  if (cert == nullptr) {
    problems.push_back("probe: no RAP certificate to solve");
  } else {
    const lp::Result lr =
        tr.span("lp.root_cold", 0, [&] { return lp::solve(cert->model, ro.ilp.lp); });
    root_iters = lr.iterations;
    const double tol = 1e-6 * std::max(1.0, std::abs(cert->root_lp_objective));
    if (lr.status != lp::Status::Optimal ||
        std::abs(lr.objective - cert->root_lp_objective) > tol) {
      problems.push_back("probe: cold root LP does not reproduce the certificate objective");
    }
  }
  const double root_s = tr.median_of("lp.root_cold");
  m.add("lp.root_cold_s", root_s, "s");
  m.add("lp.root_cold_iters", root_iters, "count");
  m.add("lp.s_per_iter", root_iters > 0 ? root_s / root_iters : 0.0, "s");
  return problems;
}

int measure_traced(const Workload& w, const Args& a, const Bench& b) {
  Tracer tr(w.name);
  bool ok = true;
  const flows::PreparedCase pc = b.prepare();
  {
    const flows::PreparedCase replay = b.prepare_traced(tr);
    if (replay.initial_positions != pc.initial_positions ||
        replay.n_min_pairs != pc.n_min_pairs) {
      ok = false;
      std::printf("FAIL setup: traced replay differs from prepare_case\n");
    }
  }

  // Untraced and traced repetitions alternate, so drift hits both alike.
  Tally tally;
  std::vector<double> untraced_s, traced_s;
  std::optional<RepOutput> last;
  const Clock::time_point start = Clock::now();
  for (int rep = 1; rep <= 2 || since(start) < a.seconds; ++rep) {
    const bool traced = rep % 2 == 0;
    try {
      RepOutput out;
      if (traced) traced_s.push_back(b.run_traced(pc, tr, rep, out));
      else untraced_s.push_back(b.run_untraced(pc, out));
      tally.record(b.check(pc, out, traced ? &tr : nullptr, rep), out.qor, rep);
      if (traced) last = std::move(out);
    } catch (const std::exception& e) {
      tally.record_exception(e, rep);
    }
  }

  seeded_check(w, a.seed, tally);
  Metrics m;
  const rap::RapResult* rr = last && last->rap ? last->rap.get() : nullptr;
  if (rr != nullptr) {
    try {
      for (const std::string& p : run_probes(b, pc, *rr, tr, m)) {
        ok = false;
        std::printf("FAIL %s\n", p.c_str());
      }
    } catch (const std::exception& e) {
      ok = false;
      std::printf("FAIL probe: exception: %s\n", e.what());
    }
  } else {
    m.add("cluster.kmeans_iters", 0, "count");
    m.add("lp.root_cold_s", 0, "s");
    m.add("lp.root_cold_iters", 0, "count");
    m.add("lp.s_per_iter", 0, "s");
  }
  if (!a.spans_path.empty()) tr.write_json(a.spans_path, a.seed);

  const double flow_traced = median(traced_s);
  const auto s = [&](const char* span) { return tr.median_of(span); };
  m.add("rap.solve_s", s("rap.solve"), "s");
  m.add("ilp.nodes", rr ? rr->ilp_nodes : 0, "count");
  m.add("lp.iterations", rr ? rr->lp_iterations : 0, "count");
  m.add("lp.warm_hits", rr ? rr->basis_reuse_hits : 0, "count");
  m.add("cluster.kmeans2d_s", s("cluster.kmeans2d"), "s");
  m.add("cluster.kmeans1d_s", s("cluster.kmeans1d"), "s");
  m.add("rap.prepare_s", s("rap.prepare"), "s");
  m.add("rap.x_vars", rr ? rr->num_x_vars : 0, "count");
  m.add("rap.bands", rr ? static_cast<double>(rr->bands.size()) : 0.0, "count");
  m.add("rap.shard_fallback", rr ? shard_fallback(w, *rr) : 0, "count");
  m.add("rap.cand_widenings", rr ? rr->cand_widenings : 0, "count");
  m.add("rap.repair_moves", rr ? rr->repair_moves : 0, "count");
  m.add("synth.generate_s", s("synth.generate"), "s");
  m.add("place.global_s", s("place.global"), "s");
  m.add("place.abacus_s", s("place.abacus"), "s");
  m.add("place.refine_s", s("place.refine"), "s");
  m.add("legal.rc_s", s("legal.rc"), "s");
  m.add("baseline.assign_s", s("baseline.assign"), "s");
  m.add("legal.baseline_s", s("legal.baseline"), "s");
  m.add("legal.finalize_s", s("legal.finalize"), "s");
  m.add("route.global_s", s("route.global"), "s");
  m.add("route.overflow_edges", last ? last->qor.overflow_edges : 0, "count");
  m.add("timing.sta_s", s("timing.sta"), "s");
  m.add("cts.build_s", s("cts.build"), "s");
  m.add("db.metrics_s", s("db.metrics"), "s");
  m.add("verify.check_s", s("verify.check"), "s");
  m.add("verify.certify_s", s("verify.certify"), "s");
  m.add("trace.unattributed_s", tr.median_of("flow", /*self=*/true), "s");
  const double flow_untraced = median(untraced_s);
  m.add("trace.overhead", flow_untraced > 0.0 ? flow_traced / flow_untraced : 0.0, "ratio");
  const Qor q = last ? last->qor : Qor{};
  m.add("rap_obj", q.rap_obj, "dbu");
  m.add("ilp_gap", q.ilp_gap, "ratio");
  m.add("routed_wl_um", q.routed_wl_um, "um");
  m.add("overflow_edges", q.overflow_edges, "count");
  m.add("fail_rate", tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted
                                         : 1.0,
        "ratio");

  // Workload-shape guard: the layer the workload was chosen for should
  // still be at least half of the flow.
  const char* target = w.route ? "route.global" : "rap.solve";
  const double share = flow_traced > 0.0 ? s(target) / flow_traced : 0.0;
  std::printf("shape: %s share of traced flow_s = %.3f (%d untraced + %d traced reps)\n",
              target, share, static_cast<int>(untraced_s.size()),
              static_cast<int>(traced_s.size()));
  if (share < 0.5) {
    std::printf("WARN shape: %s is below half of flow_s on %s; re-size the workload\n",
                target, w.name);
  }
  print_shape(w, rr, q);
  for (const auto& [name, vu] : m.items) {
    std::printf("%s = %.9g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }

  const bool correct = ok && tally.failed == 0 && last.has_value();
  print_result(correct, std::max(tally.attempted, 1), tally.failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload " + args.workload);

  const int threads = bench_threads();
  // Every "process default" thread count in the libraries reads this.
  setenv("MTH_THREADS", std::to_string(threads).c_str(), 1);
  set_log_level(LogLevel::Warn);

  const std::string budget = w->max_nodes > 0 ? std::to_string(w->max_nodes) : "n/a";
  std::printf("perfbench: workload=%s seed=%llu build=%s threads=%d simd=%s "
              "node_budget=%s ilp_deadline=off trace=%d\n",
              w->name, static_cast<unsigned long long>(args.seed), MTH_PERFBENCH_BUILD_TYPE,
              threads, simd::tier_name(simd::active_tier()), budget.c_str(),
              args.trace ? 1 : 0);
  try {
    const Bench bench(*w, w->scale * args.scale_factor, kDesignSeed);
    return args.trace ? measure_traced(*w, args, bench) : measure_untraced(*w, args, bench);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mth_perfbench: %s\n", e.what());
    return 1;
  }
}
