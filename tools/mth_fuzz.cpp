// mth_fuzz — deterministic differential fuzzer for the RAP + legalization
// stack, cross-checked by the independent verification oracle.
//
//   mth_fuzz --iters 200 --seed-base 1 --out fuzz_repro
//   mth_fuzz --certify [--scale 0.04]
//
// Fuzz mode: every iteration derives a small randomized testcase (a Table II
// spec scaled down to a random cell count) from a seeded Rng, prepares it
// through the real synth/mLEF/placement pipeline, then solves the *same* RAP
// instance four ways:
//
//   A  sparse (pruned candidates), warm-basis,  1 thread   — reference
//   B  sparse,                     warm-basis,  8 threads  — must be
//      bit-identical to A (the determinism contract)
//   C  dense (no pruning),         cold simplex, 1 thread  — objective must
//      agree with A within the MTH_SPARSE_GAP window when both are Optimal
//   D  sparse,                     cold simplex, 1 thread  — warm vs cold:
//      objectives within twice the ILP gap tolerance when both are Optimal
//   E  sharded (RapOptions::shards, band count derived from the scenario
//      seed or fixed with --shard-bands), 1 thread — objective within the
//      decomposition window of A and never below A's proven optimum beyond
//      the gap tolerance; certified through the per-band aggregation path
//   F  sharded, 8 threads — must be bit-identical to E
//
// Each result is graded by verify::certify_rap (feasibility, objective
// recomputation, LP-dual gap bound); A's assignment is then pushed through
// both legalizers and finalize, each output graded by verify::check_placement.
// On any mismatch the failing testcase is re-derived at half the cell count
// while the failure persists, and the smallest failing instance is dumped as
// a defio placement plus a JSON repro card.
//
// Each iteration also runs the linked-list detailed-placement improver on
// the rc-legalized placement and grades the result: HPWL must never exceed
// the input and the oracle (including fence compliance) must stay clean.
//
// Certify mode runs the 26 bundled Table II cases (MTH_CASES limits the
// count) through the standard RAP and prints the certified gap per case.
//
// LEF-fuzz mode (--lef-fuzz) holds the LEF parser to "error cleanly, never
// crash, never silently mis-parse": every iteration applies seeded
// mutations (character edits, truncations, line deletions/duplications) to
// the serialized bundled library and parses the result. Inputs must either
// parse or throw mth::Error, and anything that parses must re-serialize to
// a writer-closed fixed point (write(parse(write(parse(x)))) byte-stable).
//
// Exit code 0 == no finding; 1 == findings (repro files written); 2 == usage.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mth/flows/flow.hpp"
#include "mth/baseline/linchang.hpp"
#include "mth/db/metrics.hpp"
#include "mth/io/defio.hpp"
#include "mth/io/lefio.hpp"
#include "mth/legal/improve.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/ser/ser.hpp"
#include "mth/util/log.hpp"
#include "mth/util/rng.hpp"
#include "mth/verify/certifier.hpp"
#include "mth/verify/checker.hpp"

namespace {

using namespace mth;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}

/// Derived per-iteration scenario; a pure function of (seed_base, iteration,
/// target_cells) so a failure can be re-derived at smaller sizes.
struct Scenario {
  const synth::TestcaseSpec* spec = nullptr;
  std::uint64_t seed = 0;
  int target_cells = 0;
  double scale() const {
    return static_cast<double>(target_cells) / spec->num_cells;
  }
};

Scenario derive_scenario(std::uint64_t seed_base, int iter, int target_cells) {
  Rng rng(seed_base * 0x1000001ull + static_cast<std::uint64_t>(iter));
  const auto& specs = synth::table2_specs();
  Scenario sc;
  sc.spec = &specs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(specs.size()) - 1))];
  sc.seed = rng.next_u64() % 100000 + 1;
  sc.target_cells =
      target_cells > 0 ? target_cells
                       : static_cast<int>(rng.uniform_int(60, 250));
  return sc;
}

flows::FlowOptions scenario_options(const Scenario& sc) {
  flows::FlowOptions opt;
  opt.scale = sc.scale();
  opt.ctx.exec.seed = sc.seed;
  opt.rap.ilp.time_limit_s = 5.0;
  // Micro instances put a handful of wide minority cells into one or two
  // pairs; at the default 0.80 fill target the row-level bin packing can
  // corner itself even though Eq. 4 holds (a relaxation-vs-packing gap that
  // vanishes at realistic cell-to-row width ratios). Size N_minR with more
  // slack so every legalizer failure the fuzzer sees is a real finding.
  opt.baseline.minority_row_fill = 0.65;
  opt.rap.minority_row_fill = 0.65;
  return opt;
}

rap::RapOptions base_rap_options(const flows::PreparedCase& pc,
                                 const flows::FlowOptions& opt) {
  rap::RapOptions ro = opt.rap;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  return ro;
}

/// Exact equality of everything the determinism contract covers.
bool results_identical(const rap::RapResult& a, const rap::RapResult& b,
                       std::string* why) {
  if (a.objective != b.objective) {
    *why = "objectives differ: " + std::to_string(a.objective) + " vs " +
           std::to_string(b.objective);
    return false;
  }
  if (a.assignment.pair_is_minority != b.assignment.pair_is_minority) {
    *why = "row assignments differ";
    return false;
  }
  if (a.cluster_of != b.cluster_of) {
    *why = "cluster maps differ";
    return false;
  }
  if (a.cluster_pair != b.cluster_pair) {
    *why = "cluster->pair assignments differ";
    return false;
  }
  return true;
}

/// One full differential iteration. Appends human-readable findings.
/// `shard_bands` > 0 pins the sharded legs' band count; 0 derives 2..4 from
/// the scenario seed so replays stay pure functions of (seed_base, iter).
void run_iteration(const Scenario& sc, double sparse_gap_window,
                   int shard_bands, std::vector<std::string>& findings) {
  auto finding = [&](const std::string& msg) { findings.push_back(msg); };
  const flows::FlowOptions opt = scenario_options(sc);
  const flows::PreparedCase pc = flows::prepare_case(*sc.spec, opt);

  // Prepared placement must already satisfy the oracle (no fence yet).
  {
    const auto rep = verify::check_placement(pc.initial);
    if (!rep.ok()) finding("prepare: " + rep.summary());
  }

  rap::RapOptions ro_a = base_rap_options(pc, opt);
  ro_a.ctx.exec.num_threads = 1;
  rap::RapOptions ro_b = ro_a;
  ro_b.ctx.exec.num_threads = 8;
  rap::RapOptions ro_c = ro_a;
  ro_c.max_cand_rows = 0;
  ro_c.ilp.warm_basis = false;
  rap::RapOptions ro_d = ro_a;
  ro_d.ilp.warm_basis = false;

  const rap::RapResult rr_a = rap::solve_rap(pc.initial, ro_a);
  const rap::RapResult rr_b = rap::solve_rap(pc.initial, ro_b);
  const rap::RapResult rr_c = rap::solve_rap(pc.initial, ro_c);
  const rap::RapResult rr_d = rap::solve_rap(pc.initial, ro_d);

  // B: thread-count determinism, bit-exact.
  std::string why;
  if (!results_identical(rr_a, rr_b, &why)) {
    finding("threads 1 vs 8: " + why);
  }

  // Certify every distinct variant. The gap *window* is not enforced here:
  // fuzz instances are micro-sized (dozens of cells), where the root
  // integrality gap the certificate cannot see reaches ~0.3 (the eviction
  // term dominates and the LP fractionally spreads y). Bound soundness
  // (dual_bound <= objective) and every feasibility/objective/structural
  // check still apply; window enforcement at realistic sizes is the
  // --certify mode's job.
  verify::CertifyOptions co;
  co.require_certificate = true;
  co.gap_window = 1.0;
  struct Graded {
    const char* name;
    const rap::RapResult* rr;
    const rap::RapOptions* ro;
  };
  for (const Graded& g : {Graded{"A/sparse-warm", &rr_a, &ro_a},
                          Graded{"C/dense-cold", &rr_c, &ro_c},
                          Graded{"D/sparse-cold", &rr_d, &ro_d}}) {
    const auto rep = verify::certify_rap(pc.initial, *g.rr, *g.ro, co);
    if (!rep.ok()) {
      std::string extra;
      if (g.rr->certificate) {
        extra = " [root_lp=" +
                std::to_string(g.rr->certificate->root_lp_objective) +
                " bound=" + std::to_string(rep.dual_bound) +
                " obj=" + std::to_string(g.rr->objective) +
                " bb_gap=" + std::to_string(g.rr->gap) + "]";
      }
      finding(std::string("certify ") + g.name + ": " + rep.summary() + extra);
    }
  }

  // C: pruning loss bounded by the sparse-gap window; the dense optimum can
  // never exceed the sparse one beyond its own proof tolerance.
  const double rel_gap = ro_a.ilp.rel_gap;
  if (rr_a.status == ilp::Status::Optimal &&
      rr_c.status == ilp::Status::Optimal) {
    const double hi = std::max(std::abs(rr_c.objective), 1.0);
    if (rr_a.objective - rr_c.objective > sparse_gap_window * hi + 1e-6) {
      finding("sparse objective " + std::to_string(rr_a.objective) +
              " above dense " + std::to_string(rr_c.objective) +
              " beyond the sparse-gap window");
    }
    if (rr_c.objective - rr_a.objective >
        rel_gap * std::max(std::abs(rr_a.objective), 1.0) + 1e-6) {
      finding("dense objective " + std::to_string(rr_c.objective) +
              " exceeds sparse " + std::to_string(rr_a.objective) +
              " — dense solve left its gap tolerance");
    }
  }
  // D: warm and cold prove the same optimum within their gap tolerances.
  if (rr_a.status == ilp::Status::Optimal &&
      rr_d.status == ilp::Status::Optimal) {
    const double hi =
        std::max({std::abs(rr_a.objective), std::abs(rr_d.objective), 1.0});
    if (std::abs(rr_a.objective - rr_d.objective) > 2.0 * rel_gap * hi + 1e-6) {
      finding("warm objective " + std::to_string(rr_a.objective) +
              " vs cold " + std::to_string(rr_d.objective) +
              " beyond twice the gap tolerance");
    }
  }

  // E/F: sharded decomposition. Bit-identical across thread counts, the
  // merged objective within the decomposition window of A (and never below
  // A's proven optimum beyond the solver's own gap tolerance — band repair
  // can improve on the decomposition bound but not on a whole-design proof),
  // and the result certified through the per-band aggregation path.
  {
    rap::RapOptions ro_e = ro_a;
    ro_e.shards =
        shard_bands > 0 ? shard_bands : 2 + static_cast<int>(sc.seed % 3);
    rap::RapOptions ro_f = ro_e;
    ro_f.ctx.exec.num_threads = 8;
    const rap::RapResult rr_e = rap::solve_rap(pc.initial, ro_e);
    const rap::RapResult rr_f = rap::solve_rap(pc.initial, ro_f);
    if (!results_identical(rr_e, rr_f, &why)) {
      finding("sharded threads 1 vs 8: " + why);
    }
    // Micro instances split a quota of 2-3 pairs across bands, so the
    // decomposition loss reaches ~0.25 even with boundary repair (measured;
    // it shrinks to ~0.03 at bench scale, where bench_scaling gates it at
    // 0.15). The fuzz window only catches decomposition blowups.
    if (rr_a.status == ilp::Status::Optimal &&
        rr_e.status == ilp::Status::Optimal) {
      const double hi = std::max(std::abs(rr_a.objective), 1.0);
      const double dev = (rr_e.objective - rr_a.objective) / hi;
      if (dev > 0.5 + 1e-9) {
        finding("sharded objective " + std::to_string(rr_e.objective) +
                " above whole-design " + std::to_string(rr_a.objective) +
                " beyond the decomposition window");
      }
      if (dev < -rel_gap - 1e-9) {
        finding("sharded objective " + std::to_string(rr_e.objective) +
                " below the proven whole-design optimum " +
                std::to_string(rr_a.objective));
      }
    }
    const auto rep = verify::certify_rap(pc.initial, rr_e, ro_e, co);
    if (!rep.ok()) finding("certify E/sharded: " + rep.summary());
  }

  // Oracle-graded legalization of A's assignment through both legalizers,
  // then the mixed-space finalize.
  {
    Design d = pc.initial;
    const auto lr = rap::rc_legalize(d, rr_a.assignment, opt.rclegal);
    if (!lr.success) {
      finding("rc_legalize failed");
    } else {
      verify::CheckOptions ck;
      ck.assignment = &rr_a.assignment;
      const auto rep = verify::check_placement(d, ck);
      if (!rep.ok()) finding("rc_legalize output: " + rep.summary());
      // Differential improver leg: the linked-list detailed placer must
      // keep the fence-compliant placement legal and never pay HPWL for it
      // (in-row moves cannot break the row constraint, so the same
      // assignment-aware oracle applies).
      {
        Design di = d;
        const Dbu before = total_hpwl(di);
        const legal::ImproveStats st = legal::improve_placement(di);
        if (st.hpwl_after > before) {
          finding("improve: HPWL " + std::to_string(st.hpwl_after) +
                  " above input " + std::to_string(before));
        }
        if (st.hpwl_after != total_hpwl(di)) {
          finding("improve: incremental HPWL drifted from recomputation");
        }
        const auto repi = verify::check_placement(di, ck);
        if (!repi.ok()) finding("improve output: " + repi.summary());
      }
      flows::finalize_mixed(d, *pc.mlef, rr_a.assignment);
      verify::CheckOptions cm = ck;
      cm.require_track_match = true;
      const auto repm = verify::check_placement(d, cm);
      if (!repm.ok()) finding("finalize output: " + repm.summary());
    }
  }
  {
    Design d = pc.initial;
    std::vector<InstId> cells = rr_a.minority_cells;
    std::vector<int> pairs(cells.size());
    for (std::size_t k = 0; k < cells.size(); ++k) {
      pairs[k] = rr_a.cluster_pair[static_cast<std::size_t>(
          rr_a.cluster_of[k])];
    }
    const auto br =
        baseline::legalize_with_assignment(d, rr_a.assignment, &cells, &pairs);
    if (!br.success) {
      finding("baseline legalization failed");
    } else {
      verify::CheckOptions ck;
      ck.assignment = &rr_a.assignment;
      const auto rep = verify::check_placement(d, ck);
      if (!rep.ok()) finding("baseline legalization output: " + rep.summary());
    }
  }
}

/// Shrink a failing scenario by halving the cell count while it still fails,
/// then dump the smallest failing instance.
void dump_repro(const Scenario& first_fail, std::uint64_t seed_base, int iter,
                double sparse_gap_window, int shard_bands,
                const std::string& out_dir,
                const std::vector<std::string>& findings) {
  Scenario smallest = first_fail;
  std::vector<std::string> last_findings = findings;
  for (int cells = first_fail.target_cells / 2; cells >= 30; cells /= 2) {
    Scenario sc = derive_scenario(seed_base, iter, cells);
    std::vector<std::string> f;
    try {
      run_iteration(sc, sparse_gap_window, shard_bands, f);
    } catch (const Error& e) {
      f.push_back(std::string("exception: ") + e.what());
    }
    if (f.empty()) break;
    smallest = sc;
    last_findings = f;
  }

  std::filesystem::create_directories(out_dir);
  const std::string stem =
      out_dir + "/iter" + std::to_string(iter) + "_" + smallest.spec->short_name;
  const flows::PreparedCase pc =
      flows::prepare_case(*smallest.spec, scenario_options(smallest));
  io::write_design_file(stem + ".def", pc.initial);
  // The card is a versioned mth::ser envelope, so it submits to mth_serve
  // verbatim (`mth_serve < iterN_case.json`); the fuzz-forensic fields ride
  // along and the embedded options reproduce the failing scenario exactly.
  ser::Value card = ser::make_envelope("repro");
  card.set("testcase", ser::Value::string(smallest.spec->short_name));
  card.set("iteration", ser::Value::integer(iter));
  card.set("seed_base",
           ser::Value::integer(static_cast<std::int64_t>(seed_base)));
  card.set("generator_seed",
           ser::Value::integer(static_cast<std::int64_t>(smallest.seed)));
  card.set("target_cells", ser::Value::integer(smallest.target_cells));
  card.set("scale", ser::Value::number(smallest.scale()));
  card.set("options", ser::to_value(scenario_options(smallest)));
  ser::Value findings_v = ser::Value::array();
  for (const std::string& f : last_findings) {
    findings_v.push(ser::Value::string(f));
  }
  card.set("findings", std::move(findings_v));
  std::ofstream js(stem + ".json");
  js << ser::write(card);
  std::cerr << "repro written: " << stem << ".def / .json\n";
}

/// Seeded mutation fuzz of the LEF parser. Mutants must parse or throw
/// mth::Error; parsed mutants must be writer-closed (the re-serialized
/// library re-parses to the same bytes). Crashes surface as crashes — the
/// ASan leg of fuzz_smoke.sh runs the same binary.
int lef_fuzz_mode(int iters, std::uint64_t seed_base) {
  std::ostringstream base_os;
  io::write_lef(base_os, *liberty::library_ref());
  const std::string base = base_os.str();
  static const char kCharset[] = "X;.0 \n\"";
  int parsed = 0, rejected = 0, failures = 0;

  for (int iter = 0; iter < iters; ++iter) {
    Rng rng(seed_base * 0x9E3779B97F4A7C15ull +
            static_cast<std::uint64_t>(iter));
    std::string text = base;
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto line_span = [&](std::size_t* a, std::size_t* b) {
      const std::size_t pos = pick(text.size());
      const std::size_t nl = text.rfind('\n', pos);
      *a = nl == std::string::npos ? 0 : nl + 1;
      const std::size_t end = text.find('\n', pos);
      *b = end == std::string::npos ? text.size() : end + 1;
    };
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      std::size_t a = 0, b = 0;
      switch (rng.uniform_int(0, 3)) {
        case 0:  // replace one character
          text[pick(text.size())] = kCharset[pick(sizeof kCharset - 1)];
          break;
        case 1:  // truncate
          text.resize(pick(text.size()));
          break;
        case 2:  // delete one line
          line_span(&a, &b);
          text.erase(a, b - a);
          break;
        default:  // duplicate one line
          line_span(&a, &b);
          text.insert(a, text.substr(a, b - a));
          break;
      }
    }
    try {
      std::istringstream in(text);
      const io::LefResult r = io::read_lef(in, "fuzz");
      ++parsed;
      std::ostringstream once;
      io::write_lef(once, *r.library);
      std::istringstream in2(once.str());
      const io::LefResult r2 = io::read_lef(in2, "fuzz-closure");
      std::ostringstream twice;
      io::write_lef(twice, *r2.library);
      if (once.str() != twice.str()) {
        ++failures;
        std::cerr << "lef-fuzz iteration " << iter
                  << ": writer closure broken (re-serialization differs)\n";
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  std::cout << "lef-fuzz: " << iters << " iterations, " << parsed
            << " parsed, " << rejected << " rejected cleanly, " << failures
            << " failing\n";
  return failures == 0 ? 0 : 1;
}

int certify_mode(double scale) {
  const int max_cases = env_int("MTH_CASES", 0);
  int n = 0, certified = 0;
  std::cout << "testcase      status    objective       dual_bound      "
               "gap       window   ok\n";
  for (const auto& spec : synth::table2_specs()) {
    if (max_cases > 0 && n >= max_cases) break;
    ++n;
    flows::FlowOptions opt;
    opt.scale = scale;
    opt.rap.ilp.time_limit_s = env_double("MTH_ILP_SECONDS", 20.0);
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    rap::RapOptions ro = base_rap_options(pc, opt);
    const rap::RapResult rr = rap::solve_rap(pc.initial, ro);
    verify::CertifyOptions co;
    co.require_certificate = true;
    // MTH_SPARSE_GAP overrides the window; default is the certifier's own
    // (root-integrality allowance, see CertifyOptions::gap_window).
    co.gap_window = env_double("MTH_SPARSE_GAP", -1.0);
    const auto rep = verify::certify_rap(pc.initial, rr, ro, co);
    if (rep.ok()) ++certified;
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(6);
    line << spec.short_name;
    for (std::size_t i = line.str().size(); i < 14; ++i) line << ' ';
    line << ilp::to_string(rr.status) << "   " << rep.reported_objective
         << "   " << rep.dual_bound << "   " << rep.certified_gap << "   "
         << rep.gap_window_used << "   " << (rep.ok() ? "yes" : "NO");
    std::cout << line.str() << "\n";
    if (!rep.ok()) std::cout << "  ^ " << rep.summary() << "\n";
  }
  std::cout << "certified " << certified << "/" << n << " testcases\n";
  return certified == n ? 0 : 1;
}

void usage(std::ostream& os) {
  os << "usage: mth_fuzz [options]\n"
        "  --iters <n>       fuzz iterations (default 200)\n"
        "  --start <n>       first iteration index (default 0; replay one\n"
        "                    failing iteration with --start N --iters 1)\n"
        "  --seed-base <n>   scenario derivation base seed (default 1)\n"
        "  --out <dir>       repro dump directory (default fuzz_repro)\n"
        "  --shard-bands <n> pin the sharded legs' band count (default 0:\n"
        "                    derive 2..4 from the scenario seed)\n"
        "  --certify         certify the bundled Table II cases instead\n"
        "  --lef-fuzz        mutate the serialized bundled library and hold\n"
        "                    the LEF parser to error-cleanly/never-crash\n"
        "  --scale <f>       certify-mode cell-count scale (default "
        "MTH_SCALE or 0.04)\n"
        "  -v                verbose logging\n";
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Error);
  int iters = 200;
  int start = 0;
  std::uint64_t seed_base = 1;
  std::string out_dir = "fuzz_repro";
  int shard_bands = 0;
  bool certify = false;
  bool lef_fuzz = false;
  double scale = env_double("MTH_SCALE", 0.04);

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        usage(std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--iters") {
      iters = std::atoi(next());
    } else if (a == "--start") {
      start = std::atoi(next());
    } else if (a == "--seed-base") {
      seed_base = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--out") {
      out_dir = next();
    } else if (a == "--shard-bands") {
      shard_bands = std::atoi(next());
    } else if (a == "--certify") {
      certify = true;
    } else if (a == "--lef-fuzz") {
      lef_fuzz = true;
    } else if (a == "--scale") {
      scale = std::atof(next());
    } else if (a == "-v") {
      set_log_level(LogLevel::Info);
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  try {
    if (certify) return certify_mode(scale);
    if (lef_fuzz) return lef_fuzz_mode(iters, seed_base);

    const double sparse_gap_window =
        env_double("MTH_SPARSE_GAP",
                   2.0 * rap::RapOptions{}.ilp.rel_gap);
    int failures = 0;
    for (int iter = start; iter < start + iters; ++iter) {
      const Scenario sc = derive_scenario(seed_base, iter, 0);
      std::vector<std::string> findings;
      try {
        run_iteration(sc, sparse_gap_window, shard_bands, findings);
      } catch (const Error& e) {
        findings.push_back(std::string("exception: ") + e.what());
      }
      if (!findings.empty()) {
        ++failures;
        std::cerr << "iteration " << iter << " (" << sc.spec->short_name
                  << " @" << sc.target_cells << " cells, seed " << sc.seed
                  << "): " << findings.size() << " finding(s)\n";
        for (const auto& f : findings) std::cerr << "  - " << f << "\n";
        dump_repro(sc, seed_base, iter, sparse_gap_window, shard_bands,
                   out_dir, findings);
      } else if ((iter + 1) % 25 == 0) {
        std::cout << "fuzz: " << (iter + 1) << "/" << iters
                  << " iterations clean\n";
      }
    }
    std::cout << "fuzz: " << iters << " iterations, " << failures
              << " failing\n";
    return failures == 0 ? 0 : 1;
  } catch (const mth::Error& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
}
