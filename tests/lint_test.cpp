// Unit tests for mth::lint — per-rule inline fixtures (positive hit,
// suppressed hit, clean), JSON output schema, and the
// acceptance-criteria mutation check: inserting std::rand() into the real
// src/rap/rap.cpp must produce a det-rand finding.

#include "mth/lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace lint = mth::lint;
using lint::Finding;
using lint::Rule;

namespace {

std::vector<Finding> run(const std::string& file, const std::string& text,
                         const lint::Options& options = {}) {
  return lint::lint_source(file, text, options);
}

bool has_rule(const std::vector<Finding>& findings, Rule rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

}  // namespace

// --- det-rand -------------------------------------------------------------

TEST(DetRand, PositiveHit) {
  const auto f = run("src/rap/rap.cpp", R"cpp(
    int noise() { return std::rand(); }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::DetRand);
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[0].file, "src/rap/rap.cpp");
  EXPECT_NE(f[0].message.find("rand"), std::string::npos);
  EXPECT_NE(f[0].snippet.find("std::rand()"), std::string::npos);
}

TEST(DetRand, CatchesTimeClockSrandAndRandomDevice) {
  EXPECT_TRUE(has_rule(run("a.cpp", "long t = time(nullptr);"),
                       Rule::DetRand));
  EXPECT_TRUE(has_rule(run("a.cpp", "long t = clock();"), Rule::DetRand));
  EXPECT_TRUE(has_rule(run("a.cpp", "srand(42);"), Rule::DetRand));
  EXPECT_TRUE(has_rule(run("a.cpp", "std::random_device rd;"),
                       Rule::DetRand));
}

TEST(DetRand, SuppressedHit) {
  const auto same_line = run("src/rap/rap.cpp",
      "int x = std::rand();  // mth-lint: allow(det-rand): fixture\n");
  EXPECT_TRUE(same_line.empty());
  const auto prev_line = run("src/rap/rap.cpp",
      "// mth-lint: allow(det-rand): fixture\nint x = std::rand();\n");
  EXPECT_TRUE(prev_line.empty());
}

TEST(DetRand, Clean) {
  // Identifiers that merely *contain* banned names, banned names without a
  // call, and banned names inside comments or string literals are all fine.
  const auto f = run("src/rap/rap.cpp", R"cpp(
    // std::rand() in a comment is fine
    const char* msg = "call std::rand() and time()";
    int strand_count = 0;                 // 'srand' inside an identifier
    double solve_time = 0.0;              // 'time' without a call
    int randomize_order(int x) { return x; }
  )cpp");
  EXPECT_TRUE(f.empty());
}

// --- det-thread -----------------------------------------------------------

TEST(DetThread, PositiveHit) {
  const auto f = run("src/flows/flow.cpp", R"cpp(
    void spawn() { std::thread t([] {}); t.join(); }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::DetThread);
  EXPECT_NE(f[0].message.find("ThreadPool"), std::string::npos);
}

TEST(DetThread, AsyncAlsoFlagged) {
  EXPECT_TRUE(has_rule(run("tests/x_test.cpp",
                           "auto fut = std::async([] { return 1; });"),
                       Rule::DetThread));
}

TEST(DetThread, UtilModuleIsAllowlisted) {
  const auto f = run("src/util/threadpool.cpp",
                     "std::thread worker([] {});");
  EXPECT_TRUE(f.empty());
  const auto hdr = run("src/include/mth/util/threadpool.hpp",
                       "std::vector<std::thread> workers_;");
  EXPECT_TRUE(hdr.empty());
}

TEST(DetThread, SuppressedAndClean) {
  EXPECT_TRUE(run("src/rap/rap.cpp",
                  "// mth-lint: allow(det-thread): fixture\n"
                  "std::thread t;\n")
                  .empty());
  // std::this_thread is a different identifier and must not match.
  EXPECT_TRUE(run("src/rap/rap.cpp",
                  "std::this_thread::yield();").empty());
}

// --- det-unordered --------------------------------------------------------

TEST(DetUnordered, PositiveHitInDetSubsystem) {
  for (const char* file :
       {"src/rap/rap.cpp", "src/lp/simplex.cpp", "src/io/defio.cpp",
        "src/include/mth/verify/checker.hpp"}) {
    const auto f = run(file, "std::unordered_map<int, int> m;");
    ASSERT_EQ(f.size(), 1u) << file;
    EXPECT_EQ(f[0].rule, Rule::DetUnordered) << file;
  }
}

TEST(DetUnordered, NonDetModulesAreOutOfScope) {
  // db and report are not on the deterministic-subsystem list; only the
  // iteration rule applies there.
  EXPECT_TRUE(run("src/db/netlist.cpp",
                  "std::unordered_set<int> seen;").empty());
  EXPECT_TRUE(run("tools/mth_flow.cpp",
                  "std::unordered_map<int, int> m;").empty());
}

TEST(DetUnordered, SuppressedHit) {
  const auto f = run("src/io/defio.cpp",
      "// mth-lint: allow(det-unordered): lookup-only, never iterated\n"
      "std::unordered_map<std::string, int> by_name;\n");
  EXPECT_TRUE(f.empty());
}

// --- unordered-iter -------------------------------------------------------

TEST(UnorderedIter, RangeForPositiveHit) {
  const auto f = run("src/db/netlist.cpp", R"cpp(
    std::unordered_map<std::string, int> index;
    void walk() {
      for (const auto& [name, id] : index) use(name, id);
    }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::UnorderedIter);
  EXPECT_EQ(f[0].line, 4);
}

TEST(UnorderedIter, ExplicitBeginPositiveHit) {
  const auto f = run("src/db/netlist.cpp", R"cpp(
    std::unordered_set<int> seen;
    auto it = seen.begin();
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::UnorderedIter);
}

TEST(UnorderedIter, LookupOnlyIsClean) {
  const auto f = run("src/db/netlist.cpp", R"cpp(
    std::unordered_map<std::string, int> index;
    int find(const std::string& k) {
      auto it = index.find(k);
      return it == index.end() ? -1 : it->second;
    }
  )cpp");
  EXPECT_TRUE(f.empty());
}

TEST(UnorderedIter, SuppressedHit) {
  const auto f = run("src/db/netlist.cpp",
      "std::unordered_set<int> seen;\n"
      "// mth-lint: allow(unordered-iter): order folded through a sort below\n"
      "for (int v : seen) keys.push_back(v);\n");
  EXPECT_TRUE(f.empty());
}

TEST(UnorderedIter, OrderedContainersAreClean) {
  const auto f = run("src/db/netlist.cpp", R"cpp(
    std::map<std::string, int> index;
    void walk() {
      for (const auto& [name, id] : index) use(name, id);
    }
  )cpp");
  EXPECT_TRUE(f.empty());
}

// --- trace-registry -------------------------------------------------------

namespace {
lint::Options registry_options() {
  lint::Options o;
  o.registry.spans = {"rap/solve", "rap/cost_chunk"};
  o.registry.counters = {"ilp/nodes"};
  return o;
}
}  // namespace

TEST(TraceRegistry, RegisteredNamesAreClean) {
  const auto f = run("src/rap/rap.cpp", R"cpp(
    void solve() {
      MTH_SPAN("rap/solve");
      par.trace_name = "rap/cost_chunk";
      MTH_COUNT("ilp/nodes", 1);
    }
  )cpp",
                     registry_options());
  EXPECT_TRUE(f.empty());
}

TEST(TraceRegistry, UnregisteredSpanPositiveHit) {
  const auto f = run("src/rap/rap.cpp",
                     "MTH_SPAN(\"rap/not_registered\");\n",
                     registry_options());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::TraceRegistry);
  EXPECT_NE(f[0].message.find("rap/not_registered"), std::string::npos);
  EXPECT_NE(f[0].message.find("--update-registry"), std::string::npos);
}

TEST(TraceRegistry, SpanAndCounterNamespacesAreSeparate) {
  // "ilp/nodes" is registered as a counter, not a span.
  EXPECT_TRUE(has_rule(
      run("src/rap/rap.cpp", "MTH_SPAN(\"ilp/nodes\");\n", registry_options()),
      Rule::TraceRegistry));
  EXPECT_TRUE(has_rule(run("src/rap/rap.cpp",
                           "MTH_COUNT(\"rap/solve\", 1);\n",
                           registry_options()),
                       Rule::TraceRegistry));
}

TEST(TraceRegistry, NonLiteralArgsAndEmptyRegistrySkip) {
  // A runtime span name can't be checked statically.
  EXPECT_TRUE(run("src/util/threadpool.cpp",
                  "MTH_SPAN(options.trace_name);\n", registry_options())
                  .empty());
  // An empty registry disables the rule entirely.
  EXPECT_TRUE(run("src/rap/rap.cpp", "MTH_SPAN(\"anything/goes\");\n")
                  .empty());
}

TEST(TraceRegistry, SuppressedHit) {
  const auto f = run("src/rap/rap.cpp",
      "// mth-lint: allow(trace-registry): fixture-only name\n"
      "MTH_SPAN(\"fixture/span\");\n",
      registry_options());
  EXPECT_TRUE(f.empty());
}

TEST(TraceRegistry, CollectTraceUses) {
  const auto uses = lint::collect_trace_uses(R"cpp(
    MTH_SPAN("flow/run");
    MTH_SPAN("flow/run");             // deduplicated
    par.trace_name = "rap/cost_chunk";
    MTH_COUNT("ilp/nodes", n);
  )cpp");
  ASSERT_EQ(uses.spans.size(), 2u);
  EXPECT_EQ(uses.spans[0], "flow/run");
  EXPECT_EQ(uses.spans[1], "rap/cost_chunk");
  ASSERT_EQ(uses.counters.size(), 1u);
  EXPECT_EQ(uses.counters[0], "ilp/nodes");
}

TEST(TraceRegistry, CollectsDirectSpanConstructorLiterals) {
  // Direct trace::Span RAII declarations bypass the MTH_SPAN macro; every
  // literal inside the constructor argument list is a possible span name
  // (conditional expressions select one at runtime).
  const auto uses = lint::collect_trace_uses(R"cpp(
    trace::Span ilp_span("rap/ilp");
    trace::Span span(opt.enforce ? "legal/rc" : "legal/refine");
  )cpp");
  ASSERT_EQ(uses.spans.size(), 3u);
  EXPECT_EQ(uses.spans[0], "rap/ilp");
  EXPECT_EQ(uses.spans[1], "legal/rc");
  EXPECT_EQ(uses.spans[2], "legal/refine");
  EXPECT_TRUE(uses.counters.empty());
}

TEST(TraceRegistry, DirectSpanConstructorHitAgainstRegistry) {
  const auto f = run("src/rap/rap.cpp",
                     "trace::Span s(\"rap/unregistered\");\n",
                     registry_options());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::TraceRegistry);
}

// --- ab-doc ---------------------------------------------------------------

TEST(AbDoc, MissingBenchReferencePositiveHit) {
  const auto f = run("src/include/mth/rap/rap.hpp", R"cpp(
    struct Options {
      /// A/B toggle — switches the frobnicator on.
      bool frobnicate = true;
    };
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::AbDoc);
  EXPECT_EQ(f[0].line, 3);
}

TEST(AbDoc, BenchOrToolReferenceIsClean) {
  const auto bench = run("src/include/mth/ilp/solver.hpp", R"cpp(
    /// A/B toggle — warm basis. The A/B lives in `bench_fig5_ilp_scaling`.
    bool warm_basis = true;
  )cpp");
  EXPECT_TRUE(bench.empty());
  const auto tool = run("src/include/mth/rap/rap.hpp", R"cpp(
    /// A/B toggle — certificate export (`mth_fuzz --certify`).
    bool export_certificate = true;
  )cpp");
  EXPECT_TRUE(tool.empty());
}

TEST(AbDoc, OnlyPublicLpIlpRapHeadersAreInScope) {
  const std::string text =
      "/// A/B toggle — comparison location undocumented.\nbool x = true;\n";
  // Hits in all three public solver headers...
  EXPECT_FALSE(run("src/include/mth/lp/simplex.hpp", text).empty());
  // ...but not in implementation files or other modules' headers.
  EXPECT_TRUE(run("src/lp/simplex.cpp", text).empty());
  EXPECT_TRUE(run("src/include/mth/db/design.hpp", text).empty());
}

TEST(AbDoc, SuppressedHit) {
  // A suppression covers its own line and the next, so it must sit on (or
  // right above) the doc line the finding anchors to.
  const auto f = run("src/include/mth/rap/rap.hpp",
      "/// A/B toggle — fixture. mth-lint: allow(ab-doc): no bench yet\n"
      "bool x = true;\n");
  EXPECT_TRUE(f.empty());
}

// --- simd-merge -----------------------------------------------------------

TEST(SimdMerge, IntrinsicOutsideSimdModulePositiveHit) {
  const auto f = run("src/rap/rap.cpp", R"cpp(
    __m256d v = _mm256_loadu_pd(y);
  )cpp");
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].rule, Rule::SimdMerge);
  EXPECT_NE(f[0].message.find("mth::simd"), std::string::npos);
}

TEST(SimdMerge, HorizontalMergeBannedEvenInsideSimdModule) {
  const auto f = run("src/util/simd.cpp", R"cpp(
    __m256d s = _mm256_hadd_pd(a, b);
  )cpp");
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].rule, Rule::SimdMerge);
  EXPECT_NE(f[0].message.find("index order"), std::string::npos);
}

TEST(SimdMerge, ElementwiseIntrinsicsInSimdModuleAreClean) {
  EXPECT_TRUE(run("src/util/simd.cpp", R"cpp(
    __m256d v = _mm256_max_pd(_mm256_loadu_pd(y), _mm256_set1_pd(lo));
  )cpp").empty());
  // Non-intrinsic identifiers that merely start with _mm-ish text don't trip.
  EXPECT_TRUE(run("src/rap/rap.cpp", "int _mmap_count = 0;\n").empty());
}

TEST(SimdMerge, SuppressedHit) {
  const auto f = run("src/rap/rap.cpp",
      "__m256d v = _mm256_setzero_pd();"
      "  // mth-lint: allow(simd-merge): fixture\n");
  EXPECT_TRUE(f.empty());
}

// --- ihpwl-full-scan ------------------------------------------------------

TEST(IhpwlFullScan, RescanInsideRapLoopPositiveHit) {
  const auto f = run("src/rap/rclegal.cpp", R"cpp(
    void refine(Design& d) {
      for (int pass = 0; pass < 3; ++pass) {
        Dbu h = total_hpwl(d);
      }
    }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::IhpwlFullScan);
  EXPECT_NE(f[0].message.find("IncrementalHpwl"), std::string::npos);
}

TEST(IhpwlFullScan, WhileAndDoLoopsAreCovered) {
  EXPECT_TRUE(has_rule(run("src/legal/abacus.cpp",
      "void f(Design& d) { while (x) { Dbu h = total_hpwl(d); } }\n"),
      Rule::IhpwlFullScan));
  EXPECT_TRUE(has_rule(run("src/legal/abacus.cpp",
      "void f(Design& d) { do { Dbu h = total_hpwl(d); } while (x); }\n"),
      Rule::IhpwlFullScan));
}

TEST(IhpwlFullScan, OutsideLoopOrModuleIsClean) {
  // Straight-line use (one scan per call) is the sanctioned pattern...
  EXPECT_TRUE(run("src/rap/rclegal.cpp",
      "Dbu before() { return total_hpwl(d); }\n").empty());
  // ...and other modules (metrics itself, flows, tests) are out of scope.
  EXPECT_TRUE(run("src/flows/flow.cpp",
      "for (;;) { Dbu h = total_hpwl(d); }\n").empty());
}

TEST(IhpwlFullScan, SuppressedHit) {
  const auto f = run("src/rap/rclegal.cpp",
      "for (;;) {\n"
      "  Dbu h = total_hpwl(d);  // mth-lint: allow(ihpwl-full-scan): fixture\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

// --- row-rescan -------------------------------------------------------------

TEST(RowRescan, RowAtYInPolishPositiveHit) {
  const auto f = run("src/legal/polish.cpp", R"cpp(
    int bucket(const Design& d, InstId i) {
      return d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::RowRescan);
  EXPECT_NE(f[0].message.find("RowList"), std::string::npos);
}

TEST(RowRescan, SortInImprovePositiveHit) {
  EXPECT_TRUE(has_rule(run("src/legal/improve.cpp",
      "void f(std::vector<InstId>& v) { std::sort(v.begin(), v.end()); }\n"),
      Rule::RowRescan));
  EXPECT_TRUE(has_rule(run("src/include/mth/legal/improve.hpp",
      "inline void f(V& v) { std::stable_sort(v.begin(), v.end()); }\n"),
      Rule::RowRescan));
}

TEST(RowRescan, RowListBuildAndOtherModulesAreOutOfScope) {
  // The RowList constructor is the one sanctioned scan...
  EXPECT_TRUE(run("src/legal/rowlist.cpp",
      "int r = d.floorplan.row_at_y(y); std::sort(b.begin(), b.end());\n")
      .empty());
  // ...abacus predates the contract and has its own structure...
  EXPECT_TRUE(run("src/legal/abacus.cpp",
      "int r = d.floorplan.row_at_y(y);\n").empty());
  // ...and identifiers that merely mention sort without a call are fine.
  EXPECT_TRUE(run("src/legal/polish.cpp", "bool sorted = true;\n").empty());
}

TEST(RowRescan, SuppressedHit) {
  const auto f = run("src/legal/improve.cpp",
      "int r = fp.row_at_y(y);  // mth-lint: allow(row-rescan): fixture\n");
  EXPECT_TRUE(f.empty());
}

// --- scanner robustness ---------------------------------------------------

TEST(Scanner, RawStringsAndCommentsAreInvisible) {
  const auto f = run("src/rap/rap.cpp", R"outer(
    const char* fixture = R"cpp(std::rand(); std::thread t;)cpp";
    /* block comment: std::rand() */
    // line comment: srand(1);
  )outer");
  EXPECT_TRUE(f.empty());
}

TEST(Scanner, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto f = run("src/rap/rap.cpp",
                     "long big = 1'000'000;\nint x = std::rand();\n");
  ASSERT_EQ(f.size(), 1u);  // the rand survives the separator handling
  EXPECT_EQ(f[0].line, 2);
}

// --- JSON output schema ---------------------------------------------------

TEST(JsonOutput, RoundTripPreservesEveryField) {
  const auto findings =
      run("src/rap/rap.cpp", "int x = std::rand();  // \"quoted\"\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = lint::findings_to_json(findings);
  std::string error;
  const auto parsed = lint::parse_findings_json(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].rule, findings[0].rule);
  EXPECT_EQ((*parsed)[0].file, findings[0].file);
  EXPECT_EQ((*parsed)[0].line, findings[0].line);
  EXPECT_EQ((*parsed)[0].message, findings[0].message);
  EXPECT_EQ((*parsed)[0].snippet, findings[0].snippet);
}

TEST(JsonOutput, SchemaViolationsAreRejected) {
  std::string error;
  // Missing version.
  EXPECT_FALSE(lint::parse_findings_json("{\"total\": 0, \"findings\": []}",
                                         &error)
                   .has_value());
  // total inconsistent with the findings array.
  EXPECT_FALSE(lint::parse_findings_json(
                   "{\"version\": 2, \"total\": 3, \"counts\": {},"
                   " \"findings\": []}",
                   &error)
                   .has_value());
  // Finding missing required fields.
  EXPECT_FALSE(lint::parse_findings_json(
                   "{\"version\": 2, \"total\": 1, \"counts\":"
                   " {\"det-rand\": 1}, \"findings\":"
                   " [{\"rule\": \"det-rand\"}]}",
                   &error)
                   .has_value());
}

TEST(JsonOutput, EmptyFindingsIsValid) {
  std::string error;
  const auto parsed =
      lint::parse_findings_json(lint::findings_to_json({}), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->empty());
}

// --- registry round-trip --------------------------------------------------

TEST(Registry, RoundTripSortsAndDeduplicates) {
  lint::Registry reg;
  reg.spans = {"b/span", "a/span", "b/span"};
  reg.counters = {"z/counter"};
  const std::string json = lint::registry_to_json(reg);
  std::string error;
  const auto parsed = lint::parse_registry(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->spans.size(), 2u);
  EXPECT_EQ(parsed->spans[0], "a/span");
  EXPECT_EQ(parsed->spans[1], "b/span");
  ASSERT_EQ(parsed->counters.size(), 1u);
}

// --- par-capture-race -----------------------------------------------------

TEST(ParCaptureRace, UnindexedByRefWritePositiveHit) {
  const auto f = run("src/rap/shard.cpp", R"cpp(
    void f(std::size_t n, std::vector<double>& out) {
      util::parallel_chunks(n, opt,
          [&](std::size_t chunk, std::size_t b, std::size_t e) {
            out.push_back(1.0);
          });
    }
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::ParCaptureRace);
  EXPECT_NE(f[0].message.find("'out'"), std::string::npos);
  EXPECT_NE(f[0].snippet.find("push_back"), std::string::npos);
}

TEST(ParCaptureRace, PostfixIncrementAndNamedRefCaptureAreCaught) {
  EXPECT_TRUE(has_rule(run("src/rap/rap.cpp", R"cpp(
    long done = 0;
    util::parallel_for(n, [&](std::int64_t i) { done++; });
  )cpp"),
                       Rule::ParCaptureRace));
  EXPECT_TRUE(has_rule(run("src/rap/rap.cpp", R"cpp(
    long done = 0;
    util::parallel_for(n, [&done](std::int64_t i) { ++done; });
  )cpp"),
                       Rule::ParCaptureRace));
}

TEST(ParCaptureRace, IndexedWriteIsClean) {
  EXPECT_TRUE(run("src/rap/rap.cpp", R"cpp(
    util::parallel_for(n, [&](std::int64_t i) { out[i] = 1.0; });
  )cpp")
                  .empty());
}

TEST(ParCaptureRace, ParamDerivedIndexIsClean) {
  // `r` joins the index set because its initializer mentions `begin`.
  EXPECT_TRUE(run("src/rap/shard.cpp", R"cpp(
    util::parallel_chunks(n, opt,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) out[r] = cost(r);
        });
  )cpp")
                  .empty());
}

TEST(ParCaptureRace, ValueCapturesAndBodyLocalsAreClean) {
  EXPECT_TRUE(run("src/rap/rap.cpp", R"cpp(
    util::parallel_for(n, [&, total](std::int64_t i) mutable {
      total += 1.0;
      double best = 0.0;
      best += vals[i];
      out[i] = best + total;
    });
  )cpp")
                  .empty());
}

TEST(ParCaptureRace, AtomicTargetsAreExempt) {
  EXPECT_TRUE(run("src/rap/rap.cpp", R"cpp(
    std::atomic<long> hits{0};
    util::parallel_for(n, [&](std::int64_t i) { hits += 2; });
  )cpp")
                  .empty());
}

TEST(ParCaptureRace, ReduceWorkerAccumulatorParamIsClean) {
  // parallel_reduce's worker writes its accumulator *parameter* (a per-chunk
  // slot by contract) and the merge lambda runs serially in chunk-index
  // order — neither may be flagged.
  EXPECT_TRUE(run("src/db/metrics.cpp", R"cpp(
    const double s = util::parallel_reduce<double>(
        n, 0.0, [&](double& acc, std::int64_t i) { acc += vals[i]; },
        [](double a, double b) { return a + b; });
  )cpp")
                  .empty());
}

TEST(ParCaptureRace, SuppressedHit) {
  EXPECT_TRUE(run("src/rap/rap.cpp", R"cpp(
    util::parallel_for(n, [&](std::int64_t i) {
      flag = true;  // mth-lint: allow(par-capture-race): fixture
    });
  )cpp")
                  .empty());
}

// --- fp-ordered-merge -----------------------------------------------------

TEST(FpOrderedMerge, CapturedDoubleAccumulationPositiveHit) {
  const auto f = run("src/db/metrics.cpp", R"cpp(
    double total = 0.0;
    util::parallel_for(n, [&](std::int64_t i) { total += vals[i]; });
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::FpOrderedMerge);
  EXPECT_NE(f[0].message.find("ordered"), std::string::npos);
}

TEST(FpOrderedMerge, IntegerAccumulationIsParCaptureRaceInstead) {
  const auto f = run("src/rap/rap.cpp", R"cpp(
    long total = 0;
    util::parallel_for(n, [&](std::int64_t i) { total += vals[i]; });
  )cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::ParCaptureRace);
}

TEST(FpOrderedMerge, PerChunkSlotIsClean) {
  EXPECT_TRUE(run("src/rap/shard.cpp", R"cpp(
    std::vector<double> partial(chunks, 0.0);
    util::parallel_chunks(n, opt,
        [&](std::size_t chunk, std::size_t b, std::size_t e) {
          partial[chunk] += weight(b, e);
        });
  )cpp")
                  .empty());
}

TEST(FpOrderedMerge, SuppressedHit) {
  EXPECT_TRUE(run("src/db/metrics.cpp", R"cpp(
    double total = 0.0;
    util::parallel_for(n, [&](std::int64_t i) {
      total += vals[i];  // mth-lint: allow(fp-ordered-merge): fixture
    });
  )cpp")
                  .empty());
}

// --- layer-violation / layer-cycle ----------------------------------------

namespace {

lint::LayerConfig layers_of(const std::string& json) {
  std::string error;
  const auto cfg = lint::parse_layers(json, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value_or(lint::LayerConfig{});
}

lint::FileIncludes file_with(const std::string& label,
                             const std::string& text) {
  return {label, lint::collect_includes(text)};
}

}  // namespace

TEST(Layers, CollectIncludesSkipsAngleAndCommentedIncludes) {
  const auto inc = lint::collect_includes(
      "#include <vector>\n"
      "#include \"mth/rap/rap.hpp\"\n"
      "// #include \"mth/serve/api.hpp\"\n"
      "#include \"scan.hpp\"\n");
  ASSERT_EQ(inc.size(), 2u);
  EXPECT_EQ(inc[0].target, "mth/rap/rap.hpp");
  EXPECT_EQ(inc[0].line, 2);
  EXPECT_EQ(inc[1].target, "scan.hpp");
}

TEST(Layers, ConfigRoundTrip) {
  const std::string json =
      "{\n \"version\": 1,\n \"modules\": {\n  \"db\": [\"util\"],\n"
      "  \"util\": []\n }\n}\n";
  const lint::LayerConfig cfg = layers_of(json);
  ASSERT_EQ(cfg.modules.size(), 2u);
  EXPECT_EQ(layers_of(lint::layers_to_json(cfg)).modules, cfg.modules);
}

TEST(Layers, UndeclaredEdgeIsViolation) {
  const auto cfg = layers_of(
      R"({"version": 1, "modules": {"rap": ["util"], "serve": [], "util": []}})");
  const auto f = lint::check_layers(
      {file_with("src/rap/x.cpp", "#include \"mth/serve/api.hpp\"\n")}, cfg,
      "tools/lint_layers.json");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::LayerViolation);
  EXPECT_EQ(f[0].file, "src/rap/x.cpp");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("'serve'"), std::string::npos);
}

TEST(Layers, TransitiveClosureAllowsIndirectDeps) {
  const auto cfg = layers_of(
      R"({"version": 1, "modules": {"a": ["b"], "b": ["c"], "c": []}})");
  EXPECT_TRUE(lint::check_layers(
                  {file_with("src/a/x.cpp", "#include \"mth/c/y.hpp\"\n")},
                  cfg, "cfg.json")
                  .empty());
}

TEST(Layers, ToolsAndTestFilesAreExemptFromViolations) {
  const auto cfg =
      layers_of(R"({"version": 1, "modules": {"rap": [], "serve": []}})");
  EXPECT_TRUE(lint::check_layers({file_with("tools/mth_flow.cpp",
                                            "#include \"mth/serve/api.hpp\"\n"
                                            "#include \"mth/rap/rap.hpp\"\n")},
                                 cfg, "cfg.json")
                  .empty());
}

TEST(Layers, BadConfigIsAFindingAgainstTheConfigFile) {
  const auto undeclared =
      layers_of(R"({"version": 1, "modules": {"a": ["zzz"]}})");
  auto f = lint::check_layers({}, undeclared, "tools/lint_layers.json");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::LayerViolation);
  EXPECT_EQ(f[0].file, "tools/lint_layers.json");
  EXPECT_EQ(f[0].line, 0);

  const auto cyclic =
      layers_of(R"({"version": 1, "modules": {"a": ["b"], "b": ["a"]}})");
  f = lint::check_layers({}, cyclic, "tools/lint_layers.json");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::LayerCycle);
  EXPECT_NE(f[0].message.find("cycle"), std::string::npos);
}

TEST(Layers, FileIncludeCycleIsReportedWithFullPath) {
  const auto cfg = layers_of(R"({"version": 1, "modules": {"db": []}})");
  const auto f = lint::check_layers(
      {file_with("src/include/mth/db/a.hpp", "#include \"mth/db/b.hpp\"\n"),
       file_with("src/include/mth/db/b.hpp", "#include \"mth/db/a.hpp\"\n")},
      cfg, "cfg.json");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, Rule::LayerCycle);
  EXPECT_NE(f[0].message.find("a.hpp"), std::string::npos);
  EXPECT_NE(f[0].message.find("b.hpp"), std::string::npos);
}

TEST(Layers, InlineSuppressionsCoverBothLayerRules) {
  const auto cfg =
      layers_of(R"({"version": 1, "modules": {"rap": [], "serve": []}})");
  EXPECT_TRUE(
      lint::check_layers(
          {file_with("src/rap/x.cpp",
                     "// mth-lint: allow(layer-violation): fixture\n"
                     "#include \"mth/serve/api.hpp\"\n")},
          cfg, "cfg.json")
          .empty());
  EXPECT_TRUE(
      lint::check_layers(
          {file_with("src/include/mth/rap/a.hpp",
                     "#include \"mth/rap/b.hpp\"  "
                     "// mth-lint: allow(layer-cycle): fixture\n"),
           file_with("src/include/mth/rap/b.hpp",
                     "#include \"mth/rap/a.hpp\"  "
                     "// mth-lint: allow(layer-cycle): fixture\n")},
          cfg, "cfg.json")
          .empty());
}

// --- rule ids, JSON v2, SARIF ---------------------------------------------

TEST(RuleIds, EveryRuleRoundTripsAndHasADescription) {
  const Rule all[] = {
      Rule::DetRand,        Rule::DetThread,      Rule::DetUnordered,
      Rule::UnorderedIter,  Rule::TraceRegistry,  Rule::AbDoc,
      Rule::SimdMerge,      Rule::IhpwlFullScan,  Rule::RowRescan,
      Rule::ParCaptureRace, Rule::FpOrderedMerge, Rule::LayerCycle,
      Rule::LayerViolation,
  };
  for (Rule r : all) {
    const auto back = lint::rule_from_string(lint::to_string(r));
    ASSERT_TRUE(back.has_value()) << lint::to_string(r);
    EXPECT_EQ(*back, r);
    EXPECT_GT(std::string(lint::rule_description(r)).size(), 10u);
  }
}

TEST(JsonOutput, V2EmitsCountsAndModule) {
  Finding a;
  a.rule = Rule::ParCaptureRace;
  a.file = "src/rap/shard.cpp";
  a.line = 3;
  a.message = "m";
  a.snippet = "s";
  Finding b = a;
  b.line = 9;
  const std::string js = lint::findings_to_json({a, b});
  EXPECT_NE(js.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"par-capture-race\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"module\": \"rap\""), std::string::npos);
  std::string error;
  const auto parsed = lint::parse_findings_json(js, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(JsonOutput, V1IsRejected) {
  const std::string v1 =
      "{\"version\": 1, \"total\": 1, \"findings\": [{\"rule\": "
      "\"det-rand\", \"file\": \"a.cpp\", \"line\": 4, \"message\": \"m\", "
      "\"snippet\": \"s\"}]}";
  std::string error;
  EXPECT_FALSE(lint::parse_findings_json(v1, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(JsonOutput, InconsistentV2CountsAreRejected) {
  Finding a;
  a.rule = Rule::LayerCycle;
  a.file = "x.hpp";
  a.message = "m";
  a.snippet = "s";
  std::string js = lint::findings_to_json({a});
  const std::string key = "\"layer-cycle\": 1";
  const std::size_t at = js.find(key);
  ASSERT_NE(at, std::string::npos);
  js.replace(at, key.size(), "\"layer-cycle\": 7");
  std::string error;
  EXPECT_FALSE(lint::parse_findings_json(js, &error).has_value());
  EXPECT_NE(error.find("counts"), std::string::npos);
}

TEST(Sarif, EmitterListsRulesAndClampsFileLevelFindings) {
  Finding f;
  f.rule = Rule::LayerCycle;
  f.file = "tools/lint_layers.json";
  f.line = 0;  // file-level — must clamp to startLine 1
  f.message = "declared module dependencies form a cycle";
  const std::string s = lint::findings_to_sarif({f});
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"mth_lint\""), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"layer-cycle\""), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"uri\": \"tools/lint_layers.json\""),
            std::string::npos);
  // Every rule is listed in the driver metadata, even unused ones.
  EXPECT_NE(s.find("\"id\": \"par-capture-race\""), std::string::npos);
  EXPECT_NE(s.find("\"id\": \"fp-ordered-merge\""), std::string::npos);
  EXPECT_NE(s.find("\"id\": \"det-rand\""), std::string::npos);
  const std::string empty = lint::findings_to_sarif({});
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos);
}

// --- tree scope: bench/tools/tests are first-class lint targets -----------

TEST(TreeScope, BenchToolsAndTestPathsAreInScopeForDetRules) {
  EXPECT_TRUE(has_rule(run("bench/bench_foo.cpp", "int x = std::rand();"),
                       Rule::DetRand));
  EXPECT_TRUE(
      has_rule(run("tools/gen.cpp", "std::thread t;"), Rule::DetThread));
  EXPECT_TRUE(has_rule(run("tests/foo_test.cpp", "srand(7);"),
                       Rule::DetRand));
}

// --- acceptance: seeded mutation against the real tree --------------------

#ifdef MTH_LINT_SRC_DIR
namespace {
std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Include edges of every source file under <dir>/src, labeled repo-relative
// and sorted, mirroring the CLI's tree walk.
std::vector<lint::FileIncludes> collect_src_includes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<lint::FileIncludes> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir + "/src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
    const std::string label =
        fs::relative(entry.path(), dir).generic_string();
    out.push_back({label, lint::collect_includes(slurp(entry.path().string()))});
  }
  std::sort(out.begin(), out.end(),
            [](const lint::FileIncludes& a, const lint::FileIncludes& b) {
              return a.file < b.file;
            });
  return out;
}
}  // namespace

TEST(Acceptance, RealRapSourceIsCleanAndMutationIsCaught) {
  const std::string dir = MTH_LINT_SRC_DIR;
  const std::string path = dir + "/src/rap/rap.cpp";
  const std::string original = slurp(path);
  ASSERT_FALSE(original.empty());

  EXPECT_TRUE(run("src/rap/rap.cpp", original).empty())
      << "the checked-in RAP solver must lint clean";

  // The acceptance-criteria mutation: a std::rand() call seeded into the
  // solver body must be caught.
  std::string mutated = original;
  const std::size_t at = mutated.find("{");
  ASSERT_NE(at, std::string::npos);
  mutated.insert(at + 1, "\nint mutation = std::rand();\n(void)mutation;\n");
  EXPECT_TRUE(has_rule(run("src/rap/rap.cpp", mutated), Rule::DetRand));
}

TEST(Acceptance, CheckedInRegistryMatchesTheRapSources) {
  const std::string dir = MTH_LINT_SRC_DIR;
  std::string error;
  const auto reg =
      lint::parse_registry(slurp(dir + "/tools/trace_spans.json"), &error);
  ASSERT_TRUE(reg.has_value()) << error;
  lint::Options options;
  options.registry = *reg;
  for (const char* rel : {"/src/rap/rap.cpp", "/src/cluster/kmeans.cpp",
                          "/src/flows/flow.cpp"}) {
    const std::string file = dir + rel;
    EXPECT_TRUE(run(std::string(rel).substr(1), slurp(file), options).empty())
        << file << " has unregistered trace names";
  }
}

TEST(Acceptance, SeededParallelMutationsInRealRapSiteAreCaught) {
  // Kill-switch test for the semantic rules: inject an unindexed by-ref
  // capture write and an FP accumulation into the real parallel_chunks
  // worker in src/rap/rap.cpp and assert both rules fire.
  const std::string dir = MTH_LINT_SRC_DIR;
  const std::string original = slurp(dir + "/src/rap/rap.cpp");
  const std::string anchor = "std::vector<double> dh(nrz);";
  const std::size_t at = original.find(anchor);
  ASSERT_NE(at, std::string::npos)
      << "parallel_chunks worker anchor moved; update this test";
  std::string mutated = original;
  mutated.insert(at + anchor.size(), " full_cost[0] = 0.0; beta += 1.0;");
  const auto f = run("src/rap/rap.cpp", mutated);
  EXPECT_TRUE(has_rule(f, Rule::ParCaptureRace));
  EXPECT_TRUE(has_rule(f, Rule::FpOrderedMerge));
}

TEST(Acceptance, RealParallelWorkersAreClean) {
  const std::string dir = MTH_LINT_SRC_DIR;
  for (const char* rel :
       {"/src/rap/shard.cpp", "/src/db/metrics.cpp",
        "/src/cluster/kmeans.cpp", "/src/ilp/solver.cpp"}) {
    const auto f = run(std::string(rel).substr(1), slurp(dir + rel));
    EXPECT_TRUE(f.empty()) << rel << ": "
                           << (f.empty() ? "" : f[0].message);
  }
}

TEST(Acceptance, CheckedInLayerConfigProvesTreeLayeredAndAcyclic) {
  const std::string dir = MTH_LINT_SRC_DIR;
  std::string error;
  const auto cfg =
      lint::parse_layers(slurp(dir + "/tools/lint_layers.json"), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto files = collect_src_includes(dir);
  ASSERT_GT(files.size(), 50u);
  const auto f = lint::check_layers(files, *cfg, "tools/lint_layers.json");
  EXPECT_TRUE(f.empty()) << (f.empty() ? "" : f[0].file + ": " + f[0].message);
}

TEST(Acceptance, DroppedDagEdgeInRealConfigIsCaught) {
  // Removing rap's declared dependency on ilp must surface the real
  // rap -> ilp includes as layer violations.
  const std::string dir = MTH_LINT_SRC_DIR;
  std::string json = slurp(dir + "/tools/lint_layers.json");
  const std::string edge = "\"ilp\", ";
  const std::size_t at = json.find(edge);
  ASSERT_NE(at, std::string::npos) << "rap's ilp edge moved; update test";
  json.erase(at, edge.size());
  std::string error;
  const auto cfg = lint::parse_layers(json, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto f = lint::check_layers(collect_src_includes(dir), *cfg,
                                    "tools/lint_layers.json");
  EXPECT_TRUE(has_rule(f, Rule::LayerViolation));
}
#endif  // MTH_LINT_SRC_DIR
