#pragma once
// mth_lint — in-house static analyzer for this repository's own invariants.
//
// The determinism guarantees the reproduction rests on (bit-identical runs
// at any MTH_THREADS, seeded randomness only, registered trace span names,
// documented A/B knobs) are enforced dynamically by tools/check_determinism.sh
// and friends — but a single careless `std::rand()` or `unordered_map`
// iteration in a hot path breaks them silently until the next full run. This
// module gates those invariants *statically*, at commit time:
//
//  * determinism rules — no std::rand/srand/time(...)/clock(...) calls, no
//    std::random_device (util::Rng is the only sanctioned randomness), no raw
//    std::thread / std::async outside the util module (util::ThreadPool is
//    the only sanctioned concurrency), and no unordered containers at all in
//    the deterministic subsystems (rap, cluster, lp, ilp, legal, flows,
//    verify, io, synth — everything whose output feeds golden tests).
//  * trace rules — every MTH_SPAN("...") / MTH_COUNT("...") literal and
//    ParallelOptions::trace_name literal must appear in the checked-in span
//    registry (tools/trace_spans.json), which tools/trace_schema_check.py
//    consumes to validate runtime artifacts; stale registry entries fail too,
//    so the registry is always exactly the set of literals in the tree.
//  * convention rules — any doc block mentioning an "A/B" knob in the public
//    lp/ilp/rap headers must name the bench or tool where the A/B lives
//    (the unified bench+flag doc convention from the observability PR).
//  * kernel rules — vector intrinsics (_mm* / __m<width>*) may only appear
//    in the mth::simd module (util/simd), and horizontal-merge intrinsics
//    (hadd/hsub/reduce families) are banned everywhere: lane reductions must
//    merge in index order (simd::argmin_merge) to stay bit-identical to the
//    scalar tier. And total_hpwl() — a full-netlist rescan — inside a loop
//    in the rap or legal modules needs an inline justification; per-move
//    costing goes through db::IncrementalHpwl instead. Similarly, the
//    detailed-placement sweeps (legal/polish, legal/improve) hold an O(1)
//    neighbor-query contract through legal::RowList: row_at_y(...) and
//    sort/stable_sort calls are banned there, so a per-sweep row re-bucket
//    or re-sort cannot creep back in (legal/rowlist.cpp's build is the one
//    sanctioned scan).
//
//  * parallel rules — the semantic layer (v2). A lightweight scope parser on
//    top of the token stream recovers function/lambda boundaries, capture
//    lists, lambda parameters and body-local declarations, and analyzes the
//    worker lambda of every parallel_for / parallel_chunks / parallel_reduce
//    call site: writes through by-reference captures to shared non-atomic
//    state that is not indexed by a chunk/index parameter are flagged
//    (par-capture-race — the static complement to the TSan CI leg, which
//    only sees interleavings that execute), and floating-point += / -= / *=
//    accumulation on captured state inside a worker body is flagged
//    separately (fp-ordered-merge — it bypasses the ordered per-chunk merge
//    that keeps results bit-identical at any MTH_THREADS).
//  * layering rules — an include-graph extractor over every scanned file
//    checks the `#include "mth/..."` edges against the module DAG declared
//    in tools/lint_layers.json: a module may only include modules in the
//    transitive closure of its declared dependencies (layer-violation), and
//    the file-level include graph must be acyclic (layer-cycle). Adding a
//    module or a new cross-module edge means amending the checked-in DAG —
//    a reviewed, explicit act rather than an accidental #include.
//
// The analyzer is a token-level scanner, not a compiler: it strips comments
// and string/char literals with a small state machine (raw strings included)
// and pattern-matches the remaining token stream; the v2 passes add brace/
// paren matching and declaration tracking on top, but no type checking or
// template instantiation. That is deliberate — the rules are lexical (or
// scope-lexical) by design so the tool stays dependency-free, runs on the
// whole tree in well under the 5 s CI budget, and can be unit-tested with
// inline fixtures. Pointer laundering (stashing a captured pointer in a
// local and writing through it) is out of lexical reach; TSan remains the
// dynamic backstop for that.
//
// A finding is suppressed only inline, with a justification comment the
// scanner recognizes on the same or preceding line:
//   // mth-lint: allow(det-unordered): lookup-only table
//
// Entry points: lint_source() over one buffer (unit tests, editors),
// tools/mth_lint for the tree walk + registry/layers plumbing, and the
// tier-1 `lint_repo` ctest which runs the CLI over the repository.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mth::lint {

enum class Rule {
  DetRand,        ///< det-rand: unseeded randomness / wall-clock entropy
  DetThread,      ///< det-thread: raw std::thread / std::async outside util
  DetUnordered,   ///< det-unordered: unordered container in a det subsystem
  UnorderedIter,  ///< unordered-iter: iteration over an unordered container
  TraceRegistry,  ///< trace-registry: span/counter literal not registered
  AbDoc,          ///< ab-doc: A/B knob doc without a bench/tool reference
  SimdMerge,      ///< simd-merge: vector intrinsic outside mth::simd, or a
                  ///< horizontal lane-merge intrinsic anywhere
  IhpwlFullScan,  ///< ihpwl-full-scan: total_hpwl() in a rap/legal loop
  RowRescan,      ///< row-rescan: row_at_y / sort in legal/polish|improve
  ParCaptureRace,  ///< par-capture-race: unindexed by-ref-capture write in a
                   ///< parallel worker lambda
  FpOrderedMerge,  ///< fp-ordered-merge: FP accumulation on captured state
                   ///< inside a parallel worker body
  LayerCycle,      ///< layer-cycle: include cycle (files or declared DAG)
  LayerViolation,  ///< layer-violation: include edge outside the declared
                   ///< module DAG (tools/lint_layers.json)
};

/// Stable kebab-case rule id, used in diagnostics, suppression comments,
/// and the JSON output ("det-rand", "trace-registry", ...).
const char* to_string(Rule r);
std::optional<Rule> rule_from_string(std::string_view id);

/// One-line rule description (SARIF rules metadata, --help output).
const char* rule_description(Rule r);

/// One diagnostic. `file` is whatever path label the caller passed in
/// (repo-relative by convention); `snippet` is the trimmed source line the
/// finding anchors to.
struct Finding {
  Rule rule = Rule::DetRand;
  std::string file;
  int line = 0;  ///< 1-based; 0 for file-level findings (stale registry)
  std::string message;
  std::string snippet;
};

/// The checked-in span-name registry (tools/trace_spans.json). An empty
/// registry disables the trace-registry rule in lint_source().
struct Registry {
  std::vector<std::string> spans;     ///< MTH_SPAN + ParallelOptions::trace_name
  std::vector<std::string> counters;  ///< MTH_COUNT
  bool empty() const { return spans.empty() && counters.empty(); }
};

struct Options {
  Registry registry;
};

/// Lint one source buffer. `file` is the path label used both for
/// diagnostics and for the path-based rule scoping (deterministic-subsystem
/// detection, util-module thread allowlist, lp/ilp/rap header convention),
/// so pass repo-relative paths with forward slashes.
std::vector<Finding> lint_source(const std::string& file,
                                 std::string_view text,
                                 const Options& options = {});

/// Span/counter literals used by a source buffer (for registry generation
/// and the tree-level stale-entry check). Each literal is reported once per
/// buffer in first-use order.
struct TraceUses {
  std::vector<std::string> spans;
  std::vector<std::string> counters;
};
TraceUses collect_trace_uses(std::string_view text);

// --- include graph + layering --------------------------------------------
// The layering contract is declared module-by-module in a checked-in JSON
// config (tools/lint_layers.json): each module lists the modules it may
// depend on *directly*; the transitive closure is computed here, so the
// config stays minimal. check_layers() enforces three things over the
// include edges collected from the tree:
//  * the declared module graph itself is acyclic and closed (every listed
//    dependency is itself declared) — config errors are findings too, so a
//    bad edit to the JSON fails the same gate;
//  * every `#include "mth/X/..."` from a file in module M has X in the
//    transitive closure of M's declared dependencies (layer-violation);
//  * the file-level include graph over the scanned tree is acyclic
//    (layer-cycle; the finding names the full cycle path).
// Files outside src/ (tools, tests, bench, examples) have no module and are
// exempt from the violation check, but their edges still feed cycle
// detection. Inline suppressions on the offending #include line work as for
// every other rule.

/// One `#include "..."` edge as written in a source buffer. Only quoted
/// includes are collected — that is the project convention for first-party
/// headers; angle includes are system/third-party by definition.
struct IncludeUse {
  std::string target;  ///< include path as written, e.g. "mth/rap/rap.hpp"
  int line = 0;
  bool allow_violation = false;  ///< inline layer-violation suppression
  bool allow_cycle = false;      ///< inline layer-cycle suppression
  std::string snippet;           ///< trimmed source line
};
std::vector<IncludeUse> collect_includes(std::string_view text);

struct FileIncludes {
  std::string file;  ///< repo-relative label, as passed to lint_source
  std::vector<IncludeUse> includes;
};

/// The declared module DAG. Order is preserved from the config file so
/// diagnostics and regenerated JSON are diff-stable.
struct LayerConfig {
  std::vector<std::pair<std::string, std::vector<std::string>>> modules;
  bool empty() const { return modules.empty(); }
};
std::optional<LayerConfig> parse_layers(std::string_view json,
                                        std::string* error);
std::string layers_to_json(const LayerConfig& config);

/// Run the layering + cycle analysis over the collected include edges.
/// `config_label` names the config file in config-level findings (pass the
/// repo-relative path of lint_layers.json).
std::vector<Finding> check_layers(const std::vector<FileIncludes>& files,
                                  const LayerConfig& config,
                                  const std::string& config_label);

// --- serialization -------------------------------------------------------
// All readers accept exactly what the writers emit (plus whitespace); on
// malformed input they return nullopt and set *error to a short description.

/// Schema v2: {"version": 2, "total": N, "counts": {"<rule>": n, ...},
/// "findings": [{rule, file, line, module, message, snippet}, ...]}.
/// parse_findings_json rejects any other version.
std::string findings_to_json(const std::vector<Finding>& findings);
std::optional<std::vector<Finding>> parse_findings_json(std::string_view json,
                                                        std::string* error);

/// SARIF 2.1.0 (one run, tool "mth_lint", every rule listed with its
/// description) — the format GitHub code scanning ingests for inline PR
/// annotations. File-level findings (line 0) clamp to startLine 1 as the
/// SARIF spec requires regions to be 1-based.
std::string findings_to_sarif(const std::vector<Finding>& findings);

std::string registry_to_json(const Registry& registry);
std::optional<Registry> parse_registry(std::string_view json,
                                       std::string* error);

}  // namespace mth::lint
