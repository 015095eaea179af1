// Experiment P5 — windowed/sharded RAP at 10-100x the reduced bench scale.
//
// For each testcase the RAP is solved three ways on identical prepared input:
//   whole      rap::solve_rap with shards = 1 — one monolithic branch &
//              bound (baseline);
//   sharded    rap::solve_rap with MTH_SHARDS bands (0 = auto-size)
//              plus boundary-window repair, solved twice (1 thread, then
//              MTH_THREADS workers) and checked bit-identical;
//   batch-B&B  whole-design solve again with ilp.node_batch = MTH_NODE_BATCH
//              so the deterministic batch-parallel node loop is exercised.
// The sharded objective must stay within MTH_SHARD_GAP (default 0.15 — the
// certifier's root integrality window) of the whole-design objective, and the
// merged result is certified through verify::certify_rap's per-band
// aggregation path. The process exits nonzero when the window or the
// bit-identity check fails, or when the sharded-vs-whole wall-clock speedup
// falls below MTH_SHARD_MIN_SPEEDUP (default 0 = report only; the committed
// EXPERIMENTS run gates at 3). BENCH_shard.json is emitted (override with
// MTH_SHARD_JSON); tools/perf_smoke.sh checks its schema at reduced scale.
//
// Why sharding wins wall-clock even on one core: the dense-LU LP
// factorization behind every B&B node is cubic in the row count, so B band
// subproblems of ~1/B the rows are far cheaper than one monolithic tree —
// the speedup is algorithmic, not thread-count-dependent.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "mth/rap/rap.hpp"
#include "mth/report/table.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"
#include "mth/util/timer.hpp"
#include "mth/verify/certifier.hpp"

namespace {

struct ShardRecord {
  std::string testcase;
  int minority_cells = 0;
  int clusters = 0;
  int pairs = 0;
  int bands = 0;
  int repair_moves = 0;
  std::string whole_status;
  std::string shard_status;
  double whole_s = 0.0;   ///< whole-design solve wall clock
  double shard_s = 0.0;   ///< sharded solve wall clock (1 thread)
  double whole_obj = 0.0;
  double shard_obj = 0.0;
  double speedup = 0.0;   ///< whole_s / shard_s
  double rel_dev = 0.0;   ///< (shard_obj - whole_obj)/max(|whole_obj|,1)
  bool dev_ok = true;
  bool identical = false;  ///< sharded bit-identical across 1 vs N threads
  bool certified = false;  ///< verify::certify_rap band aggregation passed
  double certified_gap = 0.0;
  long long whole_nodes = 0;
  long long shard_nodes = 0;
  int node_batch = 1;
  double batch_s = 0.0;       ///< whole-design solve, batch-parallel B&B
  double batch_speedup = 0.0; ///< whole_s / batch_s (honest: ~1.0 on 1 core)
};

void write_shard_json(const std::vector<ShardRecord>& records, int threads) {
  const char* env = std::getenv("MTH_SHARD_JSON");
  const std::string path =
      env != nullptr && *env != '\0' ? env : "BENCH_shard.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[bench] cannot write " << path << "\n";
    return;
  }
  out << "{\n"
      << "  \"source\": \"bench_scaling\",\n"
      << "  \"scale\": " << mth::bench::bench_scale() << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ShardRecord& r = records[i];
    out << "    {\"testcase\": \"" << r.testcase << "\", "
        << "\"minority_cells\": " << r.minority_cells << ", "
        << "\"clusters\": " << r.clusters << ", "
        << "\"pairs\": " << r.pairs << ", "
        << "\"bands\": " << r.bands << ", "
        << "\"repair_moves\": " << r.repair_moves << ", "
        << "\"whole_status\": \"" << r.whole_status << "\", "
        << "\"shard_status\": \"" << r.shard_status << "\", "
        << "\"whole_s\": " << r.whole_s << ", "
        << "\"shard_s\": " << r.shard_s << ", "
        << "\"speedup\": " << r.speedup << ", "
        << "\"whole_obj\": " << r.whole_obj << ", "
        << "\"shard_obj\": " << r.shard_obj << ", "
        << "\"rel_dev\": " << r.rel_dev << ", "
        << "\"dev_ok\": " << (r.dev_ok ? "true" : "false") << ", "
        << "\"identical\": " << (r.identical ? "true" : "false") << ", "
        << "\"certified\": " << (r.certified ? "true" : "false") << ", "
        << "\"certified_gap\": " << r.certified_gap << ", "
        << "\"whole_nodes\": " << r.whole_nodes << ", "
        << "\"shard_nodes\": " << r.shard_nodes << ", "
        << "\"node_batch\": " << r.node_batch << ", "
        << "\"batch_s\": " << r.batch_s << ", "
        << "\"batch_speedup\": " << r.batch_speedup << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\n[bench] wrote " << path << " (" << records.size()
            << " records)\n";
}

}  // namespace

int main() {
  using namespace mth;
  set_log_level(LogLevel::Warn);
  std::cout << "=== P5: sharded RAP vs whole-design at scaled-up instances"
               " ===\n"
            << bench::scale_banner() << "\n"
            << "MTH_SHARDS (0 = auto) / MTH_NODE_BATCH / MTH_SHARD_GAP /"
               " MTH_SHARD_MIN_SPEEDUP to tune\n\n";

  flows::FlowOptions opt = bench::bench_options();
  opt.rap.ilp.rel_gap = bench::env_double("MTH_ILP_GAP", 0.02);
  const int shards = bench::env_int("MTH_SHARDS", 0);
  const int node_batch = bench::env_int("MTH_NODE_BATCH", 8);
  const double gap_window = bench::env_double("MTH_SHARD_GAP", 0.15);
  const double min_speedup = bench::env_double("MTH_SHARD_MIN_SPEEDUP", 0.0);
  const int threads = util::default_num_threads();

  report::Table t({"Testcase", "minority insts", "clusters", "bands",
                   "whole (s)", "shard (s)", "speedup", "rel dev", "repairs",
                   "batch B&B (s)", "identical"});

  std::vector<ShardRecord> records;
  bool all_ok = true;
  double speedup_prod = 1.0;
  int speedup_n = 0;
  for (const synth::TestcaseSpec& spec : bench::bench_specs()) {
    std::cerr << "[scaling] " << spec.short_name << "...\n";
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    rap::RapOptions ro = opt.rap;
    ro.n_min_pairs = pc.n_min_pairs;
    ro.width_library = pc.original_library.get();
    ro.ctx.exec.num_threads = 1;
    ro.shards = 1;

    // Whole-design baseline: one monolithic branch & bound.
    WallTimer t_whole;
    const rap::RapResult whole = rap::solve_rap(pc.initial, ro);
    const double whole_s = t_whole.seconds();

    // Sharded, 1 thread (the speedup claim must hold without parallelism).
    rap::RapOptions sro = ro;
    sro.shards = shards;
    sro.export_certificate = true;
    WallTimer t_shard;
    const rap::RapResult shard = rap::solve_rap(pc.initial, sro);
    const double shard_s = t_shard.seconds();

    // Sharded again with the worker pool: must be bit-identical.
    sro.ctx.exec.num_threads = threads;
    const rap::RapResult shard_p = rap::solve_rap(pc.initial, sro);

    // Whole-design once more through the batch-parallel B&B node loop.
    rap::RapOptions bro = ro;
    bro.ilp.node_batch = node_batch;
    bro.ctx.exec.num_threads = threads;
    WallTimer t_batch;
    const rap::RapResult batch = rap::solve_rap(pc.initial, bro);
    const double batch_s = t_batch.seconds();

    ShardRecord r;
    r.testcase = spec.short_name;
    r.minority_cells = pc.minority_cells;
    r.clusters = whole.num_clusters;
    r.pairs = pc.initial.floorplan.num_pairs();
    r.bands = static_cast<int>(shard.bands.size());
    r.repair_moves = shard.repair_moves;
    r.whole_status = ilp::to_string(whole.status);
    r.shard_status = ilp::to_string(shard.status);
    r.whole_s = whole_s;
    r.shard_s = shard_s;
    r.speedup = bench::speedup(whole_s, shard_s);
    r.whole_obj = whole.objective;
    r.shard_obj = shard.objective;
    r.whole_nodes = whole.ilp_nodes;
    r.shard_nodes = shard.ilp_nodes;
    r.node_batch = node_batch;
    r.batch_s = batch_s;
    r.batch_speedup = bench::speedup(whole_s, batch_s);
    r.identical =
        shard.assignment.pair_is_minority ==
            shard_p.assignment.pair_is_minority &&
        shard.cluster_pair == shard_p.cluster_pair &&
        shard.objective == shard_p.objective &&
        shard.repair_moves == shard_p.repair_moves;
    if (!r.identical) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": sharded result differs between 1 and " << threads
                << " threads\n";
      all_ok = false;
    }

    // Objective-quality window: sharding may only cost a bounded fraction of
    // the whole-design objective (boundary repair often recovers most of it).
    const double denom =
        std::abs(whole.objective) > 1e-12 ? std::abs(whole.objective) : 1.0;
    r.rel_dev = (shard.objective - whole.objective) / denom;
    r.dev_ok = r.rel_dev <= gap_window;
    if (!r.dev_ok) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": sharded objective deviates " << r.rel_dev
                << " > allowed " << gap_window << " (whole " << whole.objective
                << ", sharded " << shard.objective << ")\n";
      all_ok = false;
    }

    // Independent certification through the per-band aggregation path.
    const verify::CertifyReport cr =
        verify::certify_rap(pc.initial, shard, sro);
    r.certified = cr.ok();
    r.certified_gap = cr.certified_gap;
    if (!r.certified) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": certifier rejected sharded result: " << cr.summary()
                << "\n";
      all_ok = false;
    }

    records.push_back(r);
    speedup_prod *= r.speedup > 0.0 ? r.speedup : 1.0;
    ++speedup_n;
    t.add_row({spec.short_name, format_count(pc.minority_cells),
               format_count(whole.num_clusters), std::to_string(r.bands),
               format_fixed(whole_s, 2), format_fixed(shard_s, 2),
               format_fixed(r.speedup, 2), format_fixed(r.rel_dev, 4),
               std::to_string(r.repair_moves), format_fixed(batch_s, 2),
               r.identical ? "yes" : "NO"});
  }
  t.print(std::cout);

  const double geomean =
      speedup_n > 0 ? std::exp(std::log(speedup_prod) /
                               static_cast<double>(speedup_n))
                    : 0.0;
  std::cout << "\nSharded vs whole-design: geomean wall-clock speedup "
            << format_fixed(geomean, 2) << "x across " << speedup_n
            << " case(s); batch-parallel B&B measured on "
            << threads << " worker(s) (a 1-core host reports ~1.0x — the"
               " sharding speedup above is algorithmic, not thread count)\n";
  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::cerr << "[scaling] FAIL: geomean speedup " << format_fixed(geomean, 2)
              << " < required " << min_speedup << "\n";
    all_ok = false;
  }
  write_shard_json(records, threads);
  return all_ok ? 0 : 1;
}
