#include "mth/serve/serve.hpp"

#include <sstream>
#include <utility>

#include "mth/io/defio.hpp"
#include "mth/io/lefio.hpp"
#include "mth/synth/testcases.hpp"
#include "mth/trace/collector.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::serve {

namespace {

// Response lines are envelopes of kind "response"; `payload` carries the
// outcome-specific fields so cached replays are byte-identical except for
// the id and cache_hit members.
std::string respond(const std::string& id, const char* status, bool cache_hit,
                    const ser::Value* payload) {
  ser::Value resp = ser::make_envelope("response");
  resp.set("id", ser::Value::string(id));
  resp.set("status", ser::Value::string(status));
  resp.set("cache_hit", ser::Value::boolean(cache_hit));
  if (payload != nullptr) {
    for (const auto& kv : payload->members()) {
      resp.set(kv.first, kv.second);
    }
  }
  return ser::write_compact(resp);
}

std::string error_response(const std::string& id, const std::string& what) {
  ser::Value payload = ser::Value::object();
  payload.set("error", ser::Value::string(what));
  return respond(id, "error", false, &payload);
}

}  // namespace

Server::Server(ServeOptions options) : opt_(std::move(options)) {
  MTH_ASSERT(opt_.max_queue > 0, "serve: max_queue must be positive");
  MTH_ASSERT(opt_.cache_capacity > 0, "serve: cache_capacity must be positive");
  MTH_ASSERT(opt_.keep_results > 0, "serve: keep_results must be positive");
}

Server::~Server() = default;

int Server::queued() const { return queued_; }

std::shared_ptr<const rap::RapResult> Server::result_of(
    const std::string& id) const {
  const auto it = results_.find(id);
  return it == results_.end() ? nullptr : it->second;
}

std::optional<std::string> Server::submit(const std::string& line) {
  trace::SinkScope scope(opt_.ctx.sink);
  Job job;
  try {
    const ser::Value v = ser::parse(line);
    if (!v.is_object()) throw Error("serve: job envelope must be an object");
    const std::string kind = ser::envelope_kind(v);
    if (kind == "job") {
      ser::reject_unknown_keys(v,
                               {"mth_ser_version", "kind", "id", "tenant",
                                "flow", "route", "testcase", "lef", "def",
                                "options", "eco_base"},
                               "job");
    } else if (kind == "repro") {
      // mth_fuzz repro card, submittable verbatim: the fuzz-forensic
      // fields ride along and are ignored here.
      ser::reject_unknown_keys(v,
                               {"mth_ser_version", "kind", "id", "tenant",
                                "flow", "route", "testcase", "options",
                                "eco_base", "iteration", "seed_base",
                                "generator_seed", "target_cells", "scale",
                                "findings"},
                               "repro");
    } else {
      throw Error("serve: unsupported payload kind '" + kind + "'");
    }
    if (const ser::Value* f = v.find("id")) job.id = f->as_string();
    if (const ser::Value* f = v.find("tenant")) job.tenant = f->as_string();
    if (const ser::Value* f = v.find("flow")) {
      job.flow = static_cast<int>(f->as_int());
    }
    if (const ser::Value* f = v.find("route")) job.route = f->as_bool();
    if (const ser::Value* f = v.find("testcase")) {
      job.testcase = f->as_string();
    }
    if (const ser::Value* f = v.find("lef")) job.lef_path = f->as_string();
    if (const ser::Value* f = v.find("def")) job.def_path = f->as_string();
    if (const ser::Value* f = v.find("eco_base")) {
      job.eco_base = f->as_string();
    }
    if (const ser::Value* f = v.find("options")) {
      job.options = ser::flow_options_from_value(*f);
    }
    if (kind == "repro") {
      // A repro card's scale shortcut applies when no options envelope was
      // embedded.
      if (const ser::Value* f = v.find("scale")) {
        if (v.find("options") == nullptr) {
          job.options.scale = f->as_double();
        }
      }
    }
    const bool external = !job.lef_path.empty() || !job.def_path.empty();
    if (external && (job.lef_path.empty() || job.def_path.empty())) {
      throw Error("serve: lef and def must be given together");
    }
    if (job.testcase.empty() == !external) {
      throw Error("serve: job needs exactly one of testcase or lef+def");
    }
    if (job.flow < 1 || job.flow > 5) {
      throw Error("serve: flow must be in 1..5");
    }
  } catch (const Error& e) {
    return error_response(job.id, e.what());
  }
  if (queued_ >= opt_.max_queue) {
    ++rejected_;
    MTH_COUNT("serve/rejected", 1);
    ser::Value payload = ser::Value::object();
    payload.set("error",
                ser::Value::string("queue full (max_queue=" +
                                   std::to_string(opt_.max_queue) + ")"));
    return respond(job.id, "rejected", false, &payload);
  }
  ++accepted_;
  MTH_COUNT("serve/accepted", 1);
  if (job.id.empty()) job.id = "j" + std::to_string(accepted_);
  queues_[job.tenant].push_back(std::move(job));
  ++queued_;
  return std::nullopt;
}

std::optional<std::string> Server::step() {
  trace::SinkScope scope(opt_.ctx.sink);
  if (queued_ == 0) return std::nullopt;
  // Deterministic per-tenant fair pick: the first non-empty tenant strictly
  // after the previous pick in lexicographic order, wrapping — so a batch's
  // execution order is a pure function of its envelopes.
  auto it = queues_.upper_bound(cursor_);
  if (it == queues_.end()) it = queues_.begin();
  while (it->second.empty()) {
    ++it;
    if (it == queues_.end()) it = queues_.begin();
  }
  cursor_ = it->first;
  Job job = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --queued_;
  try {
    return execute(job);
  } catch (const Error& e) {
    ++completed_;
    return error_response(job.id, e.what());
  } catch (const std::exception& e) {
    ++completed_;
    return error_response(job.id, e.what());
  }
}

std::vector<std::string> Server::drain() {
  std::vector<std::string> responses;
  while (std::optional<std::string> r = step()) {
    responses.push_back(std::move(*r));
  }
  return responses;
}

std::string Server::execute(const Job& job) {
  // Constructed before the per-job collector is installed, so this span and
  // the serve/* counters report to the *server's* sink and a job's summary
  // stays identical to the same run through the mth_flow CLI.
  trace::Span job_span("serve/job");

  std::shared_ptr<const rap::RapResult> eco;
  if (!job.eco_base.empty()) {
    eco = result_of(job.eco_base);
    if (eco == nullptr) {
      throw Error("serve: eco_base job '" + job.eco_base +
                  "' is unknown, evicted, or kept no RAP result");
    }
  }

  // Canonical job identity for the result cache. Bundled testcases are
  // identified by name (the spec is immutable); external designs by the
  // canonical design hash, which costs one read of files the run needs
  // anyway. ECO jobs append their base id: a warm hint may legitimately
  // steer branch & bound to a different optimum, so hot and cold runs are
  // distinct cache entries.
  Design ext;
  const bool external = !job.def_path.empty();
  std::string key;
  if (external) {
    const io::LefResult lr = io::read_lef_file(job.lef_path);
    ext = io::read_design_file(job.def_path, lr.library);
    key = "d:" + ser::hash_hex(ser::canonical_design_hash(ext));
  } else {
    key = "tc:" + job.testcase;
  }
  key += ":o:" + ser::hash_hex(ser::canonical_options_hash(job.options));
  key += ":f:" + std::to_string(job.flow);
  key += job.route ? ":r1" : ":r0";
  if (!job.eco_base.empty()) key += ":e:" + job.eco_base;

  auto remember = [&](const std::shared_ptr<const rap::RapResult>& rap) {
    if (results_.find(job.id) == results_.end()) {
      results_order_.push_back(job.id);
    }
    results_[job.id] = rap;
    while (static_cast<int>(results_order_.size()) > opt_.keep_results) {
      results_.erase(results_order_.front());
      results_order_.pop_front();
    }
  };

  if (opt_.cache) {
    const auto hit = cache_.find(key);
    if (hit != cache_.end()) {
      ++cache_hits_;
      ++completed_;
      MTH_COUNT("serve/cache_hits", 1);
      remember(hit->second.rap);
      return respond(job.id, "ok", true, &hit->second.payload);
    }
  }

  // Cold run: per-job RunContext — the job's own collector wired exactly
  // like mth_flow wires --trace-summary (FlowOptions::ctx.sink; prepare and
  // run_flow install it themselves), thread policy from the server.
  trace::Collector collector;
  flows::FlowOptions opt = job.options;
  opt.ctx.exec.num_threads = opt_.ctx.exec.num_threads;
  opt.ctx.sink = &collector;
  opt.rap.eco_base = eco;

  flows::PreparedCase pc =
      external ? flows::prepare_external_case(std::move(ext), opt)
               : flows::prepare_case(synth::spec_by_name(job.testcase), opt);
  const flows::FlowOutput out =
      flows::run_flow(pc, static_cast<flows::FlowId>(job.flow), opt,
                      job.route, /*capture_design=*/true);
  const flows::FlowResult& res = out.result;

  ser::Value metrics = ser::Value::object();
  metrics.set("displacement", ser::Value::integer(res.displacement));
  metrics.set("hpwl", ser::Value::integer(res.hpwl));
  metrics.set("num_clusters", ser::Value::integer(res.num_clusters));
  metrics.set("n_min_pairs", ser::Value::integer(res.n_min_pairs));
  metrics.set("assign_seconds", ser::Value::number(res.assign_seconds));
  metrics.set("legal_seconds", ser::Value::number(res.legal_seconds));
  metrics.set("ilp_seconds", ser::Value::number(res.ilp_seconds));
  if (pc.rap_cache != nullptr) {
    metrics.set("lp_iterations",
                ser::Value::integer(pc.rap_cache->lp_iterations));
    metrics.set("basis_reuse_hits",
                ser::Value::integer(pc.rap_cache->basis_reuse_hits));
  }
  if (res.routed) {
    metrics.set("routed_wl", ser::Value::integer(res.post.routed_wl));
    metrics.set("overflowed_edges",
                ser::Value::integer(res.post.overflowed_edges));
  }

  std::ostringstream def_os;
  io::write_design(def_os, *out.design);
  std::ostringstream summary_os;
  collector.write_summary(summary_os);

  ser::Value payload = ser::Value::object();
  payload.set("testcase", ser::Value::string(res.testcase));
  payload.set("flow", ser::Value::integer(job.flow));
  payload.set("metrics", std::move(metrics));
  payload.set("def", ser::Value::string(def_os.str()));
  payload.set("trace_summary", ser::Value::string(summary_os.str()));

  remember(pc.rap_cache);
  ++completed_;
  if (opt_.cache) {
    if (cache_.find(key) == cache_.end()) cache_order_.push_back(key);
    cache_[key] = CacheEntry{payload, pc.rap_cache};
    while (static_cast<int>(cache_order_.size()) > opt_.cache_capacity) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
  }
  return respond(job.id, "ok", false, &payload);
}

}  // namespace mth::serve
