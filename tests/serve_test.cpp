// mth::serve tests: envelope admission, deterministic tenant round-robin,
// cache-hit replay identity, overload rejects, and warm-started ECO re-solve
// through eco_base.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mth/serve/serve.hpp"

namespace mth::serve {
namespace {

// A small, fast job: aes_300 at 5% through the full proposed flow.
std::string job_line(const std::string& id, const std::string& tenant,
                     const std::string& extra = "") {
  return "{\"mth_ser_version\": 1, \"kind\": \"job\", \"id\": \"" + id +
         "\", \"tenant\": \"" + tenant +
         "\", \"testcase\": \"aes_300\", \"flow\": 5, \"options\": "
         "{\"mth_ser_version\": 1, \"kind\": \"flow_options\", \"scale\": "
         "0.05, \"rap\": {\"mth_ser_version\": 1, \"kind\": \"rap_options\", "
         "\"ilp\": {\"time_limit_s\": 10}}}" +
         extra + "}";
}

ser::Value parse_response(const std::string& line) {
  const ser::Value v = ser::parse(line);
  EXPECT_EQ(ser::envelope_kind(v), "response");
  return v;
}

TEST(Serve, SubmitDrainOk) {
  Server server({});
  ASSERT_EQ(server.submit(job_line("a", "t")), std::nullopt);
  EXPECT_EQ(server.queued(), 1);
  const std::vector<std::string> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  const ser::Value v = parse_response(out[0]);
  EXPECT_EQ(v.get("id").as_string(), "a");
  EXPECT_EQ(v.get("status").as_string(), "ok");
  EXPECT_FALSE(v.get("cache_hit").as_bool());
  EXPECT_GT(v.get("metrics").get("hpwl").as_int(), 0);
  EXPECT_GT(v.get("metrics").get("num_clusters").as_int(), 0);
  // The def payload is the defio interchange text of the final placement.
  EXPECT_NE(v.get("def").as_string().find("# mth-placement design"),
            std::string::npos);
  EXPECT_NE(v.get("def").as_string().find("\ninst "), std::string::npos);
  EXPECT_FALSE(v.get("trace_summary").as_string().empty());
  EXPECT_EQ(server.completed(), 1);
  EXPECT_NE(server.result_of("a"), nullptr);
}

TEST(Serve, CacheHitReplaysByteIdentically) {
  Server server({});
  ASSERT_EQ(server.submit(job_line("first", "t")), std::nullopt);
  ASSERT_EQ(server.submit(job_line("second", "t")), std::nullopt);
  const std::vector<std::string> out = server.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(server.cache_hits(), 1);
  EXPECT_FALSE(parse_response(out[0]).get("cache_hit").as_bool());
  EXPECT_TRUE(parse_response(out[1]).get("cache_hit").as_bool());
  // Responses are byte-identical apart from the id and cache_hit members.
  std::string a = out[0], b = out[1];
  auto canon = [](std::string s, const std::string& id) {
    const std::string id_field = "\"id\":\"" + id + "\"";
    s.replace(s.find(id_field), id_field.size(), "\"id\":\"X\"");
    const std::string hit_t = "\"cache_hit\":true";
    const std::string hit_f = "\"cache_hit\":false";
    const std::size_t p = s.find(hit_t);
    if (p != std::string::npos) s.replace(p, hit_t.size(), hit_f);
    return s;
  };
  EXPECT_EQ(canon(a, "first"), canon(b, "second"));
  // Both jobs left the same referenceable RapResult.
  EXPECT_EQ(server.result_of("first"), server.result_of("second"));
}

TEST(Serve, NoCacheRunsCold) {
  ServeOptions opt;
  opt.cache = false;
  Server server(opt);
  ASSERT_EQ(server.submit(job_line("a", "t")), std::nullopt);
  ASSERT_EQ(server.submit(job_line("b", "t")), std::nullopt);
  const std::vector<std::string> out = server.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(server.cache_hits(), 0);
  EXPECT_FALSE(parse_response(out[1]).get("cache_hit").as_bool());
}

TEST(Serve, RejectsOnOverload) {
  ServeOptions opt;
  opt.max_queue = 1;
  Server server(opt);
  ASSERT_EQ(server.submit(job_line("a", "t")), std::nullopt);
  const std::optional<std::string> r = server.submit(job_line("b", "t"));
  ASSERT_TRUE(r.has_value());
  const ser::Value v = parse_response(*r);
  EXPECT_EQ(v.get("status").as_string(), "rejected");
  EXPECT_EQ(v.get("id").as_string(), "b");
  EXPECT_EQ(server.rejected(), 1);
  EXPECT_EQ(server.queued(), 1);
}

TEST(Serve, TenantRoundRobinIsDeterministic) {
  ServeOptions opt;
  opt.cache = false;  // cold runs so every response reports its own job
  Server server(opt);
  // Interleave submits adversarially: one tenant floods first.
  ASSERT_EQ(server.submit(job_line("b1", "bob")), std::nullopt);
  ASSERT_EQ(server.submit(job_line("b2", "bob")), std::nullopt);
  ASSERT_EQ(server.submit(job_line("a1", "alice")), std::nullopt);
  ASSERT_EQ(server.submit(job_line("a2", "alice")), std::nullopt);
  std::vector<std::string> ids;
  for (const std::string& line : server.drain()) {
    ids.push_back(parse_response(line).get("id").as_string());
  }
  // Lexicographic round-robin over tenants: alice, bob, alice, bob.
  EXPECT_EQ(ids, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Serve, MalformedAndInvalidEnvelopes) {
  Server server({});
  // Not JSON at all.
  const auto r1 = server.submit("not json");
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(parse_response(*r1).get("status").as_string(), "error");
  // Unknown field: versioned envelopes are closed schemas.
  const auto r2 = server.submit(job_line("x", "t", ", \"typo_field\": 1"));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(parse_response(*r2).get("status").as_string(), "error");
  // Future schema version.
  const auto r3 = server.submit(
      "{\"mth_ser_version\": 99, \"kind\": \"job\", \"testcase\": \"x\"}");
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(parse_response(*r3).get("status").as_string(), "error");
  // Unknown testcase fails at execution, not admission.
  const auto r4 = server.submit(
      "{\"mth_ser_version\": 1, \"kind\": \"job\", \"id\": \"bad\", "
      "\"testcase\": \"no_such_case\"}");
  EXPECT_EQ(r4, std::nullopt);
  const std::vector<std::string> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(parse_response(out[0]).get("status").as_string(), "error");
  EXPECT_EQ(server.accepted(), 1);
}

TEST(Serve, LegacyReproCardRejected) {
  // The pre-ser ad-hoc card (no envelope) gets a typed error at admission.
  Server server({});
  const auto r = server.submit(
      "{\"testcase\": \"aes_300\", \"iteration\": 3, \"seed_base\": 1, "
      "\"generator_seed\": 7, \"target_cells\": 120, \"scale\": 0.05, "
      "\"findings\": [\"x\"]}");
  ASSERT_TRUE(r.has_value());
  const ser::Value v = parse_response(*r);
  EXPECT_EQ(v.get("status").as_string(), "error");
  EXPECT_NE(v.get("error").as_string().find("mth_ser_version"),
            std::string::npos);
  EXPECT_EQ(server.accepted(), 0);
  EXPECT_TRUE(server.drain().empty());
}

TEST(Serve, EcoBaseHotStartsFromPriorJob) {
  Server server({});
  ASSERT_EQ(server.submit(job_line("base", "t")), std::nullopt);
  ASSERT_EQ(server.drain().size(), 1u);
  ASSERT_NE(server.result_of("base"), nullptr);
  // Same case resubmitted as an ECO against the base job: distinct cache
  // key (warm hints may steer the search), runs ok, hot-start telemetry in
  // the rap result it leaves behind.
  const auto r =
      server.submit(job_line("eco", "t", ", \"eco_base\": \"base\""));
  EXPECT_EQ(r, std::nullopt);
  const std::vector<std::string> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  const ser::Value v = parse_response(out[0]);
  EXPECT_EQ(v.get("status").as_string(), "ok");
  EXPECT_FALSE(v.get("cache_hit").as_bool()) << "eco jobs must not alias the "
                                                "cold entry";
  // An unperturbed re-solve agrees with the base run (replayed from cache).
  ASSERT_EQ(server.submit(job_line("again", "t")), std::nullopt);
  const std::vector<std::string> replay = server.drain();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(v.get("metrics").get("hpwl").as_int(),
            parse_response(replay[0]).get("metrics").get("hpwl").as_int());
  // Unknown eco_base is an execution error.
  ASSERT_EQ(server.submit(job_line("dangling", "t",
                                   ", \"eco_base\": \"never_ran\"")),
            std::nullopt);
  const std::vector<std::string> out2 = server.drain();
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(parse_response(out2[0]).get("status").as_string(), "error");
}

}  // namespace
}  // namespace mth::serve
