// mth::ser tests: canonical JSON value layer, envelope versioning, the
// FlowOptions codec's round-trip byte-identity, and the canonical
// design/options hashes that key the mth_serve result cache.

#include <gtest/gtest.h>

#include "mth/flows/flow.hpp"
#include "mth/ser/ser.hpp"

namespace mth::ser {
namespace {

const flows::PreparedCase& shared_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    opt.rap.ilp.time_limit_s = 10;
    return prepare_case(synth::spec_by_name("aes_300"), opt);
  }();
  return pc;
}

// --- value layer -----------------------------------------------------------

TEST(Value, ParseWriteScalars) {
  EXPECT_EQ(write_compact(parse("true")), "true");
  EXPECT_EQ(write_compact(parse("null")), "null");
  EXPECT_EQ(write_compact(parse("-42")), "-42");
  EXPECT_EQ(write_compact(parse("\"a\\nb\"")), "\"a\\nb\"");
  EXPECT_EQ(write_compact(parse("inf")), "inf");
  EXPECT_EQ(write_compact(parse("-inf")), "-inf");
}

TEST(Value, IntAndDoubleAreDistinct) {
  EXPECT_EQ(parse("3").kind(), Value::Kind::Int);
  EXPECT_EQ(parse("3.0").kind(), Value::Kind::Double);
  // int64 round-trips exactly even where double would lose bits.
  EXPECT_EQ(parse("9007199254740993").as_int(), 9007199254740993);
}

TEST(Value, ObjectsPreserveInsertionOrder) {
  const Value v = parse("{\"z\": 1, \"a\": 2}");
  EXPECT_EQ(write_compact(v), "{\"z\":1,\"a\":2}");
}

TEST(Value, DuplicateKeysRejected) {
  EXPECT_THROW(parse("{\"a\": 1, \"a\": 2}"), Error);
}

TEST(Value, TrailingGarbageRejected) { EXPECT_THROW(parse("1 2"), Error); }

TEST(Value, DepthLimited) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(parse(deep), Error);
}

TEST(Value, DoubleWriteIsStable) {
  // write(parse(write(x))) is byte-stable: %.17g survives a re-parse.
  for (double x : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, 5e-3}) {
    const std::string once = write_compact(Value::number(x));
    EXPECT_EQ(write_compact(parse(once)), once);
  }
}

// --- envelopes -------------------------------------------------------------

TEST(Envelope, FutureVersionRejected) {
  EXPECT_THROW(
      envelope_kind(parse("{\"mth_ser_version\": 2, \"kind\": \"job\"}")),
      Error);
}

TEST(Envelope, MissingVersionRejected) {
  EXPECT_THROW(envelope_kind(parse("{\"kind\": \"job\"}")), Error);
}

TEST(Envelope, UnknownFieldRejected) {
  // Unknown keys fail the read at any depth, here inside the rap_options
  // envelope nested in flow_options.
  const std::string head =
      "{\"mth_ser_version\": 1, \"kind\": \"flow_options\", \"rap\": "
      "{\"mth_ser_version\": 1, \"kind\": \"rap_options\"";
  EXPECT_NO_THROW(flow_options_from_value(parse(head + "}}")));
  EXPECT_THROW(
      flow_options_from_value(parse(head + ", \"definitely_not_a_field\": 1}}")),
      Error);
}

TEST(Envelope, WrongKindRejected) {
  Value v = make_envelope("job");
  v.set("testcase", Value::string("aes_300"));
  EXPECT_THROW(flow_options_from_value(v), Error);
}

// --- FlowOptions codec -----------------------------------------------------

TEST(RoundTrip, FlowOptionsByteIdentity) {
  flows::FlowOptions opt;
  opt.scale = 0.25;
  opt.utilization = 0.55;
  opt.rap.alpha = 0.5;
  opt.rap.ilp.time_limit_s = 7.5;
  const std::string first = write(to_value(opt));
  const flows::FlowOptions back = flow_options_from_value(parse(first));
  EXPECT_EQ(write(to_value(back)), first);
  EXPECT_EQ(back.scale, 0.25);
  EXPECT_EQ(back.rap.ilp.time_limit_s, 7.5);
}

TEST(RoundTrip, PartialOptionsKeepDefaults) {
  // Hand-written envelopes may state only what they override.
  const flows::FlowOptions back = flow_options_from_value(parse(
      "{\"mth_ser_version\": 1, \"kind\": \"flow_options\", \"scale\": 0.5}"));
  EXPECT_EQ(back.scale, 0.5);
  EXPECT_EQ(back.utilization, flows::FlowOptions{}.utilization);
  EXPECT_EQ(back.rap.alpha, rap::RapOptions{}.alpha);
}

// --- canonical hashing -----------------------------------------------------

TEST(Hash, PermutedInstanceOrderHashesIdentically) {
  const Design& d = shared_case().initial;
  // Rebuild the netlist with instances stored in reverse order (ids
  // remapped); the canonical hash keys on names, so storage order must not
  // matter — the mth_serve cache treats the two as the same design.
  Design p;
  p.name = d.name;
  p.clock_ps = d.clock_ps;
  p.library = d.library;
  p.floorplan = d.floorplan;
  const int n = d.netlist.num_instances();
  for (int i = n - 1; i >= 0; --i) {
    const Instance& inst = d.netlist.instance(i);
    p.netlist.add_instance(inst.name, inst.master, inst.pos);
  }
  for (PortId i = 0; i < d.netlist.num_ports(); ++i) {
    const Port& port = d.netlist.port(i);
    p.netlist.add_port(port.name, port.pos, port.is_input);
  }
  for (NetId i = 0; i < d.netlist.num_nets(); ++i) {
    const Net& net = d.netlist.net(i);
    const NetId id = p.netlist.add_net(net.name);
    p.netlist.net(id).activity = net.activity;
    p.netlist.net(id).is_clock = net.is_clock;
    for (const PinRef& pin : net.pins) {
      p.netlist.connect(id, pin.is_port()
                                ? pin
                                : PinRef{static_cast<InstId>(n - 1 - pin.inst),
                                         pin.pin});
    }
  }
  EXPECT_EQ(canonical_design_hash(p), canonical_design_hash(d));
}

TEST(Hash, DistinctDesignsHashDifferently) {
  const Design& d = shared_case().initial;
  Design moved = d;
  moved.netlist.instance(0).pos.x += 1;
  EXPECT_NE(canonical_design_hash(moved), canonical_design_hash(d));
}

TEST(Hash, OptionsHashTracksFields) {
  flows::FlowOptions a, b;
  EXPECT_EQ(canonical_options_hash(a), canonical_options_hash(b));
  b.rap.alpha = 0.9;
  EXPECT_NE(canonical_options_hash(a), canonical_options_hash(b));
  EXPECT_EQ(hash_hex(canonical_options_hash(a)).size(), 16u);
}

}  // namespace
}  // namespace mth::ser
