#pragma once
// mth::ser — the versioned serialization layer (README "Serving").
//
// Canonical, schema-versioned (de)serialization for the job surface that
// crosses the process boundary: flows::FlowOptions (with its nested
// rap::RapOptions) inside the `job` and `repro` envelopes that the job
// server (mth_serve / mth::serve) and mth_fuzz exchange, plus the canonical
// design and options hashes that key the serve result cache. Modeled on the
// job-envelope pattern of distributed detailed routing (PAPERS.md:
// OpenROAD FlexDR's RoutingJobDescription/serialize_worker). Designs travel
// as a bundled testcase name or as LEF+DEF paths, and results stay in the
// server's memory (an ECO job names its base by id), so neither has a codec.
//
// Format: JSON with two deliberate extensions — `inf` / `-inf` numeric
// tokens (LP bounds are routinely infinite) and a distinguished integer
// flavor so DBU coordinates round-trip exactly as int64. Every top-level
// value is an *envelope*: an object whose first two keys are
// `mth_ser_version` (the schema version; readers reject versions newer
// than kSchemaVersion) and `kind` (the payload type). Objects reject
// duplicate keys at parse time and every codec rejects unknown keys, so
// version skew fails loudly instead of silently dropping fields.
//
// Canonical form: write() is a pure function of the value — fixed key
// order (codec-chosen), fixed number formatting (%.17g doubles, exact
// int64), fixed indentation — so serialize→deserialize→serialize is
// byte-identical (property-tested in ser_test). The canonical design
// hash sorts instances/ports/nets by *name* and refers to pins by name,
// making it invariant under construction-order permutation; it keys the
// mth_serve result cache (same hash + same options → cached replay).
//
// What is deliberately NOT serialized: runtime policy (RunContext — the
// sink and thread count belong to the executing process, not the job),
// callback hooks (ilp heuristics), and borrowed pointers
// (RapOptions::width_library, RapOptions::eco_base — the server re-binds
// those from its own state). Deserialization starts from the type's
// defaults and overwrites the serialized surface, so non-serialized
// knobs keep their build's defaults.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/flows/flow.hpp"
#include "mth/rap/rap.hpp"

namespace mth::ser {

/// Schema version written by this build; readers accept <= this.
constexpr std::int64_t kSchemaVersion = 1;

// ---------------------------------------------------------------------------
// JSON value
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve insertion order (a vector of
/// pairs, not a hash map — key order is part of the canonical form and
/// hash-order must never leak into output). Integers and doubles are
/// distinct kinds so Dbu/int64 fields round-trip without going through
/// floating point.
class Value {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value integer(std::int64_t i);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw mth::Error on a kind mismatch (as_double
  /// accepts Int too — a JSON `3` is a valid double field value).
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Arrays.
  std::size_t size() const;
  const Value& at(std::size_t i) const;
  void push(Value v);

  // Objects. set() rejects duplicate keys; get() throws when absent.
  void set(std::string key, Value v);
  const Value* find(std::string_view key) const;
  const Value& get(std::string_view key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

 private:
  Kind kind_ = Kind::Null;
  bool b_ = false;
  std::int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Parse a serialized value (throws mth::Error with line/column context on
/// malformed input; duplicate object keys and depth > 100 are malformed).
/// Emits one `ser/read` span.
Value parse(std::string_view text);

/// Canonical multi-line form (2-space indent, scalar-only arrays inline,
/// trailing newline). Pure function of the value: write(parse(write(v)))
/// == write(v) byte-for-byte. Emits one `ser/write` span.
std::string write(const Value& v);

/// Single-line form (no whitespace) for the line-delimited mth_serve
/// protocol. Same canonical number/string formatting as write().
std::string write_compact(const Value& v);

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// Fresh envelope object: {"mth_ser_version": kSchemaVersion, "kind": kind}.
Value make_envelope(const char* kind);

/// Validate an envelope and return its kind. Throws on a missing/invalid
/// version field or a version newer than this build reads.
std::string envelope_kind(const Value& v);

/// envelope_kind() + kind equality check.
void expect_kind(const Value& v, std::string_view kind);

/// Reject any member key not in `known` (version-skew safety: a field this
/// build does not understand must fail the whole read). `where` names the
/// payload in the error message.
void reject_unknown_keys(const Value& v,
                         std::initializer_list<std::string_view> known,
                         const char* where);

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// FlowOptions <-> envelope kind "flow_options". Covers the determinism-
/// relevant surface: scale, utilization, aspect_ratio, verify, seed and the
/// baseline fill, plus the RapOptions nested under key "rap" as an envelope
/// of kind "rap_options"; runtime policy is not serialized.
Value to_value(const flows::FlowOptions& o);
flows::FlowOptions flow_options_from_value(const Value& v);

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over the design's canonical text: library masters sorted
/// by name, instances/ports/nets sorted by name, net pins referred to by
/// name in stored order (pins[0] stays the driver). Two semantically equal
/// designs built in different instance order hash identically; any change
/// to a name, position, master or connection changes the hash.
std::uint64_t canonical_design_hash(const Design& d);

/// FNV-1a over write_compact(to_value(o)) — the serialized option surface.
std::uint64_t canonical_options_hash(const flows::FlowOptions& o);

/// Fixed-width lowercase hex (16 chars) for cache keys / logs.
std::string hash_hex(std::uint64_t h);

}  // namespace mth::ser
