#include "mth/ser/ser.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"

namespace mth::ser {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.b_ = b;
  return v;
}

Value Value::integer(std::int64_t i) {
  Value v;
  v.kind_ = Kind::Int;
  v.i_ = i;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::Double;
  v.d_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.s_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::Object;
  return v;
}

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "bool";
    case Value::Kind::Int: return "int";
    case Value::Kind::Double: return "double";
    case Value::Kind::String: return "string";
    case Value::Kind::Array: return "array";
    case Value::Kind::Object: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* want, Value::Kind got) {
  throw Error(std::string("ser: expected ") + want + ", got " +
              kind_name(got));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return b_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::Int) kind_error("int", kind_);
  return i_;
}

double Value::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(i_);
  if (kind_ != Kind::Double) kind_error("number", kind_);
  return d_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return s_;
}

std::size_t Value::size() const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  return arr_.size();
}

const Value& Value::at(std::size_t i) const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  MTH_ASSERT(i < arr_.size(), "ser: array index out of range");
  return arr_[i];
}

void Value::push(Value v) {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  arr_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  for (const auto& kv : obj_) {
    MTH_ASSERT(kv.first != key, "ser: duplicate object key '" + key + "'");
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  for (const auto& kv : obj_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

const Value& Value::get(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw Error("ser: missing field '" + std::string(key) + "'");
  }
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  return obj_;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_double(std::string& out, double d) {
  if (std::isnan(d)) throw Error("ser: cannot serialize NaN");
  if (std::isinf(d)) {
    out += d > 0 ? "inf" : "-inf";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void write_scalar(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::Int: out += std::to_string(v.as_int()); break;
    case Value::Kind::Double: write_double(out, v.as_double()); break;
    case Value::Kind::String: write_escaped(out, v.as_string()); break;
    default: MTH_ASSERT(false, "ser: write_scalar on composite");
  }
}

bool is_scalar(const Value& v) {
  return v.kind() != Value::Kind::Array && v.kind() != Value::Kind::Object;
}

void write_pretty(std::string& out, const Value& v, int indent) {
  if (is_scalar(v)) {
    write_scalar(out, v);
    return;
  }
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string close_pad(static_cast<std::size_t>(indent), ' ');
  if (v.kind() == Value::Kind::Array) {
    if (v.size() == 0) {
      out += "[]";
      return;
    }
    bool all_scalar = true;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!is_scalar(v.at(i))) all_scalar = false;
    }
    if (all_scalar) {
      out += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        write_scalar(out, v.at(i));
      }
      out += ']';
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += pad;
      write_pretty(out, v.at(i), indent + 2);
      if (i + 1 != v.size()) out += ',';
      out += '\n';
    }
    out += close_pad;
    out += ']';
    return;
  }
  const auto& members = v.members();
  if (members.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += pad;
    write_escaped(out, members[i].first);
    out += ": ";
    write_pretty(out, members[i].second, indent + 2);
    if (i + 1 != members.size()) out += ',';
    out += '\n';
  }
  out += close_pad;
  out += '}';
}

void write_flat(std::string& out, const Value& v) {
  if (is_scalar(v)) {
    write_scalar(out, v);
    return;
  }
  if (v.kind() == Value::Kind::Array) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      write_flat(out, v.at(i));
    }
    out += ']';
    return;
  }
  out += '{';
  const auto& members = v.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += ',';
    write_escaped(out, members[i].first);
    out += ':';
    write_flat(out, members[i].second);
  }
  out += '}';
}

}  // namespace

std::string write(const Value& v) {
  MTH_SPAN("ser/write");
  std::string out;
  write_pretty(out, v, 0);
  out += '\n';
  return out;
}

std::string write_compact(const Value& v) {
  std::string out;
  write_flat(out, v);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 100;

struct Parser {
  std::string_view s;
  std::size_t p = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < p && i < s.size(); ++i) {
      if (s[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("ser: parse error at line " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + msg);
  }

  void ws() {
    while (p < s.size() && (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' ||
                            s[p] == '\r')) {
      ++p;
    }
  }

  char peek() const { return p < s.size() ? s[p] : '\0'; }

  void expect(char c) {
    if (p >= s.size() || s[p] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++p;
  }

  bool keyword(std::string_view kw) {
    if (s.compare(p, kw.size(), kw) != 0) return false;
    p += kw.size();
    return true;
  }

  Value parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (p >= s.size()) fail("unterminated string");
      const char c = s[p++];
      if (c == '"') break;
      if (c == '\\') {
        if (p >= s.size()) fail("unterminated escape");
        const char e = s[p++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (p + 4 > s.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[p++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            if (code > 0xff) fail("\\u escape beyond latin-1 unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      out += c;
    }
    return Value::string(std::move(out));
  }

  Value parse_number() {
    const std::size_t start = p;
    if (peek() == '-') ++p;
    if (keyword("inf")) {
      return Value::number(s[start] == '-'
                               ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity());
    }
    bool is_int = true;
    while (p < s.size()) {
      const char c = s[p];
      if (c >= '0' && c <= '9') {
        ++p;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++p;
      } else {
        break;
      }
    }
    if (p == start || (p == start + 1 && s[start] == '-')) fail("bad number");
    const std::string tok(s.substr(start, p - start));
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      const long long ll = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value::integer(static_cast<std::int64_t>(ll));
      }
      // Integer overflow: fall through to the double representation.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + tok + "'");
    return Value::number(d);
  }

  Value parse_value() {
    ws();
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == '{') {
      ++p;
      ++depth;
      Value obj = Value::object();
      ws();
      if (peek() == '}') {
        ++p;
        --depth;
        return obj;
      }
      while (true) {
        ws();
        if (peek() != '"') fail("expected object key");
        Value key = parse_string();
        if (obj.find(key.as_string()) != nullptr) {
          fail("duplicate object key '" + key.as_string() + "'");
        }
        ws();
        expect(':');
        Value val = parse_value();
        obj.set(key.as_string(), std::move(val));
        ws();
        if (peek() == ',') {
          ++p;
          continue;
        }
        expect('}');
        break;
      }
      --depth;
      return obj;
    }
    if (c == '[') {
      ++p;
      ++depth;
      Value arr = Value::array();
      ws();
      if (peek() == ']') {
        ++p;
        --depth;
        return arr;
      }
      while (true) {
        arr.push(parse_value());
        ws();
        if (peek() == ',') {
          ++p;
          continue;
        }
        expect(']');
        break;
      }
      --depth;
      return arr;
    }
    if (keyword("true")) return Value::boolean(true);
    if (keyword("false")) return Value::boolean(false);
    if (keyword("null")) return Value::null();
    if (c == '-' || (c >= '0' && c <= '9') || c == 'i') return parse_number();
    fail("unexpected character");
  }
};

}  // namespace

Value parse(std::string_view text) {
  MTH_SPAN("ser/read");
  Parser parser{text};
  Value v = parser.parse_value();
  parser.ws();
  if (parser.p != text.size()) parser.fail("trailing data after value");
  return v;
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

Value make_envelope(const char* kind) {
  Value v = Value::object();
  v.set("mth_ser_version", Value::integer(kSchemaVersion));
  v.set("kind", Value::string(kind));
  return v;
}

std::string envelope_kind(const Value& v) {
  if (!v.is_object()) throw Error("ser: envelope must be an object");
  const std::int64_t version = v.get("mth_ser_version").as_int();
  if (version < 1 || version > kSchemaVersion) {
    throw Error("ser: unsupported schema version " + std::to_string(version) +
                " (this build reads versions 1.." +
                std::to_string(kSchemaVersion) + ")");
  }
  return v.get("kind").as_string();
}

void expect_kind(const Value& v, std::string_view kind) {
  const std::string got = envelope_kind(v);
  if (got != kind) {
    throw Error("ser: expected payload kind '" + std::string(kind) +
                "', got '" + got + "'");
  }
}

void reject_unknown_keys(const Value& v,
                         std::initializer_list<std::string_view> known,
                         const char* where) {
  for (const auto& kv : v.members()) {
    bool ok = false;
    for (const std::string_view k : known) {
      if (kv.first == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw Error(std::string("ser: unknown field '") + kv.first + "' in " +
                  where + " (version skew? this build reads schema version " +
                  std::to_string(kSchemaVersion) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Options codecs
// ---------------------------------------------------------------------------

namespace {

// Optional-field readers for option codecs: absent keeps the default.
void opt_double(const Value& v, std::string_view key, double& out) {
  if (const Value* f = v.find(key)) out = f->as_double();
}

void opt_int(const Value& v, std::string_view key, int& out) {
  if (const Value* f = v.find(key)) out = static_cast<int>(f->as_int());
}

void opt_bool(const Value& v, std::string_view key, bool& out) {
  if (const Value* f = v.find(key)) out = f->as_bool();
}

// RapOptions travel only nested in a flow_options envelope (key "rap"),
// but keep their own "rap_options" envelope header inside it.
Value rap_options_to_value(const rap::RapOptions& o) {
  Value v = make_envelope("rap_options");
  v.set("s", Value::number(o.s));
  v.set("alpha", Value::number(o.alpha));
  v.set("use_clustering", Value::boolean(o.use_clustering));
  v.set("n_min_pairs", Value::integer(o.n_min_pairs));
  v.set("kmeans_max_iterations", Value::integer(o.kmeans_max_iterations));
  v.set("max_cand_rows", Value::integer(o.max_cand_rows));
  v.set("model_eviction", Value::boolean(o.model_eviction));
  v.set("export_certificate", Value::boolean(o.export_certificate));
  v.set("shards", Value::integer(o.shards));
  v.set("shard_overlap", Value::integer(o.shard_overlap));
  v.set("seed", Value::integer(static_cast<std::int64_t>(o.ctx.exec.seed)));
  Value ilp = Value::object();
  ilp.set("time_limit_s", Value::number(o.ilp.time_limit_s));
  ilp.set("rel_gap", Value::number(o.ilp.rel_gap));
  ilp.set("int_tol", Value::number(o.ilp.int_tol));
  ilp.set("max_nodes", Value::integer(o.ilp.max_nodes));
  ilp.set("warm_basis", Value::boolean(o.ilp.warm_basis));
  ilp.set("node_batch", Value::integer(o.ilp.node_batch));
  v.set("ilp", std::move(ilp));
  return v;
}

rap::RapOptions rap_options_from_value(const Value& v) {
  expect_kind(v, "rap_options");
  reject_unknown_keys(
      v,
      {"mth_ser_version", "kind", "s", "alpha", "use_clustering",
       "n_min_pairs", "kmeans_max_iterations",
       "max_cand_rows", "model_eviction", "export_certificate", "shards",
       "shard_overlap", "seed", "ilp"},
      "rap_options");
  // Option fields are individually optional: an absent field keeps this
  // build's default (hand-written job envelopes only say what they change),
  // while an unknown field still hard-fails above.
  rap::RapOptions o;
  opt_double(v, "s", o.s);
  opt_double(v, "alpha", o.alpha);
  opt_bool(v, "use_clustering", o.use_clustering);
  opt_int(v, "n_min_pairs", o.n_min_pairs);
  opt_int(v, "kmeans_max_iterations", o.kmeans_max_iterations);
  opt_int(v, "max_cand_rows", o.max_cand_rows);
  opt_bool(v, "model_eviction", o.model_eviction);
  opt_bool(v, "export_certificate", o.export_certificate);
  opt_int(v, "shards", o.shards);
  opt_int(v, "shard_overlap", o.shard_overlap);
  if (const Value* seed = v.find("seed")) {
    o.ctx.exec.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const Value* ilp = v.find("ilp")) {
    reject_unknown_keys(*ilp,
                        {"time_limit_s", "rel_gap", "int_tol", "max_nodes",
                         "warm_basis", "node_batch"},
                        "rap_options.ilp");
    opt_double(*ilp, "time_limit_s", o.ilp.time_limit_s);
    opt_double(*ilp, "rel_gap", o.ilp.rel_gap);
    opt_double(*ilp, "int_tol", o.ilp.int_tol);
    opt_int(*ilp, "max_nodes", o.ilp.max_nodes);
    opt_bool(*ilp, "warm_basis", o.ilp.warm_basis);
    opt_int(*ilp, "node_batch", o.ilp.node_batch);
  }
  return o;
}

}  // namespace

Value to_value(const flows::FlowOptions& o) {
  Value v = make_envelope("flow_options");
  v.set("scale", Value::number(o.scale));
  v.set("utilization", Value::number(o.utilization));
  v.set("aspect_ratio", Value::number(o.aspect_ratio));
  v.set("verify", Value::boolean(o.verify));
  v.set("seed", Value::integer(static_cast<std::int64_t>(o.ctx.exec.seed)));
  v.set("baseline_minority_row_fill",
        Value::number(o.baseline.minority_row_fill));
  v.set("rap", rap_options_to_value(o.rap));
  return v;
}

flows::FlowOptions flow_options_from_value(const Value& v) {
  expect_kind(v, "flow_options");
  reject_unknown_keys(v,
                      {"mth_ser_version", "kind", "scale", "utilization",
                       "aspect_ratio", "verify", "seed",
                       "baseline_minority_row_fill", "rap"},
                      "flow_options");
  flows::FlowOptions o;
  opt_double(v, "scale", o.scale);
  opt_double(v, "utilization", o.utilization);
  opt_double(v, "aspect_ratio", o.aspect_ratio);
  opt_bool(v, "verify", o.verify);
  if (const Value* seed = v.find("seed")) {
    o.ctx.exec.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  opt_double(v, "baseline_minority_row_fill", o.baseline.minority_row_fill);
  if (const Value* rap = v.find("rap")) {
    o.rap = rap_options_from_value(*rap);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void feed(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace

std::uint64_t canonical_design_hash(const Design& d) {
  MTH_ASSERT(d.library != nullptr, "ser: design without library");
  std::string text;
  text.reserve(1 << 16);
  text += "design ";
  text += d.name;
  text += ' ';
  write_double(text, d.clock_ps);
  text += '\n';

  // Library: masters sorted by name (electrical fields excluded — they are
  // defaults for every ingested library and identical across builds for the
  // built-in one; the geometric/structural fields are what placement sees).
  text += "library ";
  text += d.library->name();
  text += '\n';
  std::vector<int> master_order(static_cast<std::size_t>(d.library->num_masters()));
  for (std::size_t i = 0; i < master_order.size(); ++i) master_order[i] = static_cast<int>(i);
  std::sort(master_order.begin(), master_order.end(), [&](int a, int b) {
    return d.library->master(a).name < d.library->master(b).name;
  });
  for (const int mi : master_order) {
    const CellMaster& m = d.library->master(mi);
    text += "master ";
    text += m.name;
    text += ' ';
    text += to_string(m.func);
    text += m.track_height == TrackHeight::H75T ? " 7.5T " : " 6T ";
    text += to_string(m.vt);
    text += ' ';
    text += std::to_string(m.drive);
    text += ' ';
    text += std::to_string(m.width);
    text += ' ';
    text += std::to_string(m.height);
    for (const PinDef& p : m.pins) {
      text += ' ';
      text += p.name;
      text += ':';
      text += std::to_string(p.offset.x);
      text += ':';
      text += std::to_string(p.offset.y);
      text += p.is_output ? ":o" : (p.is_clock ? ":c" : ":i");
    }
    text += '\n';
  }

  const Floorplan& fp = d.floorplan;
  text += "core ";
  text += std::to_string(fp.core().lo.x);
  text += ' ';
  text += std::to_string(fp.core().lo.y);
  text += ' ';
  text += std::to_string(fp.core().hi.x);
  text += ' ';
  text += std::to_string(fp.core().hi.y);
  text += ' ';
  text += std::to_string(fp.site_width());
  text += '\n';
  for (const Row& r : fp.rows()) {
    text += "row ";
    text += std::to_string(r.y);
    text += ' ';
    text += std::to_string(r.height);
    text += ' ';
    text += std::to_string(r.x0);
    text += ' ';
    text += std::to_string(r.x1);
    text += r.track_height == TrackHeight::H75T ? " 7.5T\n" : " 6T\n";
  }

  // Name-sorted entity sections: the hash must be invariant under the order
  // instances/ports/nets were added, so everything is keyed and referenced
  // by name (netlist names are unique; Netlist::check enforces structure).
  const Netlist& nl = d.netlist;
  std::vector<int> port_order(static_cast<std::size_t>(nl.num_ports()));
  for (std::size_t i = 0; i < port_order.size(); ++i) port_order[i] = static_cast<int>(i);
  std::sort(port_order.begin(), port_order.end(), [&](int a, int b) {
    return nl.port(a).name < nl.port(b).name;
  });
  for (const int pi : port_order) {
    const Port& p = nl.port(pi);
    text += "port ";
    text += p.name;
    text += ' ';
    text += std::to_string(p.pos.x);
    text += ' ';
    text += std::to_string(p.pos.y);
    text += p.is_input ? " in\n" : " out\n";
  }

  std::vector<int> inst_order(static_cast<std::size_t>(nl.num_instances()));
  for (std::size_t i = 0; i < inst_order.size(); ++i) inst_order[i] = static_cast<int>(i);
  std::sort(inst_order.begin(), inst_order.end(), [&](int a, int b) {
    return nl.instance(a).name < nl.instance(b).name;
  });
  for (const int ii : inst_order) {
    const Instance& inst = nl.instance(ii);
    text += "inst ";
    text += inst.name;
    text += ' ';
    text += d.library->master(inst.master).name;
    text += ' ';
    text += std::to_string(inst.pos.x);
    text += ' ';
    text += std::to_string(inst.pos.y);
    text += inst.fixed ? " fixed\n" : "\n";
  }

  std::vector<int> net_order(static_cast<std::size_t>(nl.num_nets()));
  for (std::size_t i = 0; i < net_order.size(); ++i) net_order[i] = static_cast<int>(i);
  std::sort(net_order.begin(), net_order.end(), [&](int a, int b) {
    return nl.net(a).name < nl.net(b).name;
  });
  for (const int ni : net_order) {
    const Net& n = nl.net(ni);
    text += "net ";
    text += n.name;
    text += ' ';
    write_double(text, n.activity);
    text += n.is_clock ? " 1" : " 0";
    for (const PinRef& p : n.pins) {
      text += ' ';
      if (p.is_port()) {
        text += "port:";
        text += nl.port(p.pin).name;
      } else {
        text += nl.instance(p.inst).name;
        text += ':';
        text += std::to_string(p.pin);
      }
    }
    text += '\n';
  }

  Fnv1a fnv;
  fnv.feed(text);
  return fnv.h;
}

std::uint64_t canonical_options_hash(const flows::FlowOptions& o) {
  Fnv1a fnv;
  fnv.feed(write_compact(to_value(o)));
  return fnv.h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return std::string(buf, 16);
}

}  // namespace mth::ser
