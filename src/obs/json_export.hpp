#pragma once
//
// Dependency-free JSON emission for machine-readable bench output.
//
// JsonValue is a small build-then-dump document tree (null, bool, number,
// string, array, object with insertion-ordered keys). The benches use it to
// write BENCH_*.json next to their printed tables so runs can be diffed
// across PRs; crtool uses it for `trace` dumps. Emission only — consumers
// (CI, notebooks, the test's tiny parser) bring their own reader.
//
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace compactroute::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}          // NOLINT
  JsonValue(double v) : kind_(Kind::kNumber), number_(v) {}    // NOLINT
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}      // NOLINT
  JsonValue(unsigned v) : JsonValue(static_cast<double>(v)) {}  // NOLINT
  JsonValue(std::uint64_t v) : JsonValue(static_cast<double>(v)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Object access; creates the key on first use (object kind required).
  JsonValue& operator[](const std::string& key);

  /// Array append (array kind required).
  void push_back(JsonValue v);

  std::size_t size() const;

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// A 64-bit value (fingerprint, digest) as a "0x%016llx" string. JSON
/// numbers are doubles, which would drop its low bits.
std::string hex_u64(std::uint64_t v);

/// Escapes a string for inclusion inside JSON quotes.
std::string json_escape(const std::string& s);

/// Writes `content` to `path`; returns false (and warns on stderr) on error.
bool write_text_file(const std::string& path, const std::string& content);

/// Snapshot of every counter/timer/histogram in a registry.
JsonValue registry_to_json(const Registry& registry);

/// Structured form of a per-hop route trace.
JsonValue trace_to_json(const RouteTrace& trace);

}  // namespace compactroute::obs
