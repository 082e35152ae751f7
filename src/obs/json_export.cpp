#include "obs/json_export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/check.hpp"

namespace compactroute::obs {

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Infinity/NaN
    out += "null";
    return;
  }
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.12g", v);
  }
  out += buf;
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  CR_CHECK_MSG(kind_ == Kind::kObject, "operator[] requires an object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, JsonValue());
  return object_.back().second;
}

void JsonValue::push_back(JsonValue v) {
  CR_CHECK_MSG(kind_ == Kind::kArray, "push_back requires an array");
  array_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: append_number(out, number_); return;
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        append_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        append_indent(out, indent, depth + 1);
        out += '"';
        out += json_escape(object_[i].first);
        out += "\":";
        if (indent > 0) out += ' ';
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

JsonValue registry_to_json(const Registry& registry) {
  JsonValue root = JsonValue::object();

  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : registry.counters()) {
    counters[name] = c.value();
  }
  root["counters"] = std::move(counters);

  JsonValue timers = JsonValue::object();
  for (const auto& [name, t] : registry.timers()) {
    JsonValue entry = JsonValue::object();
    entry["total_ms"] = t.total_ms();
    entry["spans"] = t.spans();
    timers[name] = std::move(entry);
  }
  root["timers"] = std::move(timers);

  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : registry.histograms()) {
    JsonValue entry = JsonValue::object();
    entry["count"] = h.count();
    entry["min"] = h.min();
    entry["max"] = h.max();
    entry["mean"] = h.mean();
    entry["lo"] = h.lo();
    entry["hi"] = h.hi();
    JsonValue buckets = JsonValue::array();
    for (std::size_t b = 0; b < h.buckets(); ++b) {
      buckets.push_back(h.bucket_count(b));
    }
    entry["buckets"] = std::move(buckets);
    entry["underflow"] = h.underflow();
    entry["overflow"] = h.overflow();
    histograms[name] = std::move(entry);
  }
  root["histograms"] = std::move(histograms);

  JsonValue log_histograms = JsonValue::object();
  for (const auto& [name, h] : registry.log_histograms()) {
    JsonValue entry = JsonValue::object();
    entry["count"] = h.count();
    entry["sum"] = h.sum();
    entry["min"] = h.min();
    entry["max"] = h.max();
    entry["mean"] = h.mean();
    entry["lo"] = h.lo();
    entry["hi"] = h.hi();
    entry["sub_buckets_per_octave"] = h.sub_buckets_per_octave();
    entry["p50"] = h.percentile(0.50);
    entry["p90"] = h.percentile(0.90);
    entry["p99"] = h.percentile(0.99);
    entry["p999"] = h.percentile(0.999);
    entry["underflow"] = h.underflow();
    entry["overflow"] = h.overflow();
    // Sparse bucket dump: only occupied buckets, as [lower_edge, count].
    JsonValue buckets = JsonValue::array();
    for (std::size_t b = 0; b < h.buckets(); ++b) {
      const std::uint64_t c = h.bucket_count(b);
      if (c == 0) continue;
      JsonValue pair = JsonValue::array();
      pair.push_back(h.bucket_lower(b));
      pair.push_back(c);
      buckets.push_back(std::move(pair));
    }
    entry["buckets"] = std::move(buckets);
    log_histograms[name] = std::move(entry);
  }
  root["log_histograms"] = std::move(log_histograms);
  return root;
}

JsonValue trace_to_json(const RouteTrace& trace) {
  JsonValue root = JsonValue::object();
  root["scheme"] = trace.scheme;
  root["hops"] = JsonValue::array();
  for (const TraceHop& hop : trace.hops) {
    JsonValue h = JsonValue::object();
    h["from"] = static_cast<std::uint64_t>(hop.from);
    h["to"] = static_cast<std::uint64_t>(hop.to);
    h["cost"] = hop.cost;
    h["phase"] = trace_phase_name(hop.phase);
    h["header_bits"] = hop.header_bits;
    root["hops"].push_back(std::move(h));
  }
  root["total_cost"] = trace.total_cost();
  const auto hops_by_phase = trace.phase_hops();
  const auto cost_by_phase = trace.phase_cost();
  JsonValue phases = JsonValue::object();
  for (std::size_t p = 0; p < kNumTracePhases; ++p) {
    if (hops_by_phase[p] == 0) continue;
    JsonValue entry = JsonValue::object();
    entry["hops"] = hops_by_phase[p];
    entry["cost"] = cost_by_phase[p];
    phases[trace_phase_name(static_cast<TracePhase>(p))] = std::move(entry);
  }
  root["phases"] = std::move(phases);
  root["max_header_bits"] = trace.max_header_bits();
  return root;
}

}  // namespace compactroute::obs
