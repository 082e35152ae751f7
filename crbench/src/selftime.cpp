#include "selftime.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace crbench {

using compactroute::obs::SpanEvent;

std::string layer_of(const SpanEvent& span) {
  // Longest matching prefix wins; library spans ("preprocess.*",
  // "serve.*") map onto the same layers as the harness's own.
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"build.metric", "graph"},
      {"preprocess.metric", "graph"},
      {"build.hierarchy", "nets"},
      {"preprocess.nets", "nets"},
      {"build.labeled", "labeled"},
      {"preprocess.labeled", "labeled"},
      {"build.ni_", "nameind"},
      {"preprocess.nameind", "nameind"},
      {"preprocess.codec", "codec"},
      {"build.snapshot_write", "io"},
      {"load.map", "io"},
      {"load.decode", "io"},
      {"load.arena", "runtime/hop_arena"},
      {"serve.", "runtime/serve"},
      {"load.epoch", "runtime/server"},
      {"server.", "runtime/server"},
      {"harness.", "harness"},
  };
  const char* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [prefix, layer] : kPrefixes) {
    const std::size_t len = std::char_traits<char>::length(prefix);
    if (len > best_len && span.name.compare(0, len, prefix) == 0) {
      best = layer;
      best_len = len;
    }
  }
  return best != nullptr ? best : span.category;
}

SpanAnalysis analyze_spans(const std::vector<SpanEvent>& spans) {
  // Per thread, spans nest: order by start (longer first on ties) and keep
  // a stack of open spans; each span's parent is the innermost open span
  // that still contains its start.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = spans[a];
    const SpanEvent& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<double> child_us(spans.size(), 0);
  std::vector<std::size_t> open;
  std::size_t tid = static_cast<std::size_t>(-1);
  for (const std::size_t i : order) {
    const SpanEvent& s = spans[i];
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty()) {
      const SpanEvent& top = spans[open.back()];
      if (s.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += s.dur_us;
    open.push_back(i);
  }

  SpanAnalysis out;
  std::map<std::string, LayerSelfTime> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSelfTime& row = by_layer[layer_of(spans[i])];
    ++row.spans;
    row.self_ms += std::max(0.0, spans[i].dur_us - child_us[i]) * 1e-3;
    if (spans[i].name == "harness.setup" && spans[i].dur_us > 0) {
      out.setup_gap_frac.push_back(1.0 - child_us[i] / spans[i].dur_us);
    }
  }
  for (auto& [layer, row] : by_layer) {
    row.layer = layer;
    out.layers.push_back(row);
  }
  std::sort(out.layers.begin(), out.layers.end(),
            [](const LayerSelfTime& a, const LayerSelfTime& b) {
              return a.self_ms > b.self_ms;
            });
  return out;
}

std::string format_self_time(const SpanAnalysis& analysis) {
  double all = 0;
  for (const LayerSelfTime& row : analysis.layers) all += row.self_ms;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-20s %8s %12s %7s\n", "layer", "spans",
                "self_ms", "share");
  out += line;
  for (const LayerSelfTime& row : analysis.layers) {
    std::snprintf(line, sizeof line, "%-20s %8zu %12.3f %6.1f%%\n",
                  row.layer.c_str(), row.spans, row.self_ms,
                  all > 0 ? 100.0 * row.self_ms / all : 0.0);
    out += line;
  }
  return out;
}

}  // namespace crbench
