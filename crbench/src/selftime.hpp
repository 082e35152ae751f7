#pragma once
//
// Reads the traced run's spans: maps each span to the repo layer it times,
// computes self time (duration minus the part covered by child spans on the
// same thread), and checks that the set-up's phase spans tile the set-up.
//
#include <string>
#include <vector>

#include "obs/spans.hpp"

namespace crbench {

/// The repo module a span times ("graph", "nets", "labeled", "nameind",
/// "io", "runtime/hop_arena", "runtime/serve", "runtime/server", "harness").
std::string layer_of(const compactroute::obs::SpanEvent& span);

struct LayerSelfTime {
  std::string layer;
  std::size_t spans = 0;
  double self_ms = 0;
};

struct SpanAnalysis {
  std::vector<LayerSelfTime> layers;  // sorted by self time, largest first
  /// For every "harness.setup" span: 1 - (sum of its direct children's
  /// durations) / its duration — the share of set-up no phase span covers.
  std::vector<double> setup_gap_frac;
};

SpanAnalysis analyze_spans(const std::vector<compactroute::obs::SpanEvent>& spans);

/// The per-layer self-time table, one line per layer.
std::string format_self_time(const SpanAnalysis& analysis);

}  // namespace crbench
