#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>


namespace wlgen::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge_max: return "gauge_max";
    case MetricKind::sum: return "sum";
  }
  return "?";
}

namespace {

// Exact decimal text for a double: %.17g round-trips every finite value, so
// equal bits produce equal text (the property stable_text() relies on).
std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

Metric& Registry::slot(std::string_view name, MetricKind kind, bool stable) {
  for (auto& metric : metrics_) {
    if (metric.name == name) {
      if (metric.kind != kind) {
        throw std::invalid_argument("obs metric '" + metric.name +
                                    "' reused with kind " + to_string(kind) +
                                    " (registered as " + to_string(metric.kind) + ")");
      }
      return metric;
    }
  }
  Metric metric;
  metric.name = std::string(name);
  metric.kind = kind;
  metric.stable = stable;
  metrics_.push_back(std::move(metric));
  return metrics_.back();
}

void Registry::add_counter(std::string_view name, std::uint64_t delta, bool stable) {
  slot(name, MetricKind::counter, stable).count += delta;
}

void Registry::add_gauge_max(std::string_view name, std::uint64_t value, bool stable) {
  Metric& metric = slot(name, MetricKind::gauge_max, stable);
  if (value > metric.count) metric.count = value;
}

void Registry::add_sum(std::string_view name, double delta, bool stable) {
  slot(name, MetricKind::sum, stable).value += delta;
}

void Registry::merge(const Registry& other) {
  for (const auto& metric : other.metrics_) {
    Metric& mine = slot(metric.name, metric.kind, metric.stable);
    switch (metric.kind) {
      case MetricKind::counter:
        mine.count += metric.count;
        break;
      case MetricKind::gauge_max:
        if (metric.count > mine.count) mine.count = metric.count;
        break;
      case MetricKind::sum:
        mine.value += metric.value;
        break;
    }
  }
}

std::string Registry::stable_text() const {
  std::string text;
  for (const auto& metric : metrics_) {
    if (!metric.stable) continue;
    text += metric.name;
    text += ' ';
    if (metric.kind == MetricKind::sum) {
      text += exact(metric.value);
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%" PRIu64, metric.count);
      text += buffer;
    }
    text += '\n';
  }
  return text;
}

util::JsonValue Registry::to_json() const {
  util::JsonValue stable = util::JsonValue::make_object();
  util::JsonValue timing = util::JsonValue::make_object();
  for (const auto& metric : metrics_) {
    util::JsonValue& section = metric.stable ? stable : timing;
    if (metric.kind == MetricKind::sum) {
      section.set(metric.name, util::JsonValue(metric.value));
    } else {
      // Counters stay < 2^53 in practice; double holds them exactly.
      section.set(metric.name, util::JsonValue(static_cast<double>(metric.count)));
    }
  }
  util::JsonValue out = util::JsonValue::make_object();
  out.set("metrics", std::move(stable));
  out.set("timing", std::move(timing));
  return out;
}

}  // namespace wlgen::obs
