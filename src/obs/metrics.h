#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace wlgen::obs {

/// Merge rule of one metric (the registry's per-shard fold contract):
///
/// * counter   — unsigned event count; merge = integer sum.  Grouping a sum
///               of integers differently never changes it, so counters are
///               invariant across shard AND thread counts.
/// * gauge_max — high-water mark; merge = max (also grouping-invariant).
/// * sum       — double accumulation (service-time sums).  Floating-point
///               addition is NOT associative, so sums are only invariant
///               when the fold visits the underlying per-entity slots in a
///               fixed order — the runners therefore tally sums per *user*
///               (or per replication) and fold in ascending entity order,
///               exactly the RunnerStats merge contract.
enum class MetricKind { counter, gauge_max, sum };

const char* to_string(MetricKind kind);

/// One named metric.  `stable == true` marks values that are bit-identical
/// for every shard/thread count (the determinism tests pin them exactly);
/// wall-clock derived metrics (pool busy/idle) are marked unstable and
/// serialize into a separate "timing" section.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::counter;
  bool stable = true;
  std::uint64_t count = 0;  ///< counter / gauge_max payload
  double value = 0.0;       ///< sum payload
};

/// Ordered, name-addressed metric set.  Registries are built per shard (or
/// per runner) from plain private counters — no atomics, no locks: each
/// shard's counters are touched by exactly one worker, which is what makes
/// them lock-free — and merged in fixed shard order, so the merged registry
/// inherits the runners' bit-identical determinism guarantee.
///
/// Registry calls are cold-path (end of a user/replication, end of a run);
/// the hot path updates plain struct fields (core::OpStats) and exports
/// here once.
class Registry {
 public:
  /// counter += delta.
  void add_counter(std::string_view name, std::uint64_t delta, bool stable = true);

  /// gauge_max = max(gauge_max, value).
  void add_gauge_max(std::string_view name, std::uint64_t value, bool stable = true);

  /// sum += delta (callers are responsible for a fixed fold order).
  void add_sum(std::string_view name, double delta, bool stable = true);

  /// Folds `other` into this by (name, kind); unseen metrics append in
  /// `other`'s order, so merging in fixed shard order is deterministic.
  /// Throws std::invalid_argument when a name is reused with another kind.
  void merge(const Registry& other);

  bool empty() const { return metrics_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Exact text of every *stable* metric, one per line ("name value", sums
  /// as %.17g: equal bits => equal text).  The determinism tests compare
  /// this across shard/thread counts with EXPECT_EQ.
  std::string stable_text() const;

  /// {"metrics": {stable...}, "timing": {unstable...}} — insertion order
  /// preserved, numbers exact for counters (< 2^53) and %.17g for sums.
  util::JsonValue to_json() const;

 private:
  Metric& slot(std::string_view name, MetricKind kind, bool stable);

  std::vector<Metric> metrics_;
};

}  // namespace wlgen::obs
