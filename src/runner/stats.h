#pragma once

#include <cstdint>

#include "core/analysis.h"
#include "core/usage_log.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace wlgen::runner {

/// Geometry of the runner's response-time histogram.  Fixed up front (not
/// derived from the data) so per-shard histograms share bins and merge
/// exactly.
struct HistogramSpec {
  double lo_us = 0.0;
  double hi_us = 2.0e5;  ///< clamp tail into the top bin (Histogram semantics)
  std::size_t bins = 100;
};

/// Mergeable per-run aggregates — the statistics a sharded run can report
/// without retaining any usage log: the per-op fold (core::OpStats) and a
/// response-time histogram.  Each shard accumulates one RunnerStats per
/// user (via UsimConfig::on_record); the runner then folds them in
/// ascending global-user order, so the merged result is a fixed
/// floating-point reduction sequence: bit-identical regardless of how many
/// shards or threads executed the run (the merge-ordering contract, see
/// DESIGN.md "Sharded runner").
class RunnerStats {
 public:
  explicit RunnerStats(HistogramSpec spec = {});

  /// Accumulates one completed system call.
  void add(const core::OpRecord& record);

  /// Folds `other` into this (histogram geometries must match).
  void merge(const RunnerStats& other);

  /// The per-op fold: per op type and in total.
  const core::OpStats& op_stats() const { return ops_; }

  /// Response time over every logged call (UsageAnalyzer::response_stats).
  const stats::RunningSummary& response_us() const { return ops_.response_us; }

  /// Actual bytes per read/write call (UsageAnalyzer::access_size_stats).
  const stats::RunningSummary& access_size() const { return ops_.access_size; }

  /// Response-time distribution over all calls, fixed spec bins.
  const stats::Histogram& response_histogram() const { return response_hist_; }

  std::uint64_t ops() const { return ops_.ops(); }
  std::uint64_t bytes_moved() const { return ops_.bytes_moved; }

  /// Total response over all calls / bytes moved by data calls — the
  /// Figures 5.6–5.12 y-axis (UsageAnalyzer::response_per_byte_us).
  double response_per_byte_us() const { return ops_.response_per_byte_us(); }

 private:
  core::OpStats ops_;
  stats::Histogram response_hist_;
};

}  // namespace wlgen::runner
