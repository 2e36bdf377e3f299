#pragma once

#include <vector>

#include "core/log_sink.h"
#include "core/usage_log.h"

namespace wlgen::runner {

/// Merges per-user usage logs (indexed by global user, each in issue-time
/// order) into one log ordered by the runner's merge contract:
///
///   (issue_time_us ascending, user index ascending, per-user issue order)
///
/// Timestamp ties across users break by user index — the deterministic
/// analogue of the event core's FIFO tie-break — and ties within a user keep
/// the user's own issue order.  The result is a pure function of the
/// per-user inputs, so it is bit-identical however those inputs were
/// produced (1 shard or N, 1 thread or T).  The sharded runner never calls
/// it: core::open_spilled_log's k-way merge over its sorted runs yields the
/// same stream.  It stays as the independent reference for tests and
/// benchmarks.
core::UsageLog merge_user_logs(std::vector<core::UsageLog> per_user);

/// Passes `inner`'s records through, checking that the stream is
/// non-descending on the (issue_time_us, user) key — the observable half of
/// the merge contract — in the pass that drains it, in O(1) memory
/// (core::write_log_file makes the same check slice by slice).  Per-user
/// sub-order on full ties is NOT checkable from a log alone (records carry
/// no per-user issue ordinal); the runner tests pin it by comparing whole
/// logs with merge_user_logs.
class OrderCheck final : public core::LogReader {
 public:
  explicit OrderCheck(core::LogReader& inner) : inner_(inner) {}

  bool next(core::OpRecord& out) override;

  /// False once a record came before its predecessor in key order.
  bool ordered() const { return ordered_; }

 private:
  core::LogReader& inner_;
  core::OpRecord prev_;
  bool started_ = false;
  bool ordered_ = true;
};

/// Drains `reader` through an OrderCheck: true when it is in order.
bool is_merge_ordered(core::LogReader& reader);

}  // namespace wlgen::runner
