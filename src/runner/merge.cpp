#include "runner/merge.h"

#include <algorithm>

namespace wlgen::runner {

core::UsageLog merge_user_logs(std::vector<core::UsageLog> per_user) {
  std::size_t total = 0;
  for (const auto& log : per_user) total += log.size();

  core::UsageLog merged;
  auto& records = merged.records_mutable();
  records.reserve(total);
  // Concatenate in ascending user order, then stable-sort on the
  // (time, user) key: stability preserves each user's issue order for
  // records with equal keys, which is exactly the merge contract.
  for (auto& log : per_user) {
    for (auto& r : log.records_mutable()) records.push_back(r);
    log.clear();
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const core::OpRecord& a, const core::OpRecord& b) {
                     if (a.issue_time_us != b.issue_time_us) {
                       return a.issue_time_us < b.issue_time_us;
                     }
                     return a.user < b.user;
                   });
  return merged;
}

bool OrderCheck::next(core::OpRecord& out) {
  if (!inner_.next(out)) return false;
  if (started_ && (out.issue_time_us < prev_.issue_time_us ||
                   (out.issue_time_us == prev_.issue_time_us && out.user < prev_.user))) {
    ordered_ = false;
  }
  prev_ = out;
  started_ = true;
  return true;
}

bool is_merge_ordered(core::LogReader& reader) {
  OrderCheck check(reader);
  core::OpRecord record;
  while (check.next(record)) continue;
  return check.ordered();
}

}  // namespace wlgen::runner
