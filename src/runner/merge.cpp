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

bool is_merge_ordered(core::LogReader& reader) {
  core::OpRecord prev;
  if (!reader.next(prev)) return true;
  core::OpRecord cur;
  while (reader.next(cur)) {
    if (prev.issue_time_us > cur.issue_time_us) return false;
    if (prev.issue_time_us == cur.issue_time_us && prev.user > cur.user) return false;
    prev = cur;
  }
  return true;
}

}  // namespace wlgen::runner
