#include "runner/stats.h"

namespace wlgen::runner {

RunnerStats::RunnerStats(HistogramSpec spec)
    : response_hist_(spec.lo_us, spec.hi_us, spec.bins) {}

void RunnerStats::add(const core::OpRecord& record) {
  ops_.add(record);
  response_hist_.add(record.response_us);
}

void RunnerStats::merge(const RunnerStats& other) {
  ops_.merge(other.ops_);
  response_hist_.merge(other.response_hist_);
}

}  // namespace wlgen::runner
