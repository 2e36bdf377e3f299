#include "core/replay.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/stages.h"

namespace wlgen::core {

namespace {

/// 2^53 µs: past this, adjacent doubles on the simulated clock are 2 µs
/// apart, so re-measured responses would round away.
constexpr double kMaxClockUs = 9007199254740992.0;

}  // namespace

/// One recorded user in closed loop: its ops in issue order and the think
/// gap before each, walked as gap -> op -> completion -> next.
struct TraceReplayer::UserWalk {
  TraceReplayer* self = nullptr;
  std::vector<const OpRecord*> ops;
  std::vector<double> gaps;  // gap before ops[i]
  std::size_t index = 0;

  void step() {
    if (index >= ops.size()) return;
    const OpRecord& r = *ops[index];
    const double gap = gaps[index];
    ++index;
    self->sim_.schedule(gap, [this, &r]() { self->issue(r, this); });
  }
};

TraceReplayer::TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model,
                             const UsageLog& trace)
    : sim_(sim), model_(model), trace_(trace) {}

UsageLog TraceReplayer::run() { return run(Options{}); }

UsageLog TraceReplayer::run(const Options& options) {
  if (ran_) throw std::logic_error("TraceReplayer::run: may only run once");
  ran_ = true;
  if (!(options.time_scale > 0.0)) {  // NaN included
    throw std::invalid_argument("TraceReplayer: time_scale must be > 0");
  }
  const std::vector<OpRecord>& records = trace_.records();
  if (!records.empty()) {
    const auto [first, last] = std::minmax_element(
        records.begin(), records.end(),
        [](const OpRecord& a, const OpRecord& b) { return a.issue_time_us < b.issue_time_us; });
    const double span = last->issue_time_us - first->issue_time_us;
    if (!(span * options.time_scale <= kMaxClockUs)) {  // inf and NaN included
      std::ostringstream message;
      message << "TraceReplayer: time_scale " << options.time_scale << " stretches the trace's "
              << span << " us span past 2^53 us, where the clock cannot resolve a response";
      throw std::invalid_argument(message.str());
    }
  }
  if (options.preserve_timing) {
    run_open_loop(options.time_scale);
  } else {
    run_closed_loop(options.time_scale);
  }
  return std::move(replayed_);
}

void TraceReplayer::issue(const OpRecord& record, UserWalk* walk) {
  fsmodel::FsOp op;
  op.type = record.op;
  op.file_id = record.file_id;
  op.size = record.actual_bytes;
  op.file_size = record.file_size;
  const double issued = sim_.now();
  sim::execute_chain(sim_, model_.plan(op), [this, &record, walk, issued](double elapsed) {
    OpRecord out = record;
    out.issue_time_us = issued;
    out.response_us = elapsed;
    replayed_.append(out);
    ++ops_replayed_;
    if (walk != nullptr) walk->step();
  });
}

void TraceReplayer::run_open_loop(double scale) {
  // Every op fires at its recorded (scaled) offset from the first record,
  // regardless of how long the replayed calls take.
  const std::vector<OpRecord>& records = trace_.records();
  const double base = records.empty() ? 0.0 : records.front().issue_time_us;
  const auto at = [&](std::size_t i) {
    return std::max(0.0, (records[i].issue_time_us - base) * scale);
  };
  const auto fire = [&](std::size_t i) {
    sim_.fire_at(at(i), [&] { issue(records[i], nullptr); });
  };
  bool ordered = true;
  for (std::size_t i = 1; i < records.size() && ordered; ++i) ordered = at(i - 1) <= at(i);
  if (ordered) {
    for (std::size_t i = 0; i < records.size(); ++i) fire(i);
  } else {
    std::vector<std::uint32_t> order(records.size());
    std::iota(order.begin(), order.end(), 0U);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return at(a) < at(b); });
    for (const std::uint32_t i : order) fire(i);
  }
  sim_.run();
}

void TraceReplayer::run_closed_loop(double scale) {
  // Per recorded user, preserve the think gaps between the end of one call
  // and the issue of the next.  Every user's walk starts at simulated time 0.
  std::map<std::uint32_t, UserWalk> walks;
  for (const OpRecord& r : trace_.records()) walks[r.user].ops.push_back(&r);
  for (auto& [user, walk] : walks) {
    auto& ops = walk.ops;
    std::stable_sort(ops.begin(), ops.end(), [](const OpRecord* a, const OpRecord* b) {
      return a->issue_time_us < b->issue_time_us;
    });
    walk.gaps.resize(ops.size(), 0.0);
    for (std::size_t i = 1; i < ops.size(); ++i) {
      const double prev_end = ops[i - 1]->issue_time_us + ops[i - 1]->response_us;
      walk.gaps[i] = std::max(0.0, (ops[i]->issue_time_us - prev_end) * scale);
    }
  }
  for (auto& [user, walk] : walks) {
    walk.self = this;
    walk.step();
  }
  sim_.run();

  // Canonical order for determinism: by issue time, then user.
  std::sort(replayed_.records_mutable().begin(), replayed_.records_mutable().end(),
            [](const OpRecord& a, const OpRecord& b) {
              if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
              return a.user < b.user;
            });
}

}  // namespace wlgen::core
