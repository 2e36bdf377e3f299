#include "core/replay.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/log_sink.h"
#include "sim/stages.h"

namespace wlgen::core {

namespace {

/// 2^53 µs: past this, adjacent doubles on the simulated clock are 2 µs
/// apart, so re-measured responses would round away.
constexpr double kMaxClockUs = 9007199254740992.0;

/// Throws when `span_us` of trace, stretched by `scale`, passes 2^53 µs.
void check_span(double span_us, double scale) {
  if (!(span_us * scale <= kMaxClockUs)) {  // inf and NaN included
    std::ostringstream message;
    message << "TraceReplayer: time_scale " << scale << " stretches the trace's " << span_us
            << " us span past 2^53 us, where the clock cannot resolve a response";
    throw TimeScaleError(message.str());
  }
}

/// The file-system call a recorded op makes.
fsmodel::FsOp op_of(const OpRecord& record) {
  fsmodel::FsOp op;
  op.type = record.op;
  op.file_id = record.file_id;
  op.size = record.actual_bytes;
  op.file_size = record.file_size;
  return op;
}

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
    self->sim_.schedule(gap, [this, &r]() { issue(r); });
  }

  void issue(const OpRecord& record) {
    const double issued = self->sim_.now();
    sim::execute_chain(self->sim_, self->model_.plan(op_of(record)),
                       [this, &record, issued](double elapsed) {
                         OpRecord out = record;
                         out.issue_time_us = issued;
                         out.response_us = elapsed;
                         self->closed_.push_back(out);
                         ++self->ops_replayed_;
                         step();
                       });
  }
};

TraceReplayer::TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model,
                             const UsageLog& trace)
    : sim_(sim), model_(model), loaded_(&trace) {}

TraceReplayer::TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model,
                             LogReader& trace)
    : sim_(sim), model_(model), stream_(&trace) {}

UsageLog TraceReplayer::run() { return run(Options{}); }

UsageLog TraceReplayer::run(const Options& options) {
  UsageLog log;
  if (!run(options, [&log](const OpRecord& record) { log.append(record); })) {
    throw std::logic_error(
        "TraceReplayer::run: the streamed trace's issue times go backwards; replay it loaded");
  }
  return log;
}

bool TraceReplayer::run(const Options& options, const OnReplayed& on_replayed) {
  if (ran_) throw std::logic_error("TraceReplayer::run: may only run once");
  ran_ = true;
  if (!(options.time_scale > 0.0)) {  // NaN included
    throw TimeScaleError("TraceReplayer: time_scale must be > 0");
  }
  on_replayed_ = &on_replayed;
  if (loaded_ != nullptr) {
    replay_loaded(*loaded_, options);
  } else if (options.preserve_timing) {
    return stream_open_loop(*stream_, options.time_scale);
  } else {
    const UsageLog trace = materialize(*stream_);
    replay_loaded(trace, options);
  }
  return true;
}

void TraceReplayer::replay_loaded(const UsageLog& trace, const Options& options) {
  const std::vector<OpRecord>& records = trace.records();
  if (!records.empty()) {
    const auto [first, last] = std::minmax_element(
        records.begin(), records.end(),
        [](const OpRecord& a, const OpRecord& b) { return a.issue_time_us < b.issue_time_us; });
    check_span(last->issue_time_us - first->issue_time_us, options.time_scale);
  }
  if (options.preserve_timing) {
    run_open_loop(trace, options.time_scale);
  } else {
    run_closed_loop(trace, options.time_scale);
  }
}

void TraceReplayer::issue(const OpRecord& record) {
  OpRecord replayed = record;
  replayed.issue_time_us = sim_.now();
  // {this, record} is 80 bytes, exactly ChainDone's inline capacity: the
  // completion carries the record instead of pointing into a held trace.
  sim::execute_chain(sim_, model_.plan(op_of(record)), [this, replayed](double elapsed) mutable {
    replayed.response_us = elapsed;
    ++ops_replayed_;
    (*on_replayed_)(replayed);
  });
}

bool TraceReplayer::stream_open_loop(LogReader& trace, double scale) {
  // As run_open_loop, one record at a time: each fires as soon as it is
  // read, which keeps the order only while the scaled times never go back.
  OpRecord record;
  if (trace.next(record)) {
    const double base = record.issue_time_us;
    double lowest = base;
    double highest = base;
    double last_at = 0.0;
    do {
      lowest = std::min(lowest, record.issue_time_us);
      highest = std::max(highest, record.issue_time_us);
      check_span(highest - lowest, scale);
      const double at = std::max(0.0, (record.issue_time_us - base) * scale);
      if (at < last_at) return false;
      last_at = at;
      sim_.fire_at(at, [&] { issue(record); });
    } while (trace.next(record));
  }
  sim_.run();
  return true;
}

void TraceReplayer::run_open_loop(const UsageLog& trace, double scale) {
  // Every op fires at its recorded (scaled) offset from the first record,
  // regardless of how long the replayed calls take.
  const std::vector<OpRecord>& records = trace.records();
  const double base = records.empty() ? 0.0 : records.front().issue_time_us;
  const auto at = [&](std::size_t i) {
    return std::max(0.0, (records[i].issue_time_us - base) * scale);
  };
  const auto fire = [&](std::size_t i) {
    sim_.fire_at(at(i), [&] { issue(records[i]); });
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

void TraceReplayer::run_closed_loop(const UsageLog& trace, double scale) {
  // Per recorded user, preserve the think gaps between the end of one call
  // and the issue of the next.  Every user's walk starts at simulated time 0.
  std::map<std::uint32_t, UserWalk> walks;
  for (const OpRecord& r : trace.records()) walks[r.user].ops.push_back(&r);
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
  closed_.reserve(trace.size());
  for (auto& [user, walk] : walks) {
    walk.self = this;
    walk.step();
  }
  sim_.run();

  // Canonical order for determinism: by issue time, then user.
  std::sort(closed_.begin(), closed_.end(), [](const OpRecord& a, const OpRecord& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  for (const OpRecord& record : closed_) (*on_replayed_)(record);
  closed_ = std::vector<OpRecord>();
}

}  // namespace wlgen::core
