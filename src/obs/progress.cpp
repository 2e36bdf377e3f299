#include "obs/progress.h"

#include <cinttypes>
#include <cstdio>

namespace wlgen::obs {

namespace {

// "1.25M" / "532k" / "87" — compact counts for a one-line heartbeat.
std::string compact(double value) {
  char buffer[32];
  if (value >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.2fG", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2fM", value / 1e6);
  } else if (value >= 1e4) {
    std::snprintf(buffer, sizeof(buffer), "%.0fk", value / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  }
  return buffer;
}

}  // namespace

ProgressReporter::ProgressReporter(Options options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  if (options_.interval_ms > 0) {
    thread_ = std::thread([this] { loop(); });
  }
}

ProgressReporter::~ProgressReporter() { stop(); }

void ProgressReporter::advance(std::size_t units, std::uint64_t events, double sim_us) {
  if (units != 0) units_.fetch_add(units, std::memory_order_relaxed);
  if (events != 0) events_.fetch_add(events, std::memory_order_relaxed);
  if (sim_us > 0.0) {
    sim_us_.fetch_add(static_cast<std::uint64_t>(sim_us), std::memory_order_relaxed);
  }
}

void ProgressReporter::note_sim_time(double sim_us) {
  if (sim_us <= 0.0) return;
  const auto value = static_cast<std::uint64_t>(sim_us);
  std::uint64_t seen = sim_us_max_.load(std::memory_order_relaxed);
  while (seen < value &&
         !sim_us_max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void ProgressReporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    done_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  emit(true);
}

void ProgressReporter::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!done_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
    if (done_) break;
    lock.unlock();
    emit(false);
    lock.lock();
  }
}

void ProgressReporter::emit(bool final_line) {
  const auto wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  const std::size_t units = units_.load(std::memory_order_relaxed);
  const auto events = events_.load(std::memory_order_relaxed);
  const double sim_us =
      static_cast<double>(sim_us_.load(std::memory_order_relaxed)) +
      static_cast<double>(sim_us_max_.load(std::memory_order_relaxed));

  std::string line = "[wlgen] ";
  line += options_.label.empty() ? "run" : options_.label;
  line += final_line ? " done: " : ": ";
  line += std::to_string(units);
  if (options_.total_units > 0) {
    line += '/';
    line += std::to_string(options_.total_units);
  }
  line += ' ';
  line += options_.unit;
  if (options_.total_units > 0 && units <= options_.total_units) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), " (%.0f%%)",
                  100.0 * static_cast<double>(units) /
                      static_cast<double>(options_.total_units));
    line += buffer;
  }
  line += " | " + compact(static_cast<double>(events)) + " events";
  if (wall > 0.0) {
    line += " | " + compact(static_cast<double>(events) / wall) + " events/s";
    if (sim_us > 0.0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), " | sim/wall %.0fx",
                    sim_us / 1e6 / wall);
      line += buffer;
    }
  }
  if (!final_line && options_.total_units > 0 && units > 0 &&
      units < options_.total_units) {
    const double eta = wall * static_cast<double>(options_.total_units - units) /
                       static_cast<double>(units);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " | eta %.0fs", eta);
    line += buffer;
  }
  if (final_line) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " | %.1fs wall", wall);
    line += buffer;
  }
  line += "\n";
  std::fputs(line.c_str(), stderr);
}

}  // namespace wlgen::obs
