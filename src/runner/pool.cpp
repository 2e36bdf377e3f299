#include "runner/pool.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wlgen::runner {

std::size_t resolve_pool_threads(std::size_t requested, std::size_t jobs) {
  std::size_t threads = requested;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  threads = std::min(threads, jobs);
  return std::max<std::size_t>(threads, 1);
}

std::uint64_t PoolObs::jobs() const {
  std::uint64_t total = 0;
  for (const auto& w : workers) total += w.jobs;
  return total;
}

std::uint64_t PoolObs::busy_ns() const {
  std::uint64_t total = 0;
  for (const auto& w : workers) total += w.busy_ns;
  return total;
}

std::uint64_t PoolObs::idle_ns() const {
  std::uint64_t total = 0;
  for (const auto& w : workers) total += w.idle_ns;
  return total;
}

void drain_pool(std::size_t count, std::size_t threads, const PoolWorkerFactory& make_worker,
                PoolObs* obs) {
  if (count == 0) return;
  threads = resolve_pool_threads(threads, count);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto pool_start = std::chrono::steady_clock::now();
  std::vector<std::vector<PoolJobSpan>> worker_spans;
  if (obs != nullptr) {
    obs->workers.assign(threads, PoolWorkerStat{});
    obs->spans.clear();
    if (obs->record_spans) worker_spans.resize(threads);
  }

  const auto worker = [&](std::size_t worker_index) {
    // The factory itself may throw (e.g. worker-state allocation failure);
    // that must cancel the run and rethrow on the caller, not escape the
    // thread entry function into std::terminate.
    PoolJob job;
    try {
      job = make_worker();
    } catch (...) {
      cancelled.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      return;
    }
    // Observation is hoisted out of the unobserved loop entirely: a null
    // PoolObs* means zero clock reads per job.
    const auto worker_start = std::chrono::steady_clock::now();
    std::uint64_t busy_ns = 0;
    std::uint64_t jobs_run = 0;
    while (true) {
      if (cancelled.load(std::memory_order_relaxed)) break;
      const std::size_t index = next.fetch_add(1);
      if (index >= count) break;
      const auto job_start =
          obs != nullptr ? std::chrono::steady_clock::now() : worker_start;
      try {
        job(index, cancelled);
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        break;
      }
      if (obs != nullptr) {
        const auto job_end = std::chrono::steady_clock::now();
        const auto dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                job_end - job_start)
                                .count();
        busy_ns += static_cast<std::uint64_t>(dur_ns);
        ++jobs_run;
        if (obs->record_spans) {
          PoolJobSpan span;
          span.job = static_cast<std::uint32_t>(index);
          span.worker = static_cast<std::uint32_t>(worker_index);
          span.start_us = std::chrono::duration<double, std::micro>(job_start - pool_start).count();
          span.dur_us = std::chrono::duration<double, std::micro>(job_end - job_start).count();
          worker_spans[worker_index].push_back(span);
        }
      }
    }
    if (obs != nullptr) {
      const auto worker_end = std::chrono::steady_clock::now();
      const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               worker_end - worker_start)
                               .count();
      PoolWorkerStat& stat = obs->workers[worker_index];
      stat.jobs = jobs_run;
      stat.busy_ns = busy_ns;
      stat.idle_ns = static_cast<std::uint64_t>(wall_ns) > busy_ns
                         ? static_cast<std::uint64_t>(wall_ns) - busy_ns
                         : 0;
    }
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }
  if (obs != nullptr && obs->record_spans) {
    for (auto& spans : worker_spans) {
      obs->spans.insert(obs->spans.end(), spans.begin(), spans.end());
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wlgen::runner
