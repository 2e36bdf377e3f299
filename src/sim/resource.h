#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/callback.h"
#include "sim/pool.h"
#include "sim/simulation.h"

namespace wlgen::sim {

/// A FCFS multi-server queueing resource (disk arm, server CPU, network
/// medium).  Requests that find all servers busy wait in arrival order.
///
/// The contention this produces is the entire mechanism behind the paper's
/// Figures 5.6–5.11: with zero think time every simulated user keeps a
/// request outstanding at the server disk, so response time grows linearly
/// with the number of users.
///
/// Engineering: every request, waiting or in service, sits in a pool the
/// resource owns and recycles; the waiting line is an intrusive FIFO
/// through the pooled requests.  The service-done event captures only
/// `{this, request}`, so it stays inline in EventFn, and a warm resource
/// queues and serves without allocating.
class Resource {
 public:
  /// capacity = number of parallel servers (>= 1).
  Resource(Simulation& sim, std::string name, std::size_t capacity = 1);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Requests `service_time` microseconds of service; `on_complete` runs when
  /// the request finishes (after any queueing delay).
  void use(SimTime service_time, EventFn on_complete);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  /// Requests completed so far.
  std::uint64_t completed() const { return completed_; }

  /// Requests currently waiting (not in service).
  std::size_t queue_length() const { return waiting_; }

  /// Requests currently in service.
  std::size_t in_service() const { return busy_; }

  /// Time-averaged utilisation in [0, 1]: busy-server integral over
  /// capacity * elapsed.  Zero before any time elapses.
  double utilization() const;

  /// Time-averaged number of waiting requests.
  double mean_queue_length() const;

  /// Total accumulated service time (busy-server time integral).
  SimTime busy_time() const;

  /// Resets counters and time integrals (state in service is kept).
  void reset_stats();

 private:
  /// A pooled request.  `next` links the waiting FIFO while the request
  /// waits, and the pool's free list once it has completed.
  struct Request {
    SimTime service_time = 0.0;
    EventFn on_complete;
    Request* next = nullptr;
  };

  void integrate_to_now();
  void start_service(Request& request);
  void on_service_done(Request& request);

  Simulation& sim_;
  std::string name_;
  std::size_t capacity_;
  std::size_t busy_ = 0;
  Pool<Request> requests_;
  Request* wait_head_ = nullptr;  ///< oldest waiting request
  Request* wait_tail_ = nullptr;
  std::size_t waiting_ = 0;
  std::uint64_t completed_ = 0;

  SimTime stats_start_ = 0.0;
  SimTime last_change_ = 0.0;
  double busy_integral_ = 0.0;
  double queue_integral_ = 0.0;
};

}  // namespace wlgen::sim
