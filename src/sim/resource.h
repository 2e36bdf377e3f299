#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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
/// Engineering: a resource queues the executing chains themselves
/// (execute_chain, sim/stages.h).  The waiting line is an intrusive FIFO
/// through each waiting chain's state, and the service-done event captures
/// only `{this, chain}`, so it stays inline in EventFn: a resource holds no
/// per-request storage of its own and queues and serves without
/// allocating.
class Resource {
 public:
  /// capacity = number of parallel servers (>= 1).
  Resource(Simulation& sim, std::string name, std::size_t capacity = 1);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Serves the current stage of `chain` (a use of this resource) for its
  /// duration, after any queueing delay, then runs the chain on.  Called
  /// by execute_chain: a chain is the only thing a resource serves.
  void serve(ChainState& chain);

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
  void integrate_to_now();
  void start_service(ChainState& chain);
  void on_service_done(ChainState& chain);

  Simulation& sim_;
  std::string name_;
  std::size_t capacity_;
  std::size_t busy_ = 0;
  ChainState* wait_head_ = nullptr;  ///< oldest waiting chain, linked through `next`
  ChainState* wait_tail_ = nullptr;
  std::size_t waiting_ = 0;
  std::uint64_t completed_ = 0;

  SimTime stats_start_ = 0.0;
  SimTime last_change_ = 0.0;
  double busy_integral_ = 0.0;
  double queue_integral_ = 0.0;
};

}  // namespace wlgen::sim
