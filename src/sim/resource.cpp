#include "sim/resource.h"

#include <stdexcept>
#include <utility>

#include "sim/chain_state.h"

namespace wlgen::sim {

Resource::Resource(Simulation& sim, std::string name, std::size_t capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("Resource: capacity must be >= 1");
  stats_start_ = last_change_ = sim_.now();
}

void Resource::integrate_to_now() {
  const SimTime dt = sim_.now() - last_change_;
  if (dt > 0.0) {
    busy_integral_ += dt * static_cast<double>(busy_);
    queue_integral_ += dt * static_cast<double>(waiting_);
    last_change_ = sim_.now();
  }
}

void Resource::serve(ChainState& chain) {
  integrate_to_now();
  if (busy_ < capacity_) {
    start_service(chain);
    return;
  }
  chain.next = nullptr;
  (wait_tail_ == nullptr ? wait_head_ : wait_tail_->next) = &chain;
  wait_tail_ = &chain;
  ++waiting_;
}

void Resource::start_service(ChainState& chain) {
  ++busy_;
  sim_.schedule(chain.stage().duration, [this, &chain]() { on_service_done(chain); });
}

void Resource::on_service_done(ChainState& chain) {
  integrate_to_now();
  --busy_;
  ++completed_;
  if (wait_head_ != nullptr) {
    ChainState& next = *wait_head_;
    wait_head_ = next.next;
    if (wait_head_ == nullptr) wait_tail_ = nullptr;
    --waiting_;
    start_service(next);
  }
  // Run the finished chain on after dequeueing the successor, so a chain
  // whose next stage uses this resource again joins a consistent queue.
  finish_stage(chain);
}

double Resource::utilization() const {
  const SimTime elapsed = sim_.now() - stats_start_;
  if (elapsed <= 0.0) return 0.0;
  double integral = busy_integral_;
  integral += (sim_.now() - last_change_) * static_cast<double>(busy_);
  return integral / (elapsed * static_cast<double>(capacity_));
}

double Resource::mean_queue_length() const {
  const SimTime elapsed = sim_.now() - stats_start_;
  if (elapsed <= 0.0) return 0.0;
  double integral = queue_integral_;
  integral += (sim_.now() - last_change_) * static_cast<double>(waiting_);
  return integral / elapsed;
}

SimTime Resource::busy_time() const {
  return busy_integral_ + (sim_.now() - last_change_) * static_cast<double>(busy_);
}

void Resource::reset_stats() {
  completed_ = 0;
  busy_integral_ = 0.0;
  queue_integral_ = 0.0;
  stats_start_ = last_change_ = sim_.now();
}

}  // namespace wlgen::sim
