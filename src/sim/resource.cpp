#include "sim/resource.h"

#include <stdexcept>
#include <utility>

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

void Resource::use(SimTime service_time, EventFn on_complete) {
  if (service_time < 0.0) throw std::invalid_argument("Resource::use: negative service time");
  if (!on_complete) throw std::invalid_argument("Resource::use: empty completion");
  integrate_to_now();
  Request& request = requests_.acquire();
  request.service_time = service_time;
  request.on_complete = std::move(on_complete);
  request.next = nullptr;
  if (busy_ < capacity_) {
    start_service(request);
    return;
  }
  (wait_tail_ == nullptr ? wait_head_ : wait_tail_->next) = &request;
  wait_tail_ = &request;
  ++waiting_;
}

void Resource::start_service(Request& request) {
  ++busy_;
  sim_.schedule(request.service_time, [this, &request]() { on_service_done(request); });
}

void Resource::on_service_done(Request& request) {
  integrate_to_now();
  --busy_;
  ++completed_;
  EventFn on_complete = std::move(request.on_complete);
  requests_.release(request);
  if (wait_head_ != nullptr) {
    Request& next = *wait_head_;
    wait_head_ = next.next;
    if (wait_head_ == nullptr) wait_tail_ = nullptr;
    --waiting_;
    start_service(next);
  }
  // Run the completion after dequeueing the successor so a completion that
  // immediately re-enters use() observes a consistent queue.
  on_complete();
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
