#include "sim/simulator.hpp"

#include <stdexcept>

namespace nadfs::sim {

void Simulator::schedule_at(TimePs when, EventFn&& fn) {
  if (when < now_) {
    throw std::logic_error("Simulator::schedule_at: event scheduled in the past");
  }
  queue_.push(when, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The event is moved out of the queue before it runs: the callback may
  // schedule new events (growing the heap and the slab) while it executes.
  auto ev = queue_.pop();
  now_ = ev.when;
  ++executed_;
  ev.payload();
  return true;
}

TimePs Simulator::run() {
  while (step()) {
  }
  return now_;
}

TimePs Simulator::run_until(TimePs deadline) {
  for (const auto* next = queue_.peek(); next != nullptr && next->when <= deadline;
       next = queue_.peek()) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace nadfs::sim
