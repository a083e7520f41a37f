// Cancelable periodic task on the simulator.
//
// A naive self-rescheduling event keeps the queue non-empty forever, so a
// simulation that runs one can never drain — Simulator::run() would spin
// until the heat death of the universe. Periodic threads a shared stop
// flag through each rescheduled event: stop() (or destruction) flips it,
// the next firing sees it and exits, and the queue drains. Used by the
// failure detector's heartbeat loop.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "sim/simulator.hpp"

namespace nadfs::sim {

class Periodic {
 public:
  explicit Periodic(Simulator& sim) : sim_(sim) {}
  ~Periodic() { stop(); }
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

  /// Run `tick` every `interval`, first firing one interval from now.
  /// Restarting an already-running Periodic cancels the old cadence.
  void start(TimePs interval, std::function<void()> tick) {
    stop();
    state_ = std::make_shared<State>();
    state_->interval = interval;
    state_->tick = std::move(tick);
    arm(sim_, state_);
  }

  /// Cancel. The already-scheduled next firing becomes a no-op; it is not
  /// unscheduled (the simulator has no event removal), it just runs empty.
  void stop() {
    if (state_) state_->running = false;
    state_.reset();
  }

  bool running() const { return state_ != nullptr; }

 private:
  struct State {
    bool running = true;
    TimePs interval = 0;
    std::function<void()> tick;
  };

  static void arm(Simulator& sim, const std::shared_ptr<State>& state) {
    // Captures the Simulator by reference: it owns the event queue, so it
    // outlives every scheduled event by construction.
    auto body = [&sim, state] {
      if (!state->running) return;
      state->tick();
      if (state->running) arm(sim, state);
    };
    sim.schedule(state->interval, std::move(body));
  }

  Simulator& sim_;
  std::shared_ptr<State> state_;
};

}  // namespace nadfs::sim
