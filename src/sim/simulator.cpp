#include "sim/simulator.hpp"

#include <stdexcept>

#include "sim/parallel.hpp"

namespace nadfs::sim {

namespace detail {
thread_local LaneTls g_lane_tls;
}  // namespace detail

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

void Simulator::schedule_at(TimePs when, EventFn&& fn) {
  if (part_) {
    part_->schedule(detail::PartitionedEngine::kCurrentDomain, when, std::move(fn), false);
    return;
  }
  if (when < now_) {
    throw std::logic_error("Simulator::schedule_at: event scheduled in the past");
  }
  queue_.push(when, std::move(fn));
}

void Simulator::schedule_at_domain(DomainId domain, TimePs when, EventFn&& fn) {
  if (part_) {
    part_->schedule(domain, when, std::move(fn), false);
    return;
  }
  schedule_at(when, std::move(fn));
}

void Simulator::schedule_fence_at(TimePs when, EventFn&& fn) {
  if (part_) {
    part_->schedule(detail::PartitionedEngine::kCurrentDomain, when, std::move(fn), true);
    return;
  }
  // Serial core: a fence is an ordinary event — it already runs with
  // "every lane" (the one lane) parked, at the (when, seq) a plain
  // schedule would assign. Identical ordering in both modes.
  schedule_at(when, std::move(fn));
}

bool Simulator::step() {
  if (part_) return part_->step();
  if (queue_.empty()) return false;
  // The event is moved out before any bucket/cursor maintenance runs: the
  // callback may schedule new events (growing/re-bucketing the calendar)
  // while it executes.
  auto ev = queue_.pop();
  now_ = ev.when;
  ++executed_;
  if (pop_observer_) pop_observer_(pop_observer_ctx_, ev.when, ev.seq);
  ev.payload();
  return true;
}

TimePs Simulator::run() {
  if (part_) return part_->run(0, /*has_deadline=*/false);
  while (step()) {
  }
  return now_;
}

TimePs Simulator::run_until(TimePs deadline) {
  if (part_) return part_->run(deadline, /*has_deadline=*/true);
  for (const auto* next = queue_.peek(); next != nullptr && next->when <= deadline;
       next = queue_.peek()) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

std::size_t Simulator::pending_events() const {
  return part_ ? part_->pending_events() : queue_.size();
}

void Simulator::enable_partitions(std::size_t domains, TimePs lookahead, unsigned threads) {
  if (part_) {
    throw std::logic_error("Simulator::enable_partitions: already partitioned");
  }
  if (!queue_.empty() || executed_ != 0 || now_ != 0) {
    throw std::logic_error(
        "Simulator::enable_partitions: must be called on a fresh simulator, "
        "before any event is scheduled or executed");
  }
  if (domains == 0) {
    throw std::logic_error("Simulator::enable_partitions: need at least one domain");
  }
  if (lookahead == 0) {
    throw std::logic_error(
        "Simulator::enable_partitions: a zero lookahead admits no window "
        "(cross-domain events could land at the current instant)");
  }
  part_ = std::make_unique<detail::PartitionedEngine>(*this, domains, lookahead, threads);
}

std::size_t Simulator::domain_count() const { return part_ ? part_->domain_count() : 1; }

TimePs Simulator::lookahead() const { return part_ ? part_->lookahead() : 0; }

unsigned Simulator::parallel_threads() const { return part_ ? part_->threads() : 1; }

DomainId Simulator::current_domain() const { return part_ ? part_->current_domain() : 0; }

void Simulator::set_external_domain(DomainId d) {
  if (part_ && d >= part_->domain_count()) {
    throw std::logic_error("Simulator::set_external_domain: unknown domain");
  }
  external_domain_ = d;
}

}  // namespace nadfs::sim
