// Differential scheduler harness: proves the event queue
// (src/sim/event_queue.hpp), a heap of keys over a payload slab, is
// order-identical to the original binary heap of whole entries.
//
// SchedulerOracle drives sim::EventQueue and the retained reference heap
// (sim_reference_heap.hpp) in lockstep through seeded randomized
// adversarial workloads — same-timestamp tie storms, schedule-from-pop
// re-entrancy, far-future delays, drain/refill cycles across timescales —
// asserting identical (when, seq, payload) at every pop and identical
// sizes at every step. A second, simulator-level harness runs the real
// sim::Simulator against a reference-heap simulator clone and compares the
// now() trajectory, firing order, and executed_events().
//
// The EventQueueSlab suite checks the payload slab on its own: every
// payload pops with its own (when, seq) and is destroyed exactly once,
// whether popped or still queued when the queue dies, and the slab stays
// at the peak pending count.
//
// Seeds fold in NADFS_CHAOS_SEED (default 1, which keeps the historical
// seeds); scripts/check.sh reruns these suites under seeds 1 and 7 and
// under ASan/UBSan. Every assertion prints the workload seed, so a failure
// replays with --gtest_filter=<Test> and the same NADFS_CHAOS_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim_reference_heap.hpp"

namespace nadfs::sim {
namespace {

std::vector<std::uint64_t> seeds() {
  constexpr std::uint64_t kSeeds[] = {0xA11CE, 0xB0B, 0xC0FFEE};
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  const std::uint64_t chaos = env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1;
  std::vector<std::uint64_t> out;
  for (const std::uint64_t s : kSeeds) out.push_back(s + (chaos - 1) * 1000003);
  return out;
}

// ------------------------------------------------------- SchedulerOracle

/// Drives the event queue and the reference heap in lockstep. Payloads
/// are ids distinct from seq (id = 2*counter + 1) so a payload routed to
/// the wrong entry is caught even where seq happens to match.
class SchedulerOracle {
 public:
  explicit SchedulerOracle(std::uint64_t seed) : seed_(seed) {}

  ~SchedulerOracle() {
    EXPECT_EQ(q_.size(), ref_.size()) << "final size mismatch, seed=" << seed_;
  }

  /// Enqueue one event `delay` after the current (last-popped) time.
  void push(TimePs delay) {
    const TimePs when = now_ + delay;
    const std::uint64_t id = 2 * next_id_++ + 1;
    const std::uint64_t s1 = q_.push(when, std::uint64_t{id});
    const std::uint64_t s2 = ref_.push(when, id);
    EXPECT_EQ(s1, s2) << "seq assignment diverged, seed=" << seed_;
    ++ops_;
  }

  /// Pop from both queues and assert identical (when, seq, payload).
  /// Returns false once a divergence has been observed (callers bail out).
  bool pop() {
    if (dead_) return false;
    if (q_.empty() || ref_.empty()) {
      if (q_.empty() != ref_.empty()) fail("one queue empty, the other not");
      return false;
    }
    const auto* qp = q_.peek();
    const auto* rp = ref_.peek();
    if (qp->when != rp->when || qp->seq != rp->seq || q_.payload(*qp) != rp->payload) {
      fail("peek mismatch");
      return false;
    }
    auto qe = q_.pop();
    auto re = ref_.pop();
    if (qe.when != re.when || qe.seq != re.seq || qe.payload != re.payload) {
      ADD_FAILURE() << "pop mismatch at op " << ops_ << ", seed=" << seed_ << ": queue ("
                    << qe.when << "," << qe.seq << "," << qe.payload << ") vs reference ("
                    << re.when << "," << re.seq << "," << re.payload << ")";
      dead_ = true;
      return false;
    }
    if (q_.size() != ref_.size()) {
      fail("size mismatch after pop");
      return false;
    }
    now_ = qe.when;
    ++ops_;
    return true;
  }

  void drain() {
    while (!done() && pop()) {
    }
  }

  bool done() const { return dead_ || (q_.empty() && ref_.empty()); }
  bool diverged() const { return dead_; }
  TimePs now() const { return now_; }
  std::size_t pending() const { return q_.size(); }
  std::uint64_t ops() const { return ops_; }

 private:
  void fail(const char* what) {
    ADD_FAILURE() << what << " at op " << ops_ << ", seed=" << seed_;
    dead_ = true;
  }

  std::uint64_t seed_;
  TimePs now_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t ops_ = 0;
  bool dead_ = false;
  EventQueue<std::uint64_t> q_;
  ReferenceEventHeap<std::uint64_t> ref_;
};

/// Runs `workload(oracle, rng)` for every seed, then drains and checks
/// the ≥10k-op floor the acceptance criteria set.
template <typename Workload>
void run_differential(Workload workload) {
  for (const std::uint64_t seed : seeds()) {
    SchedulerOracle oracle(seed);
    Rng rng(seed);
    workload(oracle, rng);
    oracle.drain();
    EXPECT_FALSE(oracle.diverged()) << "seed=" << seed;
    EXPECT_GE(oracle.ops(), 10000u) << "workload too small to be meaningful, seed=" << seed;
  }
}

// ------------------------------------------------- adversarial workloads

TEST(SimQueueDifferential, UniformWideRange) {
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 8000; ++i) q.push(rng.next_below(TimePs{1} << 30));
  });
}

TEST(SimQueueDifferential, SameTimestampTieStorm) {
  // Every event of a round lands on one timestamp: the whole population
  // ties on `when` and must still drain in exact seq order.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int round = 0; round < 3; ++round) {
      const TimePs at = rng.next_range(1, ns(50));
      for (int i = 0; i < 4000; ++i) q.push(at);
      q.drain();
    }
  });
}

TEST(SimQueueDifferential, FewDistinctTimesHeavyTies) {
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      if (rng.next_below(10) < 6 || q.pending() == 0) {
        q.push(rng.next_below(8) * ns(1));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, BurstyClusters) {
  // The paper's goodput shape: sparse cluster bases, 48-event bursts
  // packed within ~128 ps of each base.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int c = 0; c < 200; ++c) {
      const TimePs base = rng.next_below(ms(1));
      for (int i = 0; i < 48; ++i) q.push(base + rng.next_below(128));
      for (int i = 0; i < 24; ++i) q.pop();
    }
  });
}

TEST(SimQueueDifferential, ReentrantScheduleFromPop) {
  // Models schedule-from-inside-callback: every pop may push follow-ups
  // at the just-popped time (delay 0, tying with what is left at the
  // front) or shortly after.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 2000; ++i) q.push(rng.next_below(us(1)));
    int push_budget = 10000;
    while (!q.done()) {
      if (!q.pop()) break;
      const std::uint64_t r = rng.next();
      if (push_budget > 0 && (r & 1) != 0) {
        const int kids = 1 + static_cast<int>((r >> 1) & 1);
        for (int k = 0; k < kids && push_budget > 0; --push_budget, ++k) {
          q.push((r >> (2 + k)) % 4 == 0 ? 0 : rng.next_below(ns(100)));
        }
      }
    }
  });
}

TEST(SimQueueDifferential, HorizonCrossingDelays) {
  // 30% of delays land up to 2^50 ps out, among a dense near-term
  // population, so pops alternate between the two scales.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      const std::uint64_t r = rng.next_below(10);
      if (r < 3) {
        q.push(rng.next_below(TimePs{1} << 50));
      } else if (r < 7 || q.pending() == 0) {
        q.push(rng.next_below(4096));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, DrainRefillAcrossTimescales) {
  // Full drain/refill cycles with the delay scale growing 64x per cycle:
  // every refill reuses the slots the previous drain vacated.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int cycle = 0; cycle < 6; ++cycle) {
      const TimePs scale = TimePs{1} << (4 + 6 * cycle);
      for (int i = 0; i < 2000; ++i) q.push(rng.next_below(scale));
      q.drain();
    }
  });
}

TEST(SimQueueDifferential, MonotoneSteadyStateChain) {
  // FIFO-shaped steady state (packet serialization cadence): one push at
  // now + 41 ns per pop, small constant backlog.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 64; ++i) q.push(rng.next_below(ns(41)));
    for (int i = 0; i < 10000 && !q.done(); ++i) {
      q.push(ns(41) + rng.next_below(16));
      q.pop();
    }
  });
}

TEST(SimQueueDifferential, ZeroDelayStormDuringDrain) {
  // Pushes at exactly the just-popped timestamp while its peers are still
  // queued: each must rank behind them by seq.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 4000; ++i) q.push(rng.next_below(us(1)));
    int push_budget = 8000;
    int popped = 0;
    while (!q.done()) {
      if (!q.pop()) break;
      if (push_budget > 0 && ++popped % 4 == 0) {
        q.push(0);
        q.push(0);
        push_budget -= 2;
      }
    }
  });
}

TEST(SimQueueDifferential, GeometricScaleMix) {
  // Delays spanning 45 binary orders of magnitude with a random push/pop
  // mix.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      if (rng.next_below(2) == 0 || q.pending() == 0) {
        const unsigned mag = static_cast<unsigned>(rng.next_below(45));
        q.push((TimePs{1} << mag) + rng.next_below((TimePs{1} << mag) + 1));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, RandomAdversarialMix) {
  // Everything at once: tie bursts, zero delays, horizon jumps, deep
  // drains — the closest to a fuzzer this harness gets.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 6000 && !q.diverged(); ++i) {
      switch (rng.next_below(8)) {
        case 0: {  // tie burst
          const TimePs at = rng.next_below(us(10));
          for (int k = 0; k < 16; ++k) q.push(at);
          break;
        }
        case 1:  // zero delay
          q.push(0);
          break;
        case 2:  // far future
          q.push(rng.next_below(TimePs{1} << 52));
          break;
        case 3: {  // deep drain
          for (int k = 0; k < 64 && q.pending() > 0; ++k) q.pop();
          break;
        }
        default:
          if (rng.next_below(3) == 0 && q.pending() > 0) {
            q.pop();
          } else {
            q.push(rng.next_below(us(1)));
          }
      }
    }
  });
}

// ---------------------------------------- simulator-level differential

/// Faithful clone of the PR 1 Simulator, over the retained reference heap:
/// same schedule/step/run semantics, same past-scheduling error.
class RefSimulator {
 public:
  TimePs now() const { return now_; }
  void schedule(TimePs delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }
  void schedule_at(TimePs when, EventFn fn) {
    if (when < now_) {
      throw std::logic_error("RefSimulator::schedule_at: event scheduled in the past");
    }
    q_.push(when, std::move(fn));
  }
  bool step() {
    if (q_.empty()) return false;
    auto ev = q_.pop();
    now_ = ev.when;
    ++executed_;
    ev.payload();
    return true;
  }
  std::size_t pending_events() const { return q_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  ReferenceEventHeap<EventFn> q_;
};

struct SimTrace {
  std::vector<std::pair<TimePs, int>> fired;  // (now at firing, event id)
  std::vector<TimePs> now_after_step;
  std::uint64_t executed = 0;
};

/// Re-entrant workload: callbacks draw from the (deterministic) rng to
/// spawn 0–2 children each, a quarter of them at delay 0 (same-time
/// ties scheduled from inside the running event).
template <typename SimT>
class ReentrantDriver {
 public:
  explicit ReentrantDriver(std::uint64_t seed) : rng_(seed) {}

  SimTrace run() {
    for (int i = 0; i < 100; ++i) {
      --budget_;
      schedule_one(rng_.next_below(us(1)));
    }
    while (sim_.step()) {
      trace_.now_after_step.push_back(sim_.now());
    }
    trace_.executed = sim_.executed_events();
    return std::move(trace_);
  }

 private:
  void schedule_one(TimePs delay) {
    const int id = next_id_++;
    sim_.schedule(delay, [this, id] {
      trace_.fired.emplace_back(sim_.now(), id);
      const std::uint64_t r = rng_.next();
      const int kids = static_cast<int>(r % 4);  // avg 1.5: supercritical, budget-capped
      for (int k = 0; k < kids && budget_ > 0; ++k) {
        --budget_;
        const std::uint64_t d = rng_.next();
        schedule_one(d % 4 == 0 ? 0 : d % us(2));
      }
    });
  }

  SimT sim_;
  Rng rng_;
  int budget_ = 4000;
  int next_id_ = 0;
  SimTrace trace_;
};

TEST(SimQueueDifferential, SimulatorMatchesReferenceHeapSimulator) {
  for (const std::uint64_t seed : seeds()) {
    SimTrace got = ReentrantDriver<Simulator>(seed).run();
    SimTrace ref = ReentrantDriver<RefSimulator>(seed).run();
    EXPECT_EQ(got.executed, ref.executed) << "seed=" << seed;
    EXPECT_GE(got.executed, 3000u) << "seed=" << seed;
    ASSERT_EQ(got.fired.size(), ref.fired.size()) << "seed=" << seed;
    EXPECT_EQ(got.fired, ref.fired) << "firing order diverged, seed=" << seed;
    EXPECT_EQ(got.now_after_step, ref.now_after_step)
        << "now() trajectory diverged, seed=" << seed;
  }
}

// ---------------------------------------------------- event-queue checks

TEST(EventQueue, PeekIsStableAndMatchesPop) {
  EventQueue<int> q;
  q.push(ns(7), 1);
  q.push(ns(3), 2);
  q.push(ns(3), 3);
  const auto* p = q.peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->when, ns(3));
  EXPECT_EQ(q.payload(*p), 2);  // earliest time, lowest seq
  const auto e = q.pop();
  EXPECT_EQ(e.when, ns(3));
  EXPECT_EQ(e.payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.peek(), nullptr);
}

// --------------------------------------------------- payload slab lifetime

/// How many times each payload id was destroyed while it still owned its id.
struct Ledger {
  std::vector<int> destroyed;
};

/// Move-only payload that reports its own destruction. A move hands the id
/// over, so only the one live copy is ever counted.
class Counted {
 public:
  Counted(Ledger* ledger, std::uint64_t id) : ledger_(ledger), id_(id) {}
  Counted(Counted&& other) noexcept
      : ledger_(other.ledger_), id_(std::exchange(other.id_, kNone)) {}
  Counted& operator=(Counted&& other) noexcept {
    if (this != &other) {
      release();
      ledger_ = other.ledger_;
      id_ = std::exchange(other.id_, kNone);
    }
    return *this;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { release(); }

  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t id() const { return id_; }

 private:
  void release() {
    if (id_ != kNone) ++ledger_->destroyed[id_];
    id_ = kNone;
  }

  Ledger* ledger_;
  std::uint64_t id_;
};

/// An EventQueue<Counted> that remembers the (when, seq) each payload was
/// pushed with, checks it at every peek and pop, and checks every payload
/// dies exactly once — popped ones at once, queued ones with the queue.
class SlabRig {
 public:
  explicit SlabRig(std::uint64_t seed) : seed_(seed), q_(std::make_unique<Queue>()) {}

  ~SlabRig() {
    q_.reset();  // destroys the payloads still queued
    for (std::size_t id = 0; id < ledger_.destroyed.size(); ++id) {
      EXPECT_EQ(ledger_.destroyed[id], 1) << "payload " << id << ", seed=" << seed_;
    }
  }

  void push(TimePs when) {
    const std::uint64_t id = pushed_.size();
    ledger_.destroyed.push_back(0);
    pushed_.push_back({when, 0});
    pushed_[id].seq = q_->push(when, Counted(&ledger_, id));
    EXPECT_EQ(ledger_.destroyed[id], 0) << "payload " << id << " died in push, seed=" << seed_;
  }

  TimePs pop() {
    const auto* k = q_->peek();
    const std::uint64_t peeked = q_->payload(*k).id();
    EXPECT_TRUE(matches(peeked, k->when, k->seq)) << "peek, seed=" << seed_;
    const auto e = q_->pop();
    const std::uint64_t id = e.payload.id();
    EXPECT_EQ(id, peeked) << "seed=" << seed_;
    EXPECT_TRUE(matches(id, e.when, e.seq)) << "pop, seed=" << seed_;
    EXPECT_EQ(ledger_.destroyed[id], 0) << "payload " << id << " died early, seed=" << seed_;
    return e.when;
  }

  using Queue = EventQueue<Counted>;
  Queue& queue() { return *q_; }

 private:
  struct Pushed {
    TimePs when;
    std::uint64_t seq;
  };

  bool matches(std::uint64_t id, TimePs when, std::uint64_t seq) const {
    return id < pushed_.size() && pushed_[id].when == when && pushed_[id].seq == seq;
  }

  std::uint64_t seed_;
  Ledger ledger_;
  std::vector<Pushed> pushed_;
  std::unique_ptr<Queue> q_;
};

TEST(EventQueueSlab, PayloadsSurviveEveryKeyPathAndDieOnce) {
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    SlabRig rig(seed);
    auto& q = rig.queue();
    Rng rng(seed);

    // Near keys pop before far-future ones pushed after them.
    for (int i = 0; i < 8; ++i) rig.push(rng.next_below(ns(8)));
    for (int i = 0; i < 4; ++i) rig.push(ms(1) + rng.next_below(ns(4)));
    TimePs now = 0;
    for (int i = 0; i < 8; ++i) now = rig.pop();
    EXPECT_LT(now, ms(1));
    now = rig.pop();
    EXPECT_GE(now, ms(1));

    // A fill burst with a far-future tail, then a drain.
    for (int i = 0; i < 20000; ++i) rig.push(now + rng.next_below(us(20)));
    for (int i = 0; i < 32; ++i) rig.push(now + ms(1) + rng.next_below(ms(1)));
    while (q.size() > 40) now = rig.pop();

    // Leave a mixed population queued: the queue's destructor must destroy
    // each of them exactly once (checked by ~SlabRig).
    for (int i = 0; i < 64; ++i) rig.push(now + rng.next_below(TimePs{1} << (10 + i % 40)));
    for (int i = 0; i < 8; ++i) now = rig.pop();
  }
}

TEST(EventQueueSlab, HoldModelChurnKeepsSlabAtPeakPending) {
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    SlabRig rig(seed);
    auto& q = rig.queue();
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i) rig.push(rng.next_below(us(1)));
    EXPECT_EQ(q.slab_size(), 1000u);
    // Hold model: every pop schedules one successor. Pops free a slot that
    // the next push takes back, so the slab never outgrows the population.
    for (int i = 0; i < 50000 && !::testing::Test::HasFailure(); ++i) {
      const TimePs now = rig.pop();
      rig.push(now + rng.next_below(i % 7 == 0 ? us(50) : us(1)));
      ASSERT_EQ(q.slab_size(), 1000u) << "after churn op " << i;
    }
    // Pending count wanders: the slab tracks the peak, never more.
    std::size_t peak = q.size();
    TimePs now = 0;
    for (int i = 0; i < 20000 && !::testing::Test::HasFailure(); ++i) {
      if (q.size() > 0 && rng.next_below(2) == 0) {
        now = rig.pop();
      } else {
        rig.push(now + rng.next_below(us(1)));
      }
      peak = std::max(peak, q.size());
      ASSERT_EQ(q.slab_size(), peak) << "after mixed op " << i;
    }
  }
}

}  // namespace
}  // namespace nadfs::sim
