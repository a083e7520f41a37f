// Direct coverage for sim::EventFn, the move-only small-buffer callable
// on the event hot path. The inline-vs-heap decision is not directly
// observable, so these tests pin it behaviorally: relocating an EventFn
// move-constructs (and destroys) an inline callable, while a heap
// callable is moved by stealing the pointer — its move constructor never
// runs. Lifetime counters verify both paths construct and destroy the
// callable exactly once overall.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace nadfs::sim {
namespace {

struct Counters {
  int constructed = 0;  // initial constructions (not moves)
  int moved = 0;
  int destroyed = 0;
  int invoked = 0;
  std::uintptr_t invoked_at = 0;  // address of the callable at invocation

  int live() const { return constructed + moved - destroyed; }
};

/// Callable padded to exactly `Size` bytes that reports every lifetime
/// event to an external Counters.
template <std::size_t Size>
struct Probe {
  explicit Probe(Counters* counters) : c(counters) { ++c->constructed; }
  Probe(Probe&& other) noexcept : c(other.c) { ++c->moved; }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() { ++c->destroyed; }
  void operator()() { ++c->invoked; }

  Counters* c;
  unsigned char pad[Size - sizeof(Counters*)];
};

using InlineProbe = Probe<EventFn::kInlineBytes>;          // exactly at the boundary
using OversizedProbe = Probe<EventFn::kInlineBytes + 8>;   // one word past it
static_assert(sizeof(InlineProbe) == EventFn::kInlineBytes);
static_assert(sizeof(OversizedProbe) > EventFn::kInlineBytes);

TEST(EventFn, ExactlyInlineSizeStaysInline) {
  Counters c;
  {
    EventFn fn{InlineProbe(&c)};
    EXPECT_EQ(c.constructed, 1);
    const int moves_after_wrap = c.moved;  // the wrap itself moves once
    EventFn moved = std::move(fn);
    // Inline storage: moving the EventFn must relocate (move-construct +
    // destroy) the callable itself.
    EXPECT_EQ(c.moved, moves_after_wrap + 1);
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_TRUE(static_cast<bool>(moved));
    moved();
    EXPECT_EQ(c.invoked, 1);
  }
  EXPECT_EQ(c.live(), 0);
}

TEST(EventFn, OneWordOverInlineSizeFallsBackToHeap) {
  Counters c;
  {
    EventFn fn{OversizedProbe(&c)};
    const int moves_after_wrap = c.moved;
    EventFn moved = std::move(fn);
    // Heap storage: the move steals the pointer; the callable itself must
    // NOT be move-constructed again.
    EXPECT_EQ(c.moved, moves_after_wrap);
    EXPECT_FALSE(static_cast<bool>(fn));
    moved();
    EXPECT_EQ(c.invoked, 1);
  }
  EXPECT_EQ(c.live(), 0);
}

TEST(EventFn, OverAlignedCallableUsesHeapEvenWhenSmall) {
  struct alignas(2 * alignof(std::max_align_t)) OverAligned {
    explicit OverAligned(Counters* counters) : c(counters) { ++c->constructed; }
    OverAligned(OverAligned&& other) noexcept : c(other.c) { ++c->moved; }
    ~OverAligned() { ++c->destroyed; }
    void operator()() {
      ++c->invoked;
      c->invoked_at = reinterpret_cast<std::uintptr_t>(this);
    }
    Counters* c;
  };
  static_assert(sizeof(OverAligned) <= EventFn::kInlineBytes);
  static_assert(alignof(OverAligned) > alignof(std::max_align_t));

  Counters c;
  {
    EventFn fn{OverAligned(&c)};
    const int moves_after_wrap = c.moved;
    EventFn moved = std::move(fn);
    // Inline storage is only max_align_t-aligned, so this must have taken
    // the heap path: pointer steal, no relocation.
    EXPECT_EQ(c.moved, moves_after_wrap);
    moved();
    EXPECT_EQ(c.invoked, 1);
    // The heap allocation must honor the extended alignment (C++17
    // aligned operator new).
    EXPECT_EQ(c.invoked_at % alignof(OverAligned), 0u);
  }
  EXPECT_EQ(c.live(), 0);
}

TEST(EventFn, ThrowingMoveConstructorForcesHeap) {
  struct ThrowingMove {
    explicit ThrowingMove(Counters* counters) : c(counters) { ++c->constructed; }
    ThrowingMove(ThrowingMove&& other) noexcept(false) : c(other.c) { ++c->moved; }
    ~ThrowingMove() { ++c->destroyed; }
    void operator()() { ++c->invoked; }
    Counters* c;
  };
  static_assert(sizeof(ThrowingMove) <= EventFn::kInlineBytes);

  Counters c;
  {
    EventFn fn{ThrowingMove(&c)};
    const int moves_after_wrap = c.moved;
    EventFn moved = std::move(fn);
    // Inline relocation must be noexcept, so a throwing-move callable has
    // to live on the heap: no relocation on EventFn move.
    EXPECT_EQ(c.moved, moves_after_wrap);
    moved();
    EXPECT_EQ(c.invoked, 1);
  }
  EXPECT_EQ(c.live(), 0);
}

TEST(EventFn, MoveAssignOverLiveInlineCallableDestroysIt) {
  Counters first;
  Counters second;
  {
    EventFn a{InlineProbe(&first)};
    EventFn b{InlineProbe(&second)};
    EXPECT_EQ(first.live(), 1);
    a = std::move(b);
    // The callable previously held by `a` is destroyed exactly when the
    // assignment happens, not leaked and not double-destroyed later.
    EXPECT_EQ(first.live(), 0);
    EXPECT_EQ(second.live(), 1);
    a();
    EXPECT_EQ(second.invoked, 1);
    EXPECT_EQ(first.invoked, 0);
  }
  EXPECT_EQ(first.live(), 0);
  EXPECT_EQ(second.live(), 0);
}

TEST(EventFn, MoveAssignOverLiveHeapCallableDestroysIt) {
  Counters first;
  Counters second;
  {
    EventFn a{OversizedProbe(&first)};
    EventFn b{OversizedProbe(&second)};
    a = std::move(b);
    EXPECT_EQ(first.live(), 0);
    EXPECT_EQ(second.live(), 1);
    a();
    EXPECT_EQ(second.invoked, 1);
  }
  EXPECT_EQ(second.live(), 0);
}

TEST(EventFn, SelfMoveAssignIsSafe) {
  Counters c;
  {
    EventFn fn{InlineProbe(&c)};
    EventFn& alias = fn;  // launder the self-move past -Wself-move
    fn = std::move(alias);
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(c.live(), 1);
    fn();
    EXPECT_EQ(c.invoked, 1);
  }
  EXPECT_EQ(c.live(), 0);
}

TEST(EventFn, MovedFromIsEmptyAndReassignable) {
  Counters c;
  EventFn fn{InlineProbe(&c)};
  EventFn stolen = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  // A moved-from EventFn must accept a fresh callable.
  int hits = 0;
  fn = EventFn{[&hits] { ++hits; }};
  fn();
  EXPECT_EQ(hits, 1);
  stolen();
  EXPECT_EQ(c.invoked, 1);
}

TEST(EventFn, LargeArrayCaptureRoundTrips) {
  // 256-byte capture: far past the inline buffer, contents must survive
  // wrap + move + invoke intact.
  std::array<std::uint8_t, 256> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
  std::uint32_t sum = 0;
  EventFn fn{[big, &sum] {
    for (const auto v : big) sum += v;
  }};
  EventFn moved = std::move(fn);
  moved();
  std::uint32_t expect = 0;
  for (std::size_t i = 0; i < big.size(); ++i) expect += static_cast<std::uint8_t>(i * 7);
  EXPECT_EQ(sum, expect);
}

TEST(EventFn, PacketHopCaptureStaysInlineAndKeepsItsBytes) {
  // The shape of the largest per-packet hop (Network::forward_at_leaf): a
  // moved-in net::Packet plus four words of context. The first capture
  // counts its moves, which pins the inline path: relocating an inline
  // EventFn move-constructs the callable, a heap one would steal a pointer.
  struct MoveCounter {
    explicit MoveCounter(Counters* counters) : c(counters) { ++c->constructed; }
    MoveCounter(MoveCounter&& other) noexcept : c(other.c) { ++c->moved; }
    MoveCounter(const MoveCounter&) = delete;
    MoveCounter& operator=(const MoveCounter&) = delete;
    MoveCounter& operator=(MoveCounter&&) = delete;
    ~MoveCounter() { ++c->destroyed; }
    Counters* c;
  };
  net::Packet pkt;
  pkt.seq = 3;
  pkt.pkt_count = 8;
  pkt.msg_id = 0xFEED;
  pkt.data.resize(2048);
  for (std::size_t i = 0; i < pkt.data.size(); ++i) {
    pkt.data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const Bytes sent = pkt.data;

  Counters c;
  net::Packet got;
  {
    const std::uint32_t spine = 2;
    const std::size_t wire = sent.size() + net::kTransportHeaderBytes;
    auto hop = [counter = MoveCounter(&c), spine, wire, &got, p = std::move(pkt)]() mutable {
      EXPECT_EQ(spine, 2u);
      EXPECT_EQ(wire, 2048 + net::kTransportHeaderBytes);
      got = std::move(p);
    };
    static_assert(EventFn::fits_inline<decltype(hop)>);
    EventFn fn{std::move(hop)};
    const int moves_after_wrap = c.moved;
    EventFn moved = std::move(fn);
    EXPECT_EQ(c.moved, moves_after_wrap + 1);  // relocated: inline storage
    EventFn again = std::move(moved);
    EXPECT_EQ(c.moved, moves_after_wrap + 2);
    again();
  }
  EXPECT_EQ(c.live(), 0);
  EXPECT_EQ(got.seq, 3u);
  EXPECT_EQ(got.pkt_count, 8u);
  EXPECT_EQ(got.msg_id, 0xFEEDu);
  EXPECT_EQ(got.data, sent);
}

TEST(EventFn, DefaultConstructedIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(moved));
}

}  // namespace
}  // namespace nadfs::sim
