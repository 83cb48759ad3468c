// EventQueue cancellation and rescheduling edge cases: lifetimes,
// cancellation races and defer()/repush() seats that the happy-path tests
// in sim_test.cc do not reach. These pin down the indexed-heap contract
// (cancel, defer and repush act on the event at its heap position, the
// heap holds exactly the live events, handlers die exactly once, same-time
// ties resolve in creation order) that the leak-clean teardown and
// coalesced reallocation rely on, and a randomized differential test holds
// the queue to an ordered-set oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace hybridmr::sim {
namespace {

TEST(EventQueueEdge, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  e->fn();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, DoubleCancelSecondIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  // The cancelled heap entry must not resurface as a fireable event.
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->time, 2.0);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueueEdge, CancelOtherEventFromPoppedCallback) {
  EventQueue q;
  bool second_fired = false;
  EventId second;
  q.push(1.0, [&] { EXPECT_TRUE(q.cancel(second)); });
  second = q.push(2.0, [&] { second_fired = true; });
  while (auto e = q.pop()) e->fn();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, CancelOwnIdDuringCallbackReturnsFalse) {
  // Once popped, an event has fired from the queue's perspective; its own
  // callback cancelling itself must be a harmless no-op.
  EventQueue q;
  EventId self;
  bool saw_false = false;
  self = q.push(1.0, [&] { saw_false = !q.cancel(self); });
  while (auto e = q.pop()) e->fn();
  EXPECT_TRUE(saw_false);
}

TEST(EventQueueEdge, HandlerDestroyedOnCancel) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;
  const EventId id = q.push(1.0, [sentinel] {});
  sentinel.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(id));
  // Lazy cancellation may keep the heap entry, but the handler (and the
  // captures it owns) must die immediately.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueEdge, HandlersDestroyedOnQueueDestruction) {
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;
  {
    EventQueue q;
    q.push(1.0, [sentinel] {});
    q.push(2.0, [sentinel] {});
    sentinel.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueEdge, ClearDropsEverythingWithoutFiring) {
  EventQueue q;
  int fired = 0;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  q.push(1.0, [&fired, sentinel] { ++fired; });
  q.push(2.0, [&fired, sentinel] { ++fired; });
  const EventId cancelled = q.push(3.0, [&fired] { ++fired; });
  q.cancel(cancelled);
  sentinel.reset();
  EXPECT_EQ(q.clear(), 2u);  // live events only, cancelled one not counted
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  // The queue stays usable after clear().
  q.push(4.0, [&fired] { ++fired; });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueEdge, NextTimeAllCancelledIsEmpty) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_TRUE(q.empty());
}

// Simulation-level: cancelling a later event from inside a dispatched
// callback (the common "completion cancels the timeout" pattern).
TEST(SimulationEdge, CancelFromRunningCallback) {
  Simulation sim;
  std::vector<int> order;
  EventId doomed;
  sim.at(1.0, [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(doomed));
  });
  doomed = sim.at(2.0, [&] { order.push_back(2); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

// Pops and fires every live event, recording (label, fire time).
std::vector<std::pair<std::string, SimTime>> drain(
    EventQueue& q, std::vector<std::string>& fired) {
  std::vector<std::pair<std::string, SimTime>> out;
  while (auto e = q.pop()) {
    e->fn();
    out.emplace_back(fired.back(), e->time);
  }
  return out;
}

using Fired = std::vector<std::pair<std::string, SimTime>>;

TEST(EventQueueDefer, PostponeFiresOnceAtTheNewTime) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId a = q.push(60.0, [&] { fired.push_back("a"); });
  q.push(70.0, [&] { fired.push_back("b"); });
  ASSERT_TRUE(q.defer(a, 90.0));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.total_deferred(), 1u);
  EXPECT_EQ(drain(q, fired), (Fired{{"b", 70.0}, {"a", 90.0}}));
  // Deferring keeps the id: it names the event until it fires.
  EXPECT_FALSE(q.defer(a, 100.0));
  EXPECT_FALSE(q.cancel(a));
}

TEST(EventQueueDefer, AdvanceFiresOnceAtTheEarlierTime) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId a = q.push(70.0, [&] { fired.push_back("a"); });
  q.push(60.0, [&] { fired.push_back("b"); });
  ASSERT_TRUE(q.defer(a, 55.0));
  // The event moved up from its seat at 70; nothing is left behind there.
  EXPECT_EQ(drain(q, fired), (Fired{{"a", 55.0}, {"b", 60.0}}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_pushed(), 2u);
  EXPECT_EQ(q.total_cancelled(), 0u);
}

// defer() never consumes a tie-break seq: at a shared timestamp the
// rescheduled event keeps its creation-order seat, whichever way it moved.
TEST(EventQueueDefer, SameTimeTiesKeepCreationOrderAcrossDefer) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId early = q.push(10.0, [&] { fired.push_back("early"); });
  const EventId late = q.push(80.0, [&] { fired.push_back("late"); });
  q.push(52.0, [&] { fired.push_back("x"); });
  q.push(52.0, [&] { fired.push_back("y"); });
  ASSERT_TRUE(q.defer(early, 52.0));  // postponed onto the tie
  ASSERT_TRUE(q.defer(late, 52.0));   // advanced onto the tie
  EXPECT_EQ(drain(q, fired), (Fired{{"early", 52.0},
                                    {"late", 52.0},
                                    {"x", 52.0},
                                    {"y", 52.0}}));
}

TEST(EventQueueDefer, RepushInheritsTheTieBreakSeat) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId moved = q.push(80.0, [&] { fired.push_back("moved"); });
  q.push(58.0, [&] { fired.push_back("x"); });
  const EventId fresh = q.repush(moved, 58.0);
  ASSERT_TRUE(fresh.valid());
  EXPECT_FALSE(q.cancel(moved));  // the old id died with the cancel
  EXPECT_EQ(q.total_pushed(), 3u);
  EXPECT_EQ(q.total_cancelled(), 1u);
  EXPECT_EQ(drain(q, fired), (Fired{{"moved", 58.0}, {"x", 58.0}}));
  EXPECT_FALSE(q.repush(fresh, 90.0).valid());  // already fired
}

// A cancel and a chain of defers in both directions: next_time() reports
// the latest seat, the event fires exactly once, and no earlier seat ever
// resurfaces.
TEST(EventQueueDefer, StaleHeapItemsReconcileAtTheHead) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId victim = q.push(10.0, [&] { fired.push_back("victim"); });
  const EventId b = q.push(20.0, [&] { fired.push_back("b"); });
  q.push(45.0, [&] { fired.push_back("c"); });
  ASSERT_TRUE(q.cancel(victim));
  ASSERT_TRUE(q.defer(b, 30.0));  // postpone: sifts down
  ASSERT_TRUE(q.defer(b, 40.0));  // postpone again
  ASSERT_TRUE(q.defer(b, 25.0));  // advance: sifts up
  ASSERT_TRUE(q.defer(b, 50.0));  // postpone past c
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_DOUBLE_EQ(*q.next_time(), 45.0);
  EXPECT_EQ(drain(q, fired), (Fired{{"c", 45.0}, {"b", 50.0}}));
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_EQ(q.total_deferred(), 4u);
  // Conservation: 3 pushed = 2 fired + 1 cancelled + 0 live.
  EXPECT_EQ(q.total_pushed(), 3u);
  EXPECT_EQ(q.total_cancelled(), 1u);
}

// Simulation-level: a flush hook runs before the next dispatch, while the
// clock still reads the previous event's time, so the event it schedules
// is anchored there and is attributed to the flush boundary.
TEST(SimulationEdge, FlushHookSpawnedEventsFireInOrder) {
  Simulation sim;
  std::vector<std::pair<std::string, SimTime>> fired;
  bool request = false;
  sim.add_flush_hook([&] {
    if (!request) return;
    request = false;
    sim.after(2.5, [&] { fired.emplace_back("spawned", sim.now()); });
  });
  sim.at(49.0, [&] { request = true; });
  sim.at(50.0, [&] { fired.emplace_back("x", sim.now()); });
  const EventId y = sim.at(60.0, [&] { fired.emplace_back("y", sim.now()); });
  ASSERT_TRUE(sim.defer(y, 51.0));
  sim.run();
  EXPECT_EQ(fired, (Fired{{"x", 50.0}, {"y", 51.0}, {"spawned", 51.5}}));
  EXPECT_EQ(sim.flush_scheduled_events(), 1u);
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.events_deferred(), 1u);
}

// --- randomized differential test against an ordered-set oracle ---

// The oracle keeps every live event as (time, label) in a std::set. Labels
// count pushes, so they rank like the queue's tie-break seqs, and repush()
// keeps the label just as the queue keeps the seq: the set's order is the
// pop order the queue must reproduce, ties included.
struct OracleEvent {
  EventId id;
  int label;
  SimTime time;
};

TEST(EventQueueDifferential, RandomOpsMatchAnOrderedSetOracle) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  // Few distinct times, so most pops, defers and repushes land on ties.
  constexpr SimTime kTimes[] = {0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, kInf};
  constexpr int kNumTimes = sizeof(kTimes) / sizeof(kTimes[0]);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<SimTime, int>> oracle;
    std::vector<OracleEvent> live;
    std::vector<EventId> dead;
    std::uint64_t pushed = 0, cancelled = 0, deferred = 0, popped = 0;
    std::size_t max_live = 0;
    int next_label = 0;
    int fired = -1;

    auto add = [&](EventId id, int label, SimTime t) {
      live.push_back({id, label, t});
      oracle.emplace(t, label);
      ++pushed;
      max_live = std::max(max_live, live.size());
    };
    auto take = [&](std::size_t i) {
      const OracleEvent e = live[i];
      live[i] = live.back();
      live.pop_back();
      oracle.erase({e.time, e.label});
      return e;
    };
    auto pick_time = [&] { return kTimes[rng.uniform_int(0, kNumTimes - 1)]; };

    for (int step = 0; step < 4000; ++step) {
      // Alternate growing and shrinking phases so the heap is both deep
      // (many sift levels) and repeatedly drained to empty.
      const int push_pct = (step / 500) % 2 == 0 ? 55 : 15;
      const bool push = rng.uniform_int(0, 99) < push_pct || live.empty();
      const int op = rng.uniform_int(0, 99);
      const std::size_t i =
          live.empty() ? 0
                       : static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<int>(live.size()) - 1));
      if (push) {
        const int label = next_label++;
        const SimTime t = pick_time();
        add(q.push(t, [&fired, label] { fired = label; }), label, t);
      } else if (op < 35) {
        // defer: earlier, later or to the same time, whichever is drawn.
        const SimTime t = pick_time();
        OracleEvent e = take(i);
        ASSERT_TRUE(q.defer(e.id, t));
        e.time = t;
        live.push_back(e);
        oracle.emplace(t, e.label);
        ++deferred;
      } else if (op < 50) {
        const OracleEvent e = take(i);
        ASSERT_TRUE(q.cancel(e.id));
        dead.push_back(e.id);
        ++cancelled;
      } else if (op < 65) {
        const OracleEvent e = take(i);
        const SimTime t = pick_time();
        const EventId fresh = q.repush(e.id, t);
        ASSERT_TRUE(fresh.valid());
        dead.push_back(e.id);
        ++cancelled;
        add(fresh, e.label, t);
      } else if (op < 97) {
        auto entry = q.pop();
        ASSERT_TRUE(entry.has_value());
        const auto [t, label] = *oracle.begin();
        EXPECT_TRUE(same_time(entry->time, t)) << "seed " << seed;
        entry->fn();
        ASSERT_EQ(fired, label) << "seed " << seed << " step " << step;
        for (std::size_t k = 0; k < live.size(); ++k) {
          if (live[k].label == label) {
            dead.push_back(live[k].id);
            take(k);
            break;
          }
        }
        ++popped;
      } else if (!dead.empty()) {
        // A fired, cancelled or repushed-away id names nothing any more.
        const EventId stale = dead[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(dead.size()) - 1))];
        EXPECT_FALSE(q.cancel(stale));
        EXPECT_FALSE(q.defer(stale, pick_time()));
        EXPECT_FALSE(q.repush(stale, pick_time()).valid());
      }
      ASSERT_TRUE(q.index_consistent()) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.size(), oracle.size());
      if (oracle.empty()) {
        EXPECT_FALSE(q.next_time().has_value());
      } else {
        ASSERT_TRUE(q.next_time().has_value());
        EXPECT_TRUE(same_time(*q.next_time(), oracle.begin()->first));
      }
    }
    // Drain: the remaining pop order is the oracle's order.
    while (auto entry = q.pop()) {
      entry->fn();
      ASSERT_FALSE(oracle.empty());
      EXPECT_EQ(fired, oracle.begin()->second) << "seed " << seed;
      EXPECT_TRUE(same_time(entry->time, oracle.begin()->first));
      oracle.erase(oracle.begin());
      ++popped;
    }
    EXPECT_TRUE(oracle.empty());
    EXPECT_TRUE(q.index_consistent());
    EXPECT_EQ(q.total_pushed(), pushed);
    EXPECT_EQ(q.total_cancelled(), cancelled);
    EXPECT_EQ(q.total_deferred(), deferred);
    EXPECT_EQ(q.max_size(), max_live);
    EXPECT_EQ(q.total_pushed(), popped + q.total_cancelled() + q.size());
  }
}

}  // namespace
}  // namespace hybridmr::sim
