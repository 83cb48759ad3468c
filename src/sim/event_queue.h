// Cancellable discrete-event queue.
//
// Events are (time, callback) pairs ordered by time with FIFO tie-breaking.
// Every scheduled event gets a stable EventId that can later be cancelled,
// rescheduled in place or fired.
//
// The queue is an indexed 4-ary min-heap: every heap position names its
// slot and every live slot records its heap position, so cancel(), defer()
// and repush() find their event in O(1) and restructure the heap in
// O(log n) at that position. The heap holds exactly the live events.
//
// Handlers live in a generation-indexed slot vector rather than a hash map:
// an EventId packs (slot index, slot generation), so push/cancel/pop resolve
// handlers with two array reads and no hashing, and slot reuse means a
// steady-state simulation allocates nothing per event (the slot pool and the
// heap grow to the high-water mark once and are then recycled).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace hybridmr::sim {

/// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

/// The one sanctioned exact-equality comparison for SimTime values.
///
/// SimTime is a double; raw `==`/`!=` on it is a determinism hazard the
/// analyzer's determinism rule simtime-eq (docs/ANALYSIS.md) rejects. Exact
/// comparison is legitimate only where both operands came from the same
/// computation (e.g. an event timestamp handed back by the queue); route
/// those cases through this helper so they are visibly intentional.
constexpr bool same_time(SimTime a, SimTime b) {
  return a == b;  // sim-lint: allow(simtime-eq)
}

/// Opaque handle for a scheduled event. Default-constructed ids are invalid.
struct EventId {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Indexed min-heap of timed callbacks; cancel/defer/repush in O(log n).
///
/// Not thread-safe: the simulation is single-threaded by design (determinism
/// is a feature; see DESIGN.md).
class EventQueue {
 public:
  struct Entry {
    SimTime time = 0;
    EventId id;
    std::function<void()> fn;
  };

  /// Schedules `fn` at absolute time `time`. Returns a cancellation handle.
  EventId push(SimTime time, std::function<void()> fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `time` without cancelling it
  /// (the handler and its id stay valid). Returns false if the event
  /// already fired or was cancelled — callers then push() a fresh event.
  ///
  /// The event is re-keyed in place: its heap item sifts up (advanced) or
  /// down (postponed) from its current position. defer() never consumes a
  /// tie-break seq: the event keeps the seq it was pushed with, so
  /// same-time FIFO ties resolve in creation order no matter how often an
  /// event was rescheduled or how reschedules were coalesced — tie order is
  /// a property of the workload, not of the reschedule policy.
  /// Conservation (total_pushed == fired + cancelled + live) counts
  /// events, so defer() never touches those totals.
  bool defer(EventId id, SimTime time);

  /// Cancels `id` and pushes a fresh event with the same handler at `time`,
  /// *inheriting the original tie-break seq*. Returns the new id, or an
  /// invalid id (and does nothing) when `id` already fired or was
  /// cancelled. This is the eager-cancel reference mode's primitive: it
  /// exercises genuine cancel + re-push heap surgery, but keeps FIFO tie
  /// order anchored to event-creation order exactly like defer() — tie
  /// order is a property of the workload, not of the reschedule policy, so
  /// the two modes stay byte-for-byte equivalent on same-time collisions.
  /// Counts one cancellation and one push.
  EventId repush(EventId id, SimTime time);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event. Empty queue -> nullopt.
  [[nodiscard]] std::optional<SimTime> next_time() const;

  /// Removes and returns the earliest live event. Empty queue -> nullopt.
  std::optional<Entry> pop();

  /// Drops every pending event (handlers are destroyed, nothing fires).
  /// Returns how many live events were discarded. This is the teardown
  /// path Simulation::shutdown() uses to release callback captures.
  std::size_t clear();

  /// Lifetime totals for work attribution: every event ever pushed is
  /// eventually popped, cancelled, or still live, so
  ///   total_pushed() == pops + total_cancelled() + size()
  /// holds at every quiescent point (the simulation audits this after each
  /// dispatch). clear() counts as cancellation.
  [[nodiscard]] std::uint64_t total_pushed() const { return total_pushed_; }
  [[nodiscard]] std::uint64_t total_cancelled() const {
    return total_cancelled_;
  }

  /// Lifetime count of successful defer() calls (not part of the
  /// conservation identity above; a deferred event still fires or is
  /// cancelled exactly once).
  [[nodiscard]] std::uint64_t total_deferred() const { return total_deferred_; }

  /// High-water mark of live events (queue-depth peak over the run).
  [[nodiscard]] std::size_t max_size() const { return max_size_; }

  /// O(n) consistency check of the heap index: every heap item's slot is
  /// live and records that item's position, and the heap holds exactly the
  /// live slots. Audit builds check it on every pop; tests call it after
  /// every operation.
  [[nodiscard]] bool index_consistent() const;

 private:
  // An EventId packs the slot index (low 32 bits, biased by one so the
  // all-zero id stays invalid) and the slot's generation at push time
  // (high 32 bits). A slot's generation bumps on every release, so stale
  // ids — fired, cancelled or cleared — can never alias a reused slot.
  //
  // A slot is live exactly while its heap position is set. Positions and
  // generations sit apart from the handlers so the sifts, which rewrite a
  // position per level, touch 8 bytes per slot.
  static constexpr std::uint32_t kNoPos = 0xffffffffu;
  struct Slot {
    std::uint32_t pos = kNoPos;
    std::uint32_t gen = 0;
  };

  // The (time, seq) seat of a heap position. seq is fixed when the event
  // is created (repush inherits it), so same-time FIFO ties always resolve
  // in event-creation order, independent of the reschedule history. The
  // seat's slot sits in the parallel heap_slot_ array: keeping the item at
  // 16 bytes puts a node's four children in one 64-byte span, and the
  // comparisons never read the slot.
  struct HeapItem {
    SimTime time;
    std::uint64_t seq;
  };
  static bool earlier(const HeapItem& a, const HeapItem& b) {
    // Ordered comparisons only: exact ==/!= on SimTime doubles is a lint
    // violation (see sim::same_time). Non-short-circuit operators keep the
    // comparison itself free of branches.
    return (a.time < b.time) | (!(b.time < a.time) & (a.seq < b.seq));
  }
  static constexpr std::size_t kArity = 4;

  static std::uint32_t slot_index(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint64_t make_id(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }

  // The slot index a live id refers to, or kNoPos when the id is
  // stale/invalid.
  [[nodiscard]] std::uint32_t live_index(std::uint64_t id) const;

  // Takes a free slot (or grows the pool), installs `fn` and inserts its
  // heap item at (time, seq). Returns the new id.
  std::uint64_t insert(SimTime time, std::uint64_t seq,
                       std::function<void()> fn);

  // Destroys the handler, bumps the generation and recycles the slot.
  void release(std::uint32_t index);

  // Heap surgery. place() writes an item and its slot at `pos` and records
  // the position in the slot; earliest_child() picks the earliest of the
  // children starting at `first` in a heap of `n` items; the sifts move
  // one item to its ordered position; remove_at() takes the item at `pos`
  // out of the heap (its slot is not released).
  void place(std::size_t pos, const HeapItem& item, std::uint32_t slot);
  [[nodiscard]] std::size_t earliest_child(std::size_t first,
                                           std::size_t n) const;
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void remove_at(std::size_t pos);

  std::vector<HeapItem> heap_;
  std::vector<std::uint32_t> heap_slot_;
  std::vector<Slot> slots_;
  std::vector<std::function<void()>> handlers_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_cancelled_ = 0;
  std::uint64_t total_deferred_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace hybridmr::sim
