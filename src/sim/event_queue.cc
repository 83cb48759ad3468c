#include "sim/event_queue.h"

#include <utility>

#include "audit/invariants.h"

namespace hybridmr::sim {

std::uint32_t EventQueue::live_index(std::uint64_t id) const {
  if (id == 0) return kNoPos;
  const std::uint32_t index = slot_index(id);
  if (index >= slots_.size()) return kNoPos;
  const Slot& slot = slots_[index];
  if (slot.pos == kNoPos || slot.gen != generation(id)) return kNoPos;
  return index;
}

void EventQueue::release(std::uint32_t index) {
  handlers_[index] = nullptr;  // destroy the handler (and its captures) now
  Slot& slot = slots_[index];
  slot.pos = kNoPos;
  ++slot.gen;  // invalidate every outstanding id for this slot
  free_slots_.push_back(index);
}

void EventQueue::place(std::size_t pos, const HeapItem& item,
                       std::uint32_t slot) {
  heap_[pos] = item;
  heap_slot_[pos] = slot;
  slots_[slot].pos = static_cast<std::uint32_t>(pos);
}

std::size_t EventQueue::earliest_child(std::size_t first,
                                       std::size_t n) const {
  if (first + kArity <= n) {
    // A full group: a two-round tournament in index arithmetic, so the
    // pick costs no mispredicted branch on random keys.
    const std::size_t a = first + earlier(heap_[first + 1], heap_[first]);
    const std::size_t b =
        first + 2 + earlier(heap_[first + 3], heap_[first + 2]);
    const std::size_t take_b =
        std::size_t{0} - static_cast<std::size_t>(earlier(heap_[b], heap_[a]));
    return a ^ ((a ^ b) & take_b);
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (earlier(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapItem item = heap_[pos];
  const std::uint32_t slot = heap_slot_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(item, heap_[parent])) break;
    place(pos, heap_[parent], heap_slot_[parent]);
    pos = parent;
  }
  place(pos, item, slot);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapItem item = heap_[pos];
  const std::uint32_t slot = heap_slot_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t best = earliest_child(first, n);
    if (!earlier(heap_[best], item)) break;
    place(pos, heap_[best], heap_slot_[best]);
    pos = best;
  }
  place(pos, item, slot);
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapItem last = heap_.back();
  const std::uint32_t last_slot = heap_slot_.back();
  heap_.pop_back();
  heap_slot_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;
  // The former last item refills the hole. It is usually among the latest
  // items, so the hole first sinks to a leaf along the earliest children
  // (no comparison against the refill), and the refill then rises from
  // there; it may end above `pos`.
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t best = earliest_child(first, n);
    place(pos, heap_[best], heap_slot_[best]);
    pos = best;
  }
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(last, heap_[parent])) break;
    place(pos, heap_[parent], heap_slot_[parent]);
    pos = parent;
  }
  place(pos, last, last_slot);
}

std::uint64_t EventQueue::insert(SimTime time, std::uint64_t seq,
                                 std::function<void()> fn) {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    handlers_.emplace_back();
  }
  handlers_[index] = std::move(fn);
  heap_.push_back(HeapItem{time, seq});
  heap_slot_.push_back(index);
  sift_up(heap_.size() - 1);
  ++total_pushed_;
  if (heap_.size() > max_size_) max_size_ = heap_.size();
  return make_id(index, slots_[index].gen);
}

EventId EventQueue::push(SimTime time, std::function<void()> fn) {
  return EventId{insert(time, next_seq_++, std::move(fn))};
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t index = live_index(id.value);
  if (index == kNoPos) return false;
  remove_at(slots_[index].pos);
  release(index);
  ++total_cancelled_;
  return true;
}

bool EventQueue::defer(EventId id, SimTime time) {
  const std::uint32_t index = live_index(id.value);
  if (index == kNoPos) return false;
  // The item keeps its ORIGINAL push seq: rescheduling never consumes a
  // tie-break number, so same-time FIFO order is anchored to creation
  // order and is invariant under how many times — or in which coalescing
  // regime — an event was rescheduled on the way there. (Consuming a
  // fresh seq here would make tie order depend on the realloc drain
  // policy; see the realloc determinism tests.)
  const std::size_t pos = slots_[index].pos;
  const bool advanced = time < heap_[pos].time;
  heap_[pos].time = time;
  if (advanced) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  ++total_deferred_;
  return true;
}

EventId EventQueue::repush(EventId id, SimTime time) {
  const std::uint32_t index = live_index(id.value);
  if (index == kNoPos) return {};
  const std::uint64_t seq = heap_[slots_[index].pos].seq;
  std::function<void()> fn = std::move(handlers_[index]);
  remove_at(slots_[index].pos);
  release(index);
  ++total_cancelled_;
  // Fresh slot (usually the one just released, at a bumped generation),
  // inherited seq: cancel + re-push mechanics, creation-order tie-break.
  return EventId{insert(time, seq, std::move(fn))};
}

bool EventQueue::index_consistent() const {
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const std::uint32_t pos = slots_[i].pos;
    if (pos == kNoPos) continue;
    ++live;
    if (pos >= heap_.size() || heap_slot_[pos] != i) return false;
  }
  return live == heap_.size();
}

std::optional<SimTime> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

std::optional<EventQueue::Entry> EventQueue::pop() {
  // An inconsistent index would pop the wrong handler or orphan a live one
  // (which could then never fire and would leak its captures).
  HYBRIDMR_AUDIT_CHECK(
      index_consistent(), "sim.event_queue", "heap_index_consistent", -1,
      {{"heap_items", audit::num(static_cast<double>(heap_.size()))}});
  if (heap_.empty()) return std::nullopt;
  const SimTime time = heap_.front().time;
  const std::uint32_t top = heap_slot_.front();
  remove_at(0);
  Entry entry{time, EventId{make_id(top, slots_[top].gen)},
              std::move(handlers_[top])};
  release(top);
  return entry;
}

std::size_t EventQueue::clear() {
  const std::size_t dropped = heap_.size();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    // Releasing (rather than dropping) every slot keeps generations
    // monotonic, so ids issued before clear() can never alias events
    // pushed afterwards — the queue stays usable.
    if (slots_[i].pos != kNoPos) release(i);
  }
  heap_.clear();
  heap_slot_.clear();
  total_cancelled_ += dropped;
  return dropped;
}

}  // namespace hybridmr::sim
