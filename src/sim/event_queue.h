// Pending-event set for the discrete-event simulator.
//
// Events are ordered by (time, insertion sequence); ties at the same virtual time fire in
// the order they were scheduled, which keeps runs deterministic. Events can be cancelled
// via the EventId returned at scheduling time; cancellation is O(1) (lazy deletion).
//
// Storage is a slab of generation-tagged slots threaded through a free list: an EventId
// encodes {slot, generation}, so Cancel() and IsPending() are O(1) array probes with no
// hash set, and a stale id left over from a fired or cancelled event can never touch the
// slot's next tenant. Ordering lives in an index-based 4-ary min-heap whose entries carry
// their own (time, sequence) sort key, so sift loops stay inside one contiguous array —
// no per-comparison chase into the slab. Cancelled events leave a tombstone in the heap
// (detected by sequence mismatch against the slot) that is discarded when it surfaces:
// Pop and Cancel clear tombstones off the root before returning, so NextTime and the
// next Pop read a live root directly.
// Callbacks are InlineCallback, so the common `this`-capturing lambdas never allocate.

#ifndef TCS_SRC_SIM_EVENT_QUEUE_H_
#define TCS_SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace tcs {

// Opaque handle identifying a scheduled event. Valid until the event fires or is
// cancelled; a retained id becomes inert afterwards (the slot's generation moved on).
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool IsValid() const { return bits_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class EventQueue;
  explicit constexpr EventId(uint64_t bits) : bits_(bits) {}
  // (slot index + 1) << 32 | slot generation; 0 is the invalid id.
  uint64_t bits_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to fire at absolute time `when`.
  EventId Schedule(TimePoint when, Callback cb);

  // Cancels a pending event. Returns true if the event was pending and is now cancelled;
  // false if it already fired, was already cancelled, or `id` is invalid.
  bool Cancel(EventId id);

  // True if `id` refers to an event that has not yet fired or been cancelled.
  bool IsPending(EventId id) const { return DecodeSlot(id) != kNoSlot; }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event. Must not be called on an empty queue.
  TimePoint NextTime() const {
    assert(!heap_.empty());
    return heap_[0].when;
  }

  // Removes and returns the earliest pending event's callback, storing its time in
  // `when`. Must not be called on an empty queue.
  Callback Pop(TimePoint* when);

  // --- Checkpoint/restore support (src/sim/snapshot.h) ---

  // Sequence number the next Schedule() will hand out. Part of the kernel snapshot:
  // same-time events fire in sequence order, so resumed runs must keep minting the same
  // sequences a cold run would.
  uint64_t next_seq() const { return next_seq_; }

  // Visits every pending event's (sequence, time) pair, in unspecified order.
  template <typename Fn>
  void ForEachPending(Fn&& fn) const {
    for (const HeapEntry& e : heap_) {
      if (SlotAt(e.slot).seq == e.seq) {  // skip cancel tombstones
        fn(e.seq, e.when);
      }
    }
  }

  // Looks up a pending event's snapshot identity. Returns false for ids that already
  // fired or were cancelled.
  bool PendingInfo(EventId id, uint64_t* seq, TimePoint* when) const {
    uint32_t slot = DecodeSlot(id);
    if (slot == kNoSlot) {
      return false;
    }
    *seq = SlotAt(slot).seq;
    *when = SlotAt(slot).when;
    return true;
  }

  // Restore path: drops every pending event and resets the sequence counter. Released
  // slots retire their generations, so EventIds held across a restore can never alias a
  // re-armed event.
  void Clear();

  // Restore path: inserts an event with an explicit sequence number (one recorded by a
  // snapshot). The caller must keep restored sequences unique and below the value later
  // passed to set_next_seq.
  EventId ScheduleRestored(TimePoint when, uint64_t seq, Callback cb);

  // Restore path: forwards the sequence counter to the snapshot's value.
  void set_next_seq(uint64_t next_seq) { next_seq_ = next_seq; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    uint64_t seq = 0;         // sequence of the current tenant; 0 while vacant
    uint32_t generation = 1;  // bumped on fire/cancel; stale ids stop matching
    TimePoint when;           // the tenant's fire time (snapshot identity lookups)
    Callback cb;
  };

  // Heap node carrying its own sort key, so sift comparisons stay inside the contiguous
  // heap array. A node whose seq no longer matches its slot's seq is a tombstone left by
  // Cancel(): the event is gone and the node is discarded when it reaches the root.
  struct HeapEntry {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };

  // The slab grows in fixed chunks so existing slots never move: callbacks are not
  // re-relocated on growth, and a grow inside Schedule() cannot invalidate live slots.
  static constexpr uint32_t kChunkShift = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // slots per chunk

  Slot& SlotAt(uint32_t i) { return chunks_[i >> kChunkShift][i & (kChunkSize - 1)]; }
  const Slot& SlotAt(uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  // Returns the slot index `id` refers to, or kNoSlot if the id is invalid, fired, or
  // cancelled (generation mismatch).
  uint32_t DecodeSlot(EventId id) const;

  // Returns `slot`'s storage to the free list and retires its generation.
  void ReleaseSlot(uint32_t slot);

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // Schedule/ScheduleRestored body: takes a slot (free list first) and heaps the event.
  EventId Insert(TimePoint when, uint64_t seq, Callback&& cb);

  // Sink `e` into the heap starting from the hole at `pos`.
  void SiftUp(size_t pos, HeapEntry e);
  void SiftDown(size_t pos, HeapEntry e);
  // Removes the root entry, refilling the hole from the heap's tail.
  void PopRoot();
  // Drops cancelled entries from the head of the heap. Called wherever the root can
  // become a tombstone (after Pop and Cancel), so the root is always live.
  void SkipTombstones();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slot_count_ = 0;          // slots handed out so far (all chunks, used or free)
  std::vector<uint32_t> free_;       // indices of vacant slots (LIFO, so reuse stays warm)
  std::vector<HeapEntry> heap_;      // 4-ary min-heap keyed by (when, seq); root is live
  size_t live_ = 0;                  // pending events (heap size minus tombstones)
  uint64_t next_seq_ = 1;
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_EVENT_QUEUE_H_
