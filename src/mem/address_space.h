// Per-process virtual address space: residency and dirty state per virtual page.
//
// AddressSpaces are created and owned by the Pager, which also maintains the global
// recency ordering used for eviction. The `interactive` flag marks spaces belonging to
// user-facing processes; the kInteractiveProtect eviction policy (Evans et al.'s fix,
// §5.2) refuses to steal their pages on behalf of non-interactive faults.
//
// Page state is a flat array indexed by vpn — every workload in the model numbers its
// pages densely from zero (segments are sized in pages, hogs walk a bounded region), so
// a vector beats a hash table by an order of magnitude on the fault/touch path. Each
// entry packs the page's lifecycle state, its physical frame slot while resident, and
// the dirty bit; the Pager interprets the frame slot against its frame slab.

#ifndef TCS_SRC_MEM_ADDRESS_SPACE_H_
#define TCS_SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/snapshot.h"

namespace tcs {

class AddressSpace {
 public:
  AddressSpace(uint64_t id, std::string name, bool interactive)
      : id_(id), name_(std::move(name)), interactive_(interactive) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool interactive() const { return interactive_; }

  bool IsResident(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] >= kFrameBase;
  }
  // True if the page was resident once and has been paged out: re-touching it costs a
  // disk read. A never-touched page zero-fills for free.
  bool WasEvicted(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] == kEvicted;
  }
  bool IsDirty(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] >= kFrameBase &&
           ((pages_[vpn] - kFrameBase) & 1u) != 0;
  }
  size_t resident_pages() const { return resident_count_; }

  // Number of pages in [first, first+count) that are NOT resident — the fault bill an
  // access to that range will pay.
  size_t MissingIn(uint64_t first, size_t count) const;

  // Checkpoint/restore: the packed page array, each entry as a zigzag delta from the
  // one before it (a prefaulted run sits in consecutive frames, so its deltas are 2:
  // one byte a page). The resident count is derived on load. Identity (id, name,
  // interactive) is written by SaveTo and verified by the Pager before LoadFrom, which
  // only overwrites dynamic state; the Pager also checks the entries' frame slots
  // against its slab.
  void SaveTo(SnapshotWriter& w) const {
    w.U64(id_);
    w.Str(name_);
    w.Bool(interactive_);
    w.U64(pages_.size());
    int64_t prev = 0;
    for (uint32_t e : pages_) {
      w.I64(static_cast<int64_t>(e) - prev);
      prev = e;
    }
  }
  void LoadFrom(SnapshotReader& r) {
    pages_.resize(r.Count("pager.space." + name_));
    resident_count_ = 0;
    recency_cuts_.clear();  // the restored recency list is not the one it described
    int64_t e = 0;
    for (uint32_t& page : pages_) {
      int64_t delta = r.I64();
      if (delta < -e || delta > int64_t{UINT32_MAX} - e) {
        throw SnapshotError("pager.space." + name_, "page entry out of range");
      }
      e += delta;
      page = static_cast<uint32_t>(e);
      resident_count_ += page >= kFrameBase ? 1 : 0;
    }
  }

 private:
  friend class Pager;

  // Packed page entry: kNever (untouched), kEvicted (on disk), or
  // kFrameBase + 2*frame + dirty for a resident page in the Pager's frame slab.
  static constexpr uint32_t kNever = 0;
  static constexpr uint32_t kEvicted = 1;
  static constexpr uint32_t kFrameBase = 2;

  // Grows the page table to cover every vpn below `end` (one resize for a whole range).
  void EnsurePages(uint64_t end) {
    if (end > pages_.size()) {
      pages_.resize(end, kNever);
    }
  }
  // Frame slot of a resident page (caller guarantees residency).
  uint32_t FrameOf(uint64_t vpn) const { return (pages_[vpn] - kFrameBase) >> 1; }
  void SetResidentInFrame(uint64_t vpn, uint32_t frame, bool dirty) {
    EnsurePages(vpn + 1);
    uint32_t& e = pages_[vpn];
    if (e < kFrameBase) {
      ++resident_count_;
    }
    e = kFrameBase + (frame << 1) + (dirty ? 1u : 0u);
  }
  // Range-prefault step: page `vpn` (not resident, table already grown) now lives clean
  // in `frame`. The caller adds the run's length to the resident count once.
  void SetCleanInFrameUncounted(uint64_t vpn, uint32_t frame) {
    pages_[vpn] = kFrameBase + (frame << 1);
  }
  void AddResident(size_t n) { resident_count_ += n; }
  void MarkDirty(uint64_t vpn) { pages_[vpn] |= 1u; }
  void SetEvicted(uint64_t vpn);
  // MarkSwappedOut setup path: create a never-touched page directly in the evicted state.
  void MarkEvictedUntouched(uint64_t vpn) {
    EnsurePages(vpn + 1);
    pages_[vpn] = kEvicted;
  }

  uint64_t id_;
  std::string name_;
  bool interactive_;
  std::vector<uint32_t> pages_;
  size_t resident_count_ = 0;
  // Recency-run memo, derived state that only the Pager reads and writes (see
  // Pager::AccessRange): cut points c0 < c1 < ... < ck that split the resident interval
  // [c0, ck) into runs [ci, ci+1), each a segment of consecutive recency-list neighbours
  // in vpn order. Empty when invalid. Declared after the hot fields on purpose.
  std::vector<uint64_t> recency_cuts_;
};

}  // namespace tcs

#endif  // TCS_SRC_MEM_ADDRESS_SPACE_H_
