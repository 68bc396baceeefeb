#include "src/mem/pager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/snapshot.h"

namespace tcs {
namespace {

DiskConfig FastDeterministicDisk() {
  DiskConfig cfg;
  cfg.positioning_mean = Duration::Millis(4);
  cfg.positioning_stddev = Duration::Zero();
  cfg.positioning_min = Duration::Millis(1);
  return cfg;
}

struct PagerFixture {
  explicit PagerFixture(PagerConfig cfg = {})
      : disk(sim, Rng(1), FastDeterministicDisk()), pager(sim, disk, cfg) {}

  Simulator sim;
  Disk disk;
  Pager pager;
};

PagerConfig SmallMemory(size_t frames) {
  PagerConfig cfg;
  cfg.total_frames = frames;
  return cfg;
}

TEST(PagerTest, FirstTouchZeroFillsWithoutIo) {
  PagerFixture f(SmallMemory(16));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  int completions = 0;
  f.pager.Access(*as, 0, false, [&] { ++completions; });
  f.sim.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(f.pager.faults(), 1);
  EXPECT_TRUE(as->IsResident(0));
  EXPECT_EQ(f.disk.reads(), 0);                 // anonymous zero-fill: no disk
  EXPECT_EQ(f.sim.Now(), TimePoint::Zero());    // and no latency

  f.pager.Access(*as, 0, false, [&] { ++completions; });
  f.sim.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(f.pager.hits(), 1);
}

TEST(PagerTest, SwappedOutPagePaysDiskOnReaccess) {
  PagerFixture f(SmallMemory(16));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Prefault(*as, 0, 1);
  f.pager.MarkSwappedOut(*as, 0, 1);
  EXPECT_FALSE(as->IsResident(0));
  EXPECT_TRUE(as->WasEvicted(0));
  bool done = false;
  f.pager.Access(*as, 0, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 1);
  EXPECT_GT(f.sim.Now(), TimePoint::Zero());  // paid disk latency
  EXPECT_TRUE(as->IsResident(0));
}

TEST(PagerTest, EvictedPageNeedsDiskToComeBack) {
  PagerFixture f(SmallMemory(2));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Access(*as, 0, true, nullptr);
  f.pager.Access(*as, 1, true, nullptr);
  f.pager.Access(*as, 2, true, nullptr);  // evicts page 0 (all zero-fill so far)
  f.sim.Run();
  EXPECT_TRUE(as->WasEvicted(0));
  int64_t reads_before = f.disk.reads();
  f.pager.Access(*as, 0, false, nullptr);  // swap page 0 back in
  f.sim.Run();
  EXPECT_EQ(f.disk.reads(), reads_before + 1);
}

TEST(PagerTest, EvictsLeastRecentlyUsed) {
  PagerFixture f(SmallMemory(3));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Prefault(*as, 0, 3);  // pages 0,1,2 resident; LRU order 0,1,2
  f.pager.Access(*as, 0, false, nullptr);  // touch 0 -> LRU order 1,2,0
  f.pager.Access(*as, 3, false, nullptr);  // fault -> evicts 1
  f.sim.Run();
  EXPECT_TRUE(as->IsResident(0));
  EXPECT_FALSE(as->IsResident(1));
  EXPECT_TRUE(as->IsResident(2));
  EXPECT_TRUE(as->IsResident(3));
  EXPECT_EQ(f.pager.evictions(), 1);
}

TEST(PagerTest, PrefaultOfResidentPagesRefreshesTheirRecency) {
  PagerFixture f(SmallMemory(4));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Prefault(*as, 0, 3);  // LRU order 0,1,2
  f.pager.Prefault(*as, 0, 2);  // touches 0,1 -> LRU order 2,0,1
  f.pager.Prefault(*as, 3, 2);  // page 3 takes the free frame, page 4 evicts 2
  EXPECT_FALSE(as->IsResident(2));
  for (uint64_t vpn : {0, 1, 3, 4}) {
    EXPECT_TRUE(as->IsResident(vpn)) << vpn;
  }
  EXPECT_EQ(f.pager.evictions(), 1);
  EXPECT_EQ(f.pager.faults(), 0);  // setup, not simulation
  EXPECT_EQ(f.pager.hits(), 0);
}

TEST(PagerTest, DirtyEvictionTriggersWriteback) {
  PagerFixture f(SmallMemory(2));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Access(*as, 0, /*write=*/true, nullptr);
  f.pager.Access(*as, 1, /*write=*/false, nullptr);
  f.pager.Access(*as, 2, /*write=*/false, nullptr);  // evicts dirty page 0
  f.sim.Run();
  EXPECT_EQ(f.pager.dirty_writebacks(), 1);
  EXPECT_EQ(f.disk.writes(), 1);

  // Evicting the clean page 1 must not add another writeback.
  f.pager.Access(*as, 3, false, nullptr);
  f.sim.Run();
  EXPECT_EQ(f.pager.dirty_writebacks(), 1);
}

TEST(PagerTest, StreamingHogEvictsIdleProcess) {
  // The §5.2 pathology: 100-frame memory, a 40-page editor, and a hog whose demand
  // exceeds free memory. After the hog streams through, the editor has been paged out.
  PagerFixture f(SmallMemory(100));
  AddressSpace* editor = f.pager.CreateAddressSpace("editor", true);
  AddressSpace* hog = f.pager.CreateAddressSpace("hog", false);
  f.pager.Prefault(*editor, 0, 40);
  EXPECT_EQ(editor->resident_pages(), 40u);
  for (uint64_t vpn = 0; vpn < 120; ++vpn) {
    f.pager.Access(*hog, vpn, /*write=*/true, nullptr);
  }
  f.sim.Run();
  EXPECT_EQ(editor->resident_pages(), 0u);
  EXPECT_EQ(f.pager.frames_used(), 100u);
}

TEST(PagerTest, InteractiveProtectKeepsEditorResident) {
  PagerConfig cfg = SmallMemory(100);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  PagerFixture f(cfg);
  AddressSpace* editor = f.pager.CreateAddressSpace("editor", true);
  AddressSpace* hog = f.pager.CreateAddressSpace("hog", false);
  f.pager.Prefault(*editor, 0, 40);
  for (uint64_t vpn = 0; vpn < 200; ++vpn) {
    f.pager.Access(*hog, vpn, /*write=*/true, nullptr);
  }
  f.sim.Run();
  // The hog recycled its own pages; the editor survived untouched.
  EXPECT_EQ(editor->resident_pages(), 40u);
  EXPECT_GT(f.pager.protected_skips(), 0);
}

TEST(PagerTest, InteractiveProtectStillAllowsInteractiveGrowth) {
  PagerConfig cfg = SmallMemory(10);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  PagerFixture f(cfg);
  AddressSpace* a = f.pager.CreateAddressSpace("a", true);
  AddressSpace* b = f.pager.CreateAddressSpace("b", true);
  f.pager.Prefault(*a, 0, 10);
  // An interactive fault may evict interactive pages (normal LRU among peers).
  f.pager.Access(*b, 0, false, nullptr);
  f.sim.Run();
  EXPECT_EQ(a->resident_pages(), 9u);
  EXPECT_EQ(b->resident_pages(), 1u);
}

TEST(PagerTest, ThrottleDelaysNonInteractiveFaultsWhenSaturated) {
  PagerConfig cfg = SmallMemory(4);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  cfg.throttle_delay = Duration::Millis(50);
  PagerFixture f(cfg);
  AddressSpace* hog = f.pager.CreateAddressSpace("hog", false);
  f.pager.Prefault(*hog, 100, 4);  // memory now saturated
  TimePoint done;
  f.pager.Access(*hog, 0, true, [&] { done = f.sim.Now(); });
  f.sim.Run();
  // 50 ms throttle + ~4.82 ms disk read.
  EXPECT_GE(done, TimePoint::FromMicros(50000));
}

TEST(PagerTest, NoThrottleWhileMemoryFree) {
  PagerConfig cfg = SmallMemory(4);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  cfg.throttle_delay = Duration::Millis(50);
  PagerFixture f(cfg);
  AddressSpace* hog = f.pager.CreateAddressSpace("hog", false);
  TimePoint done;
  f.pager.Access(*hog, 0, true, [&] { done = f.sim.Now(); });
  f.sim.Run();
  EXPECT_LT(done, TimePoint::FromMicros(10000));
}

TEST(PagerTest, AccessRangeClustersContiguousSwapIns) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 8;
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.MarkSwappedOut(*as, 0, 32);
  bool done = false;
  f.pager.AccessRange(*as, 0, 32, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.pager.faults(), 32);
  EXPECT_EQ(f.disk.reads(), 4);  // 32 pages in 8-page clusters
  EXPECT_EQ(f.disk.pages_read(), 32);
}

TEST(PagerTest, AccessRangeSkipsResidentPages) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 8;
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.MarkSwappedOut(*as, 0, 24);
  f.pager.Prefault(*as, 8, 8);  // middle brought back
  bool done = false;
  f.pager.AccessRange(*as, 0, 24, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 2);  // two swapped-out runs of 8
}

TEST(PagerTest, AccessRangeAllResidentCompletesWithoutIo) {
  PagerFixture f(SmallMemory(64));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Prefault(*as, 0, 16);
  bool done = false;
  f.pager.AccessRange(*as, 0, 16, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 0);
  EXPECT_EQ(f.sim.Now(), TimePoint::Zero());
}

TEST(PagerTest, SingleClusterSwapInsAreSequentialIos) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 1;  // Linux 2.0-style single-page swap-in
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.MarkSwappedOut(*as, 0, 10);
  bool done = false;
  f.pager.AccessRange(*as, 0, 10, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 10);
}

TEST(PagerTest, MissingInCountsCorrectly) {
  PagerFixture f(SmallMemory(64));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  f.pager.Prefault(*as, 0, 5);
  EXPECT_EQ(as->MissingIn(0, 10), 5u);
  EXPECT_EQ(as->MissingIn(0, 5), 0u);
  EXPECT_EQ(as->MissingIn(5, 5), 5u);
}

TEST(PagerTest, FramesAccounting) {
  PagerFixture f(SmallMemory(8));
  AddressSpace* as = f.pager.CreateAddressSpace("p", false);
  EXPECT_EQ(f.pager.frames_free(), 8u);
  f.pager.Prefault(*as, 0, 3);
  EXPECT_EQ(f.pager.frames_used(), 3u);
  EXPECT_EQ(f.pager.frames_free(), 5u);
  EXPECT_FALSE(f.pager.IsSaturated());
  f.pager.Prefault(*as, 3, 5);
  EXPECT_TRUE(f.pager.IsSaturated());
}


// ---------------------------------------------------------------------------
// Frame-slab restore validation. The pager section stores each space's page table and
// each frame's `next` link; owners, vpns and `prev` links are derived on load, so a
// corrupt table or link must be rejected there instead of being trusted.

constexpr uint32_t kNil = 0xFFFFFFFFu;

// Packed page entry of a clean resident page (kFrameBase + 2 * frame).
uint32_t InFrame(uint32_t frame) { return 2 + 2 * frame; }

// Everything a pager section holds for two idle, non-interactive spaces "a" and "b".
struct SlabImage {
  std::vector<uint32_t> pages_a;
  std::vector<uint32_t> pages_b;
  std::vector<uint32_t> next;  // per frame; kNil ends a list
  uint32_t lru_head = kNil;
  uint32_t lru_tail = kNil;
  uint32_t free_head = kNil;
  uint64_t frames_used = 0;
  // When set, the op table holds one op whose runs, keys and waiter-op lists claim these
  // element counts (their elements are not written).
  std::vector<uint64_t> op_lists;
};

// Writes `img` field by field in the pager section's format, with empty shared-segment,
// in-flight, op and pending-event tables and zero counters.
std::vector<uint8_t> Encode(const SlabImage& img) {
  SnapshotWriter w;
  w.U64(2);
  uint64_t id = 1;
  for (const auto* pages : {&img.pages_a, &img.pages_b}) {
    w.U64(id);
    w.Str(id == 1 ? "a" : "b");
    w.Bool(false);
    w.U64(pages->size());
    int64_t prev = 0;
    for (uint32_t e : *pages) {
      w.I64(static_cast<int64_t>(e) - prev);
      prev = e;
    }
    ++id;
  }
  w.U64(img.next.size());
  for (uint32_t f = 0; f < img.next.size(); ++f) {
    w.I64(img.next[f] == kNil ? 0 : static_cast<int64_t>(img.next[f]) - f);
  }
  w.U32(img.lru_head);
  w.U32(img.lru_tail);
  w.U32(img.free_head);
  w.U64(img.frames_used);
  w.U64(0);  // shared segments
  w.U64(0);  // in-flight page-ins
  if (img.op_lists.empty()) {
    w.U64(0);  // ops
  } else {
    w.U64(1);  // one op, id 1, no completion callback, nothing traced
    w.U64(1);
    w.U64(1);
    w.Bool(false);
    ResumeKey{}.SaveTo(w);
    w.U64(img.op_lists[0]);  // runs
    w.U64(0);                // next run
    w.U64(img.op_lists[1]);  // keys
    w.Bool(false);
    w.U64(img.op_lists[2]);  // waiter ops
    w.Bool(false);
    w.Time(TimePoint());
    w.I64(0);
    w.I64(0);
  }
  w.U64(img.op_lists.empty() ? 1 : 2);  // next op id
  w.U64(0);  // pending op fires
  w.U64(0);  // pending chain issues
  for (int counter = 0; counter < 7; ++counter) {
    w.I64(0);
  }
  w.U64(3);  // next address-space id
  return w.Finish();
}

// The state SlabPager() builds: a = {frame 0, evicted, frame 2}, b = {frame 3, frame 4},
// recency 0 -> 2 -> 3 -> 4, frame 1 free.
SlabImage ValidImage() {
  SlabImage img;
  img.pages_a = {InFrame(0), 1, InFrame(2)};
  img.pages_b = {InFrame(3), InFrame(4)};
  img.next = {2, kNil, 3, 4, kNil};
  img.lru_head = 0;
  img.lru_tail = 4;
  img.free_head = 1;
  img.frames_used = 4;
  return img;
}

struct SlabPager : PagerFixture {
  SlabPager() : PagerFixture(SmallMemory(8)) {
    a = pager.CreateAddressSpace("a", false);
    b = pager.CreateAddressSpace("b", false);
  }
  void Load(const std::vector<uint8_t>& blob) {
    SnapshotReader r(blob);
    EventRearm plan;
    pager.LoadFrom(r, plan);
  }
  std::vector<uint8_t> Save() const {
    SnapshotWriter w;
    pager.SaveTo(w);
    return w.Finish();
  }
  AddressSpace* a;
  AddressSpace* b;
};

// Restoring `img` must throw SnapshotError on the frame slab, for the reason named.
void ExpectSlabRejected(const SlabImage& img, const std::string& reason) {
  SlabPager target;
  try {
    target.Load(Encode(img));
    ADD_FAILURE() << "restore accepted a corrupt slab (" << reason << ")";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.field(), "pager.frames");
    EXPECT_NE(e.reason().find(reason), std::string::npos) << e.what();
  }
}

TEST(PagerSnapshotTest, SectionStoresPageTablesAndNextLinksOnly) {
  SlabPager live;
  live.pager.Prefault(*live.a, 0, 3);
  live.pager.Prefault(*live.b, 0, 2);
  live.pager.MarkSwappedOut(*live.a, 1, 1);
  EXPECT_EQ(live.Save(), Encode(ValidImage()));
}

TEST(PagerSnapshotTest, DerivedSlabRestoresTheLiveState) {
  SlabPager restored;
  restored.Load(Encode(ValidImage()));
  EXPECT_EQ(restored.Save(), Encode(ValidImage()));
  EXPECT_EQ(restored.pager.frames_used(), 4u);
  EXPECT_EQ(restored.a->resident_pages(), 2u);
  EXPECT_TRUE(restored.a->WasEvicted(1));
  // Derived owners and prev links drive eviction: LRU order is a0, a2, b0, b1.
  AddressSpace* c = restored.pager.CreateAddressSpace("c", false);
  restored.pager.Prefault(*c, 0, 5);  // 4 free frames, then one eviction
  EXPECT_EQ(restored.pager.evictions(), 1);
  EXPECT_FALSE(restored.a->IsResident(0));
  EXPECT_TRUE(restored.a->IsResident(2));
}

TEST(PagerSnapshotTest, TwoPagesNamingOneFrameAreRejected) {
  SlabImage img = ValidImage();
  img.pages_b[0] = InFrame(0);  // a's page 0 holds frame 0 too
  ExpectSlabRejected(img, "claimed by two pages");
}

TEST(PagerSnapshotTest, PageNamingAFrameBeyondTheSlabIsRejected) {
  SlabImage img = ValidImage();
  img.pages_a[2] = InFrame(5);  // the slab has frames 0..4
  ExpectSlabRejected(img, "beyond the slab");
}

TEST(PagerSnapshotTest, RecencyListCycleIsRejected) {
  SlabImage img = ValidImage();
  img.next[3] = 0;  // 0 -> 2 -> 3 -> 0 -> ...
  ExpectSlabRejected(img, "recency list leaves");
}

TEST(PagerSnapshotTest, RecencyListShorterThanFramesInUseIsRejected) {
  SlabImage img = ValidImage();
  img.next[3] = kNil;  // 0 -> 2 -> 3, and frame 4 (held by b) is dropped
  img.lru_tail = 3;
  ExpectSlabRejected(img, "recency list holds 3 of 4");
}

TEST(PagerSnapshotTest, FrameOnNeitherListIsRejected) {
  SlabImage img = ValidImage();
  img.next.push_back(kNil);  // free frame 5, never chained onto the free list
  ExpectSlabRejected(img, "free list holds 1 of 2");
}

TEST(PagerSnapshotTest, LinkPastTheSlabIsRejected) {
  SlabImage img = ValidImage();
  img.next[1] = 7;
  ExpectSlabRejected(img, "links past the slab");
}

// A corrupt op-list count must be a SnapshotError, not an allocation sized by it: each
// of the three lists claims 2^40 elements in turn (the restore used to throw
// std::bad_alloc here, or abort under ASan).
TEST(PagerSnapshotTest, OpListCountPastTheSectionIsRejected) {
  {
    SlabImage img = ValidImage();
    img.op_lists = {0, 0, 0};
    SlabPager target;
    target.Load(Encode(img));  // the encoding itself is well formed
  }
  for (size_t list = 0; list < 3; ++list) {
    SCOPED_TRACE(list);
    SlabImage img = ValidImage();
    img.op_lists = {0, 0, 0};
    img.op_lists[list] = uint64_t{1} << 40;
    SlabPager target;
    try {
      target.Load(Encode(img));
      ADD_FAILURE() << "restore accepted an op list of 2^40 elements";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.field(), "pager.op");
    }
  }
}

}  // namespace
}  // namespace tcs
