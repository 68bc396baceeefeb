// Differential property test for the range prefault. Pager::Prefault(as, first, n)
// walks the range in runs (one page-table grow, one LRU splice per run of free frames);
// it must leave exactly the state n one-page Prefault calls leave: the same serialized
// pager (frame slab, recency and free lists, page tables, shared refcounts), the same
// counters, and the same writeback traffic on the disk. Two pagers are driven through
// an identical operation sequence that differs only in how each prefault is issued.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/mem/pager.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
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
  explicit PagerFixture(PagerConfig cfg)
      : disk(sim, Rng(1), FastDeterministicDisk()), pager(sim, disk, cfg) {}

  Simulator sim;
  Disk disk;
  Pager pager;
};

std::vector<uint8_t> Blob(const Pager& pager) {
  SnapshotWriter w;
  pager.SaveTo(w);
  return w.Finish();
}

// Two pagers fed the same operations; `ranged` prefaults whole ranges, `paged` one page
// per call. Address spaces are addressed by index so both sides stay in lockstep.
class Twin {
 public:
  Twin(size_t frames, EvictionPolicy policy)
      : ranged_(Config(frames, policy)), paged_(Config(frames, policy)) {}

  size_t Create(bool interactive) {
    std::string name = "as" + std::to_string(ranged_spaces_.size());
    ranged_spaces_.push_back(ranged_.pager.CreateAddressSpace(name, interactive));
    paged_spaces_.push_back(paged_.pager.CreateAddressSpace(name, interactive));
    return ranged_spaces_.size() - 1;
  }

  // Returns the index of the segment's space and whether this acquire created it.
  std::pair<size_t, bool> AcquireShared(const std::string& key, bool interactive) {
    SharedSegment a = ranged_.pager.AcquireShared(key, interactive);
    SharedSegment b = paged_.pager.AcquireShared(key, interactive);
    EXPECT_EQ(a.created, b.created);
    ranged_spaces_.push_back(a.space);
    paged_spaces_.push_back(b.space);
    return {ranged_spaces_.size() - 1, a.created};
  }

  void ReleaseShared(const std::string& key) {
    ranged_.pager.ReleaseShared(key);
    paged_.pager.ReleaseShared(key);
  }

  void Prefault(size_t i, uint64_t first, size_t count) {
    ranged_.pager.Prefault(*ranged_spaces_[i], first, count);
    for (uint64_t vpn = first; vpn < first + count; ++vpn) {
      paged_.pager.Prefault(*paged_spaces_[i], vpn, 1);
    }
  }

  void AccessRange(size_t i, uint64_t first, size_t count, bool write) {
    ranged_.pager.AccessRange(*ranged_spaces_[i], first, count, write, nullptr);
    paged_.pager.AccessRange(*paged_spaces_[i], first, count, write, nullptr);
  }

  void MarkSwappedOut(size_t i, uint64_t first, size_t count) {
    ranged_.pager.MarkSwappedOut(*ranged_spaces_[i], first, count);
    paged_.pager.MarkSwappedOut(*paged_spaces_[i], first, count);
  }

  void Run() {
    ranged_.sim.Run();
    paged_.sim.Run();
  }

  const Pager& ranged() const { return ranged_.pager; }
  size_t spaces() const { return ranged_spaces_.size(); }

  void ExpectSame(const std::string& where) const {
    SCOPED_TRACE(where);
    const Pager& a = ranged_.pager;
    const Pager& b = paged_.pager;
    EXPECT_EQ(a.frames_used(), b.frames_used());
    EXPECT_EQ(a.faults(), b.faults());
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.evictions(), b.evictions());
    EXPECT_EQ(a.dirty_writebacks(), b.dirty_writebacks());
    EXPECT_EQ(a.protected_skips(), b.protected_skips());
    EXPECT_EQ(a.shared_segments(), b.shared_segments());
    EXPECT_EQ(a.shared_attaches(), b.shared_attaches());
    EXPECT_EQ(a.coalesced_waits(), b.coalesced_waits());
    EXPECT_EQ(ranged_.disk.pages_written(), paged_.disk.pages_written());
    EXPECT_EQ(ranged_.disk.pages_read(), paged_.disk.pages_read());
    // The blob carries every live space's page table and resident count (a released
    // shared segment's handle here may dangle, so spaces are not compared directly).
    EXPECT_TRUE(Blob(a) == Blob(b)) << "serialized pagers differ";
  }

 private:
  static PagerConfig Config(size_t frames, EvictionPolicy policy) {
    PagerConfig cfg;
    cfg.total_frames = frames;
    cfg.policy = policy;
    return cfg;
  }

  PagerFixture ranged_;
  PagerFixture paged_;
  std::vector<AddressSpace*> ranged_spaces_;
  std::vector<AddressSpace*> paged_spaces_;
};

using Param = std::tuple<uint64_t, EvictionPolicy>;

class PrefaultProperty : public ::testing::TestWithParam<Param> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  EvictionPolicy policy() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, PrefaultProperty,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
                       ::testing::Values(EvictionPolicy::kGlobalLru,
                                         EvictionPolicy::kInteractiveProtect)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == EvictionPolicy::kGlobalLru ? "_lru" : "_protect");
    });

size_t Pick(Rng& rng, int64_t lo, int64_t hi) {
  return static_cast<size_t>(rng.NextInt(lo, hi));
}

TEST_P(PrefaultProperty, FreshSpace) {
  Rng rng(seed());
  Twin t(256, policy());
  size_t as = t.Create(rng.NextBool(0.5));
  t.Prefault(as, 0, Pick(rng, 1, 256));
  t.ExpectSame("fresh");
  EXPECT_EQ(t.ranged().faults(), 0);
  EXPECT_EQ(t.ranged().hits(), 0);
}

TEST_P(PrefaultProperty, ExtensionPastTheEnd) {
  Rng rng(seed());
  Twin t(512, policy());
  size_t as = t.Create(rng.NextBool(0.5));
  size_t head = Pick(rng, 1, 64);
  t.Prefault(as, 0, head);
  // Starts inside the resident prefix and runs past the page table's end.
  uint64_t first = static_cast<uint64_t>(rng.NextBelow(head));
  t.Prefault(as, first, head - first + Pick(rng, 1, 64));
  t.ExpectSame("extension");
}

TEST_P(PrefaultProperty, NonZeroFirstLeavesAnUntouchedGap) {
  Rng rng(seed());
  Twin t(512, policy());
  size_t as = t.Create(rng.NextBool(0.5));
  uint64_t first = Pick(rng, 1, 100);
  t.Prefault(as, first, Pick(rng, 1, 100));
  t.ExpectSame("gap");
  // The gap stays never-touched: a first access zero-fills it without disk I/O.
  t.AccessRange(as, 0, first, /*write=*/false);
  t.Run();
  t.ExpectSame("gap filled");
  EXPECT_EQ(t.ranged().faults(), static_cast<int64_t>(first));
}

TEST_P(PrefaultProperty, OverlapWithResidentPages) {
  Rng rng(seed());
  Twin t(512, policy());
  size_t a = t.Create(true);
  size_t b = t.Create(false);
  for (int step = 0; step < 12; ++step) {
    size_t as = rng.NextBool(0.5) ? a : b;
    uint64_t first = rng.NextBelow(80);
    size_t count = Pick(rng, 1, 40);
    if (rng.NextBool(0.3)) {
      t.AccessRange(as, first, count, rng.NextBool(0.5));  // recency reshuffle, dirt
      t.Run();
    } else {
      t.Prefault(as, first, count);
    }
    t.ExpectSame("overlap step " + std::to_string(step));
  }
}

TEST_P(PrefaultProperty, SwappedOutPages) {
  Rng rng(seed());
  Twin t(512, policy());
  size_t as = t.Create(rng.NextBool(0.5));
  t.Prefault(as, 0, 40);
  // Swap out a stretch that straddles the resident prefix and untouched pages beyond.
  uint64_t first = rng.NextBelow(40);
  t.MarkSwappedOut(as, first, Pick(rng, 1, 60));
  t.ExpectSame("swapped out");
  t.Prefault(as, rng.NextBelow(first + 1), Pick(rng, 1, 120));
  t.ExpectSame("prefault over swapped-out pages");
  // Anything still swapped out pays the disk on access, identically on both sides.
  t.AccessRange(as, 0, 120, /*write=*/false);
  t.Run();
  t.ExpectSame("access after");
}

TEST_P(PrefaultProperty, SaturationMidRangeForcesEvictions) {
  Rng rng(seed());
  const size_t frames = Pick(rng, 16, 64);
  Twin t(frames, policy());
  size_t editor = t.Create(true);
  size_t hog = t.Create(false);
  // Fill part of memory with dirty pages of both kinds, so the prefault that runs out
  // of free frames mid-range evicts (and writes back) interleaved owners.
  t.AccessRange(editor, 0, Pick(rng, 1, frames / 2), /*write=*/true);
  t.AccessRange(hog, 0, Pick(rng, 1, frames / 3), /*write=*/true);
  t.Run();
  t.ExpectSame("filled");
  size_t target = rng.NextBool(0.5) ? hog : editor;
  t.Prefault(target, rng.NextBelow(8), frames + Pick(rng, 1, frames));
  t.ExpectSame("saturated prefault");
  EXPECT_GT(t.ranged().evictions(), 0);
  // And again into a saturated pool, for the other owner.
  t.Prefault(target == hog ? editor : hog, 0, Pick(rng, 1, 2 * frames));
  t.ExpectSame("second saturated prefault");
}

TEST_P(PrefaultProperty, SharedSegments) {
  Rng rng(seed());
  Twin t(Pick(rng, 64, 256), policy());
  std::vector<std::string> held;
  for (int step = 0; step < 30; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.5) {
      std::string key = "text:" + std::to_string(rng.NextBelow(4));
      auto [as, created] = t.AcquireShared(key, rng.NextBool(0.5));
      held.push_back(key);
      if (created) {
        t.Prefault(as, 0, Pick(rng, 1, 48));
      }
    } else if (dice < 0.7 && !held.empty()) {
      size_t pick = static_cast<size_t>(rng.NextBelow(held.size()));
      t.ReleaseShared(held[pick]);
      held.erase(held.begin() + static_cast<long>(pick));
    } else {
      size_t as = t.Create(rng.NextBool(0.5));
      t.Prefault(as, rng.NextBelow(4), Pick(rng, 1, 48));
    }
    t.ExpectSame("shared step " + std::to_string(step));
  }
}

// The single-page reference above shares Prefault's code; this pins both to the
// simulated path. A zero-fill fault (AccessRange over never-touched pages) takes its
// frame through AllocFrame, so prefaulting range X then faulting range Y must leave the
// same pager as faulting X then prefaulting Y — same slab slots (free list first, then
// the slab end), same recency order, same evictions — when |X| == |Y| keeps the fault
// counters equal. Freed frames (MarkSwappedOut) and a saturated pool are in the mix.
TEST_P(PrefaultProperty, PlacementMatchesTheZeroFillFaultPath) {
  Rng rng(seed());
  const size_t frames = Pick(rng, 24, 96);
  PagerFixture a(PagerConfig{frames, 1, policy()});
  PagerFixture b(PagerConfig{frames, 1, policy()});
  std::vector<AddressSpace*> sa;
  std::vector<AddressSpace*> sb;
  for (int i = 0; i < 3; ++i) {
    bool interactive = rng.NextBool(0.5);
    sa.push_back(a.pager.CreateAddressSpace("s" + std::to_string(i), interactive));
    sb.push_back(b.pager.CreateAddressSpace("s" + std::to_string(i), interactive));
  }
  uint64_t next_vpn = 0;  // ranges come from fresh territory: never touched
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    size_t x = static_cast<size_t>(rng.NextBelow(sa.size()));
    size_t y = static_cast<size_t>(rng.NextBelow(sa.size()));
    size_t n = Pick(rng, 1, static_cast<int64_t>(frames / 2));
    uint64_t xf = next_vpn;
    uint64_t yf = next_vpn + n + rng.NextBelow(4);
    next_vpn = yf + n;
    a.pager.Prefault(*sa[x], xf, n);
    a.pager.AccessRange(*sa[y], yf, n, /*write=*/false, nullptr);
    b.pager.AccessRange(*sb[x], xf, n, /*write=*/false, nullptr);
    b.pager.Prefault(*sb[y], yf, n);
    EXPECT_EQ(a.pager.faults(), b.pager.faults());
    EXPECT_EQ(a.pager.evictions(), b.pager.evictions());
    EXPECT_TRUE(Blob(a.pager) == Blob(b.pager)) << "serialized pagers differ";
    if (rng.NextBool(0.4)) {  // free some frames so the next runs start on the free list
      size_t z = static_cast<size_t>(rng.NextBelow(sa.size()));
      uint64_t first = rng.NextBelow(next_vpn);
      size_t count = Pick(rng, 1, static_cast<int64_t>(std::min<uint64_t>(8, next_vpn - first)));
      a.pager.MarkSwappedOut(*sa[z], first, count);
      b.pager.MarkSwappedOut(*sb[z], first, count);
    }
    if (step % 3 == 2) {
      // Unlink the MRU tail, which `b` placed last: a placed run must end the list.
      a.pager.MarkSwappedOut(*sa[y], next_vpn - 1, 1);
      b.pager.MarkSwappedOut(*sb[y], next_vpn - 1, 1);
    }
  }
}

// Everything at once: random prefaults, accesses, swap-outs and segments over a small
// pool, compared after every operation.
TEST_P(PrefaultProperty, RandomMix) {
  Rng rng(seed());
  Twin t(Pick(rng, 24, 96), policy());
  t.Create(true);
  for (int step = 0; step < 80; ++step) {
    size_t as = static_cast<size_t>(rng.NextBelow(t.spaces()));
    uint64_t first = rng.NextBelow(64);
    size_t count = Pick(rng, 1, 64);
    double dice = rng.NextDouble();
    if (dice < 0.45) {
      t.Prefault(as, first, count);
    } else if (dice < 0.65) {
      t.AccessRange(as, first, count, rng.NextBool(0.5));
    } else if (dice < 0.75) {
      t.MarkSwappedOut(as, first, count);
    } else if (dice < 0.85) {
      t.Create(rng.NextBool(0.5));
    } else {
      t.AcquireShared("seg:" + std::to_string(rng.NextBelow(3)), rng.NextBool(0.5));
    }
    if (rng.NextBool(0.3)) {
      t.Run();
    }
    t.ExpectSame("mix step " + std::to_string(step));
  }
  t.Run();
  t.ExpectSame("drained");
}

}  // namespace
}  // namespace tcs
