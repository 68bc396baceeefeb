// Differential property test for the range touch. Pager::AccessRange(as, first, n) walks
// the range once: one in-flight range scan, and one recency splice per run of resident
// pages already adjacent in the recency list. It must leave the state n one-page
// AccessRange calls leave: the same page tables (residency, dirty bits, evicted pages),
// the same recency order, the same hit/fault/eviction/writeback counts and the same
// disk traffic once drained. Two pagers are driven through an identical operation sequence that
// differs only in how each access is issued.
//
// The recency order is read at the end of every case by a fault storm: an interactive
// space zero-fills one fresh page at a time until the pool has turned over, so the
// victims, in order, are the LRU order (an interactive faulter evicts the LRU head
// under both policies).
//
// The join tests at the bottom pin the in-flight scan itself: a range joins exactly the
// in-flight reads of its own address space inside [first, first+count), each once.
//
// The memo mixes pin the recency-run memo: keystroke-shaped prefix passes [0, k) over
// one space's working set, k drawn as the server draws it, interleaved with each
// operation that must invalidate (or, for tail appends, must not disturb) the memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/mem/pager.h"
#include "src/session/os_profile.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

// Every case keeps its pages below this vpn.
constexpr uint64_t kMaxVpn = 384;

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

using Victims = std::vector<std::pair<size_t, uint64_t>>;

// Faults fresh pages of a new interactive space one at a time until every page resident
// now has been evicted; returns those pages (space index, vpn) in eviction order.
Victims StormVictims(PagerFixture& f, const std::vector<AddressSpace*>& spaces) {
  f.sim.Run();
  std::vector<std::pair<size_t, uint64_t>> resident;
  for (size_t i = 0; i < spaces.size(); ++i) {
    if (spaces[i] == nullptr) {
      continue;  // released
    }
    if (std::find(spaces.begin(), spaces.begin() + i, spaces[i]) != spaces.begin() + i) {
      continue;  // another handle on a shared segment listed already
    }
    for (uint64_t vpn = 0; vpn < kMaxVpn; ++vpn) {
      if (spaces[i]->IsResident(vpn)) {
        resident.emplace_back(i, vpn);
      }
    }
  }
  AddressSpace* storm = f.pager.CreateAddressSpace("storm", /*interactive=*/true);
  Victims victims;
  for (uint64_t vpn = 0; vpn < f.pager.total_frames(); ++vpn) {
    int64_t before = f.pager.evictions();
    f.pager.AccessRange(*storm, vpn, 1, /*write=*/false, nullptr);
    if (f.pager.evictions() == before) {
      continue;  // took a free frame
    }
    for (auto it = resident.begin(); it != resident.end(); ++it) {
      if (!spaces[it->first]->IsResident(it->second)) {
        victims.push_back(*it);
        resident.erase(it);
        break;
      }
    }
  }
  EXPECT_TRUE(resident.empty()) << resident.size() << " pages survived the storm";
  f.sim.Run();
  return victims;
}

// Two pagers fed the same operations; `ranged` touches whole ranges, `paged` one page
// per AccessRange call. Address spaces are addressed by index so both stay in lockstep.
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

  void AccessRange(size_t i, uint64_t first, size_t count, bool write) {
    ranged_.pager.AccessRange(*ranged_spaces_[i], first, count, write, nullptr);
    for (uint64_t vpn = first; vpn < first + count; ++vpn) {
      paged_.pager.AccessRange(*paged_spaces_[i], vpn, 1, write, nullptr);
    }
  }

  // Setup steps, issued identically on both sides.
  void Prefault(size_t i, uint64_t first, size_t count) {
    ranged_.pager.Prefault(*ranged_spaces_[i], first, count);
    paged_.pager.Prefault(*paged_spaces_[i], first, count);
  }
  void Touch(size_t i, uint64_t vpn) {
    ranged_.pager.AccessRange(*ranged_spaces_[i], vpn, 1, false, nullptr);
    paged_.pager.AccessRange(*paged_spaces_[i], vpn, 1, false, nullptr);
  }
  void MarkSwappedOut(size_t i, uint64_t first, size_t count) {
    ranged_.pager.MarkSwappedOut(*ranged_spaces_[i], first, count);
    paged_.pager.MarkSwappedOut(*paged_spaces_[i], first, count);
  }
  // A one-page Access (not AccessRange) on both sides.
  void Access(size_t i, uint64_t vpn, bool write) {
    ranged_.pager.Access(*ranged_spaces_[i], vpn, write, nullptr);
    paged_.pager.Access(*paged_spaces_[i], vpn, write, nullptr);
  }
  // Releases space `i` on both sides; its index stays reserved and is skipped.
  void Release(size_t i) {
    ranged_.pager.ReleaseAddressSpace(ranged_spaces_[i]);
    paged_.pager.ReleaseAddressSpace(paged_spaces_[i]);
    ranged_spaces_[i] = nullptr;
    paged_spaces_[i] = nullptr;
  }

  // Checkpoints both pagers once their disks have drained; Restore loads such a
  // checkpoint back into the same pagers (a rewind), again from a drained disk.
  using Checkpoint = std::pair<std::vector<uint8_t>, std::vector<uint8_t>>;
  Checkpoint Save() {
    Run();
    return {SaveOf(ranged_.pager), SaveOf(paged_.pager)};
  }
  void Restore(const Checkpoint& c) {
    Run();
    LoadInto(ranged_.pager, c.first);
    LoadInto(paged_.pager, c.second);
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
    EXPECT_EQ(ranged_.disk.pages_written(), paged_.disk.pages_written());
    for (size_t i = 0; i < ranged_spaces_.size(); ++i) {
      if (ranged_spaces_[i] == nullptr) {
        continue;  // released
      }
      const AddressSpace& x = *ranged_spaces_[i];
      const AddressSpace& y = *paged_spaces_[i];
      ASSERT_EQ(x.resident_pages(), y.resident_pages()) << "space " << i;
      for (uint64_t vpn = 0; vpn < kMaxVpn; ++vpn) {
        ASSERT_EQ(x.IsResident(vpn), y.IsResident(vpn)) << "space " << i << " vpn " << vpn;
        ASSERT_EQ(x.IsDirty(vpn), y.IsDirty(vpn)) << "space " << i << " vpn " << vpn;
        ASSERT_EQ(x.WasEvicted(vpn), y.WasEvicted(vpn)) << "space " << i << " vpn " << vpn;
      }
    }
  }

  // Ends the case: the same state, then the same LRU order read by a fault storm (whose
  // writebacks also settle the dirty bits).
  void ExpectSameRecency(const std::string& where) {
    ExpectSame(where);
    SCOPED_TRACE(where);
    Victims a = StormVictims(ranged_, ranged_spaces_);
    Victims b = StormVictims(paged_, paged_spaces_);
    EXPECT_TRUE(a == b) << "recency orders differ";
    EXPECT_EQ(ranged_.pager.dirty_writebacks(), paged_.pager.dirty_writebacks());
    // A range issues its clustered reads one after another, so read traffic compares
    // only once the disk has drained.
    EXPECT_EQ(ranged_.disk.pages_read(), paged_.disk.pages_read());
  }

 private:
  static std::vector<uint8_t> SaveOf(const Pager& pager) {
    SnapshotWriter w;
    pager.SaveTo(w);
    return w.Finish();
  }
  static void LoadInto(Pager& pager, const std::vector<uint8_t>& blob) {
    SnapshotReader r(blob);
    EventRearm plan;  // drained: nothing to re-arm
    pager.LoadFrom(r, plan);
  }

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

class AccessRangeProperty : public ::testing::TestWithParam<Param> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  EvictionPolicy policy() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, AccessRangeProperty,
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

// A resident range whose frames already sit in list order, as a login's prefault leaves
// them: one run, one splice.
TEST_P(AccessRangeProperty, AllResidentInListOrder) {
  Rng rng(seed());
  Twin t(256, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  size_t n = Pick(rng, 8, 120);
  t.Prefault(a, 0, n);
  t.Prefault(b, 0, Pick(rng, 1, 100));
  uint64_t first = rng.NextBelow(n);
  t.AccessRange(a, first, Pick(rng, 1, static_cast<int64_t>(n - first)), rng.NextBool(0.5));
  t.ExpectSame("in list order");
  EXPECT_EQ(t.ranged().faults(), 0);
  t.AccessRange(b, 0, 1, false);  // the range just touched is no longer at the tail
  t.AccessRange(a, 0, n, false);
  t.ExpectSameRecency("whole range");
}

// Other sessions' touches land between the range's frames, and the range's own pages
// were touched out of order, so its frames form many short runs, some reversed.
TEST_P(AccessRangeProperty, RunsBrokenByOtherSessionsTouches) {
  Rng rng(seed());
  Twin t(256, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  size_t c = t.Create(rng.NextBool(0.5));
  size_t n = Pick(rng, 16, 90);
  t.Prefault(a, 0, n);
  t.Prefault(b, 0, 60);
  t.Prefault(c, 0, 60);
  for (int step = 0; step < 60; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.4) {
      t.Touch(a, rng.NextBelow(n));
    } else if (dice < 0.7) {
      t.Touch(b, rng.NextBelow(60));
    } else {
      t.AccessRange(c, rng.NextBelow(50), Pick(rng, 1, 10), false);
    }
  }
  t.ExpectSame("shuffled");
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t first = rng.NextBelow(n);
    t.AccessRange(a, first, Pick(rng, 1, static_cast<int64_t>(n - first)), rng.NextBool(0.3));
    t.Touch(b, rng.NextBelow(60));
    t.ExpectSame("pass " + std::to_string(pass));
  }
  t.ExpectSameRecency("broken runs");
}

// The range's last pages are the MRU tail: a run ending there does not move, and one
// that merely reaches it moves past it.
TEST_P(AccessRangeProperty, RunEndingAtTheMruTail) {
  Rng rng(seed());
  Twin t(256, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  t.Prefault(b, 0, Pick(rng, 1, 80));
  size_t n = Pick(rng, 4, 100);
  t.Prefault(a, 0, n);  // a's pages are the tail
  uint64_t first = rng.NextBelow(n);
  t.AccessRange(a, first, n - first, rng.NextBool(0.5));  // ends at the tail
  t.ExpectSame("suffix");
  t.AccessRange(a, 0, n, false);  // prefix moves behind the suffix
  t.ExpectSame("whole");
  t.AccessRange(a, 0, n, false);  // now one run that is the tail: no move
  t.ExpectSameRecency("tail run");
}

// The range's first page is the LRU head: the splice takes the head with it.
TEST_P(AccessRangeProperty, RunStartingAtTheLruHead) {
  Rng rng(seed());
  Twin t(256, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  size_t n = Pick(rng, 4, 100);
  t.Prefault(a, 0, n);  // a's pages are the head
  t.Prefault(b, 0, Pick(rng, 1, 80));
  t.AccessRange(a, 0, Pick(rng, 1, static_cast<int64_t>(n)), rng.NextBool(0.5));
  t.ExpectSame("head prefix");
  t.AccessRange(a, 0, n, rng.NextBool(0.5));  // the rest of a is now the head
  t.ExpectSameRecency("head");
}

// Resident runs interleaved with swapped-out and never-touched pages in a saturated
// pool: every fault mid-range evicts, and the victims come from the LRU head, where the
// range's own not-yet-touched frames sit.
TEST_P(AccessRangeProperty, FaultsMidRangeInASaturatedPool) {
  Rng rng(seed());
  const size_t frames = Pick(rng, 24, 96);
  Twin t(frames, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  size_t n = Pick(rng, 8, static_cast<int64_t>(frames * 2 / 3));
  t.Prefault(a, 0, n);
  t.Prefault(b, 0, frames - n);  // saturated, a at the head
  for (int hole = 0; hole < 4; ++hole) {
    t.MarkSwappedOut(a, rng.NextBelow(n), Pick(rng, 1, 4));
  }
  t.Prefault(b, frames - n, Pick(rng, 1, 6));  // evicts from a's head
  t.ExpectSame("holes");
  // Past n the range runs into never-touched pages: zero-fill faults.
  t.AccessRange(a, 0, n + Pick(rng, 0, 8), rng.NextBool(0.5));
  t.ExpectSame("faulting range");
  EXPECT_GT(t.ranged().evictions(), 0);
  // Touch again before the reads land, from both owners (joins), then drain.
  t.AccessRange(a, rng.NextBelow(n), Pick(rng, 1, static_cast<int64_t>(n)), false);
  t.AccessRange(b, 0, Pick(rng, 1, static_cast<int64_t>(frames - n)), rng.NextBool(0.5));
  t.Run();
  t.ExpectSameRecency("after faults");
}

// Dirty bits are set per page and written back per page at eviction.
TEST_P(AccessRangeProperty, WritesDirtyEveryPage) {
  Rng rng(seed());
  const size_t frames = Pick(rng, 32, 128);
  Twin t(frames, policy());
  size_t a = t.Create(rng.NextBool(0.5));
  size_t b = t.Create(rng.NextBool(0.5));
  t.Prefault(a, 0, frames / 2);
  t.Prefault(b, 0, frames / 4);
  for (int step = 0; step < 8; ++step) {
    size_t as = rng.NextBool(0.5) ? a : b;
    uint64_t first = rng.NextBelow(frames / 2);
    t.AccessRange(as, first, Pick(rng, 1, static_cast<int64_t>(frames)), /*write=*/true);
    t.ExpectSame("write " + std::to_string(step));
  }
  EXPECT_GT(t.ranged().dirty_writebacks(), 0);
  t.ExpectSameRecency("writes");
}

// Shared segments are touched by several sessions' ranges, interleaved with private
// spaces, as consolidated logins touch one editor text segment.
TEST_P(AccessRangeProperty, SharedSegments) {
  Rng rng(seed());
  Twin t(Pick(rng, 64, 256), policy());
  std::vector<size_t> handles;
  for (int step = 0; step < 40; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.3) {
      std::string key = "text:" + std::to_string(rng.NextBelow(3));
      auto [as, created] = t.AcquireShared(key, rng.NextBool(0.5));
      handles.push_back(as);
      if (created) {
        t.Prefault(as, 0, Pick(rng, 1, 48));
      }
    } else if (dice < 0.45) {
      size_t as = t.Create(rng.NextBool(0.5));
      handles.push_back(as);
      t.Prefault(as, 0, Pick(rng, 1, 32));
    } else if (!handles.empty()) {
      size_t as = handles[rng.NextBelow(handles.size())];
      t.AccessRange(as, rng.NextBelow(16), Pick(rng, 1, 48), rng.NextBool(0.3));
    }
    if (rng.NextBool(0.2)) {
      t.Run();
    }
    t.ExpectSame("shared step " + std::to_string(step));
  }
  t.ExpectSameRecency("shared");
}

// Everything at once over a small pool: ranges, single touches, prefaults, swap-outs and
// new spaces, with reads sometimes still on the disk at the next range.
TEST_P(AccessRangeProperty, RandomMix) {
  Rng rng(seed());
  Twin t(Pick(rng, 24, 96), policy());
  t.Create(true);
  t.Create(false);
  for (int step = 0; step < 80; ++step) {
    size_t as = static_cast<size_t>(rng.NextBelow(t.spaces()));
    uint64_t first = rng.NextBelow(64);
    size_t count = Pick(rng, 1, 64);
    double dice = rng.NextDouble();
    if (dice < 0.5) {
      t.AccessRange(as, first, count, rng.NextBool(0.3));
    } else if (dice < 0.65) {
      t.Touch(as, first);
    } else if (dice < 0.8) {
      t.Prefault(as, first, count);
    } else if (dice < 0.92) {
      t.MarkSwappedOut(as, first, count);
    } else {
      t.Create(rng.NextBool(0.5));
    }
    if (rng.NextBool(0.3)) {
      t.Run();
    }
    t.ExpectSame("mix step " + std::to_string(step));
  }
  t.ExpectSameRecency("mix");
}

// ---------------------------------------------------------------------------
// Memo mixes. An editor space takes prefix passes [0, k) over its working set, k a
// uniform fraction between the profile's ws_touch_min and ws_touch_max of the set (the
// working set is scaled to the test's pool), interleaved with another session's
// touches and, between some passes, with the operation under test. Reads sometimes stay
// on the disk into the next pass, so memo hits join them.

enum class Between {
  kOnePageAccess,    // Access on a page inside the memo's interval
  kOtherRange,       // another range of the same space, sometimes a write or past the set
  kEvictionStorm,    // a third space faults fresh pages in the saturated pool
  kSwapOut,          // MarkSwappedOut of some of the editor's pages
  kPrefault,         // Prefault over resident and missing editor pages
  kReleaseAndReuse,  // a space is released and a new one takes its freed frames
  kRestore,          // the pagers are rewound to an earlier checkpoint
};

void PrefixPassMix(uint64_t seed, EvictionPolicy policy, Between between) {
  Rng rng(seed);
  const OsProfile profile = rng.NextBool(0.5) ? OsProfile::Tse() : OsProfile::LinuxX();
  const size_t ws = Pick(rng, 48, 200);
  const size_t other_pages = Pick(rng, 16, 64);
  Twin t(ws + other_pages + Pick(rng, 8, 48), policy);
  size_t editor = t.Create(/*interactive=*/true);
  size_t other = t.Create(rng.NextBool(0.5));
  const size_t hog = t.Create(rng.NextBool(0.5));
  t.Prefault(editor, 0, ws);
  t.Prefault(other, 0, other_pages);
  auto draw = [&] {
    double frac = profile.ws_touch_min +
                  rng.NextDouble() * (profile.ws_touch_max - profile.ws_touch_min);
    return std::max<size_t>(1, static_cast<size_t>(frac * static_cast<double>(ws)));
  };
  uint64_t hog_next = 0;
  Twin::Checkpoint checkpoint;
  bool saved = false;
  for (int pass = 0; pass < 48; ++pass) {
    t.AccessRange(editor, 0, draw(), /*write=*/false);
    t.Touch(other, rng.NextBelow(other_pages));
    if (rng.NextBool(0.4)) {
      switch (between) {
        case Between::kOnePageAccess:
          t.Access(editor, rng.NextBelow(ws), rng.NextBool(0.3));
          break;
        case Between::kOtherRange: {
          uint64_t first = rng.NextBelow(ws);
          t.AccessRange(editor, first, Pick(rng, 1, static_cast<int64_t>(ws - first + 8)),
                        rng.NextBool(0.4));
          break;
        }
        case Between::kEvictionStorm: {
          size_t n = Pick(rng, 8, 64);
          if (hog_next + n > kMaxVpn) {
            t.MarkSwappedOut(hog, 0, hog_next);  // start over on evicted pages: reads
            hog_next = 0;
          }
          t.AccessRange(hog, hog_next, n, rng.NextBool(0.5));
          hog_next += n;
          break;
        }
        case Between::kSwapOut:
          t.MarkSwappedOut(editor, rng.NextBelow(ws), Pick(rng, 1, 8));
          break;
        case Between::kPrefault: {
          uint64_t first = rng.NextBelow(ws);
          t.Prefault(editor, first, Pick(rng, 1, static_cast<int64_t>(ws - first + 8)));
          break;
        }
        case Between::kReleaseAndReuse:
          // Releasing the other session frees frames between the editor's runs; its
          // successor takes them from the free list, appended at the MRU tail.
          // Releasing the editor hands its frames to a fresh editor.
          if (rng.NextBool(0.7)) {
            t.Release(other);
            other = t.Create(rng.NextBool(0.5));
            t.Prefault(other, 0, other_pages);
          } else {
            t.Release(editor);
            editor = t.Create(true);
            t.Prefault(editor, 0, ws);
          }
          break;
        case Between::kRestore:
          // Fragment the editor's runs, then checkpoint; a later rewind restores a list
          // the passes in between had reshaped.
          if (!saved || rng.NextBool(0.5)) {
            for (int i = 0; i < 4; ++i) {
              t.Access(editor, rng.NextBelow(ws), false);
            }
            checkpoint = t.Save();
            saved = true;
          } else {
            t.Restore(checkpoint);
          }
          break;
      }
    }
    if (rng.NextBool(0.3)) {
      t.Run();
    }
    t.ExpectSame("pass " + std::to_string(pass));
  }
  t.ExpectSameRecency("prefix passes");
}

TEST_P(AccessRangeProperty, MemoPrefixPassesWithOnePageAccess) {
  PrefixPassMix(seed(), policy(), Between::kOnePageAccess);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithOtherRange) {
  PrefixPassMix(seed(), policy(), Between::kOtherRange);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithEvictionStorm) {
  PrefixPassMix(seed(), policy(), Between::kEvictionStorm);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithSwapOut) {
  PrefixPassMix(seed(), policy(), Between::kSwapOut);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithPrefault) {
  PrefixPassMix(seed(), policy(), Between::kPrefault);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithReleaseAndReuse) {
  PrefixPassMix(seed(), policy(), Between::kReleaseAndReuse);
}
TEST_P(AccessRangeProperty, MemoPrefixPassesWithRestore) {
  PrefixPassMix(seed(), policy(), Between::kRestore);
}

// ---------------------------------------------------------------------------
// Joins. Three spaces with consecutive ids, so their in_flight_ keys are neighbours:
// `below` (id 1), `mine` (id 2) and `above` (id 3). mine's range is [0, 12). Reads are
// issued in a fixed order on a FIFO disk, so each lands at its own time and the range's
// completion time says which reads it waited for.

class JoinFixture : public PagerFixture {
 public:
  JoinFixture() : PagerFixture(Config()) {
    below = pager.CreateAddressSpace("below", false);
    mine = pager.CreateAddressSpace("mine", false);
    above = pager.CreateAddressSpace("above", false);
    for (AddressSpace* as : {below, mine, above}) {
      pager.Prefault(*as, 0, 16);
    }
  }

  // Swaps `count` pages out and reads them back as one access; returns when it lands
  // (filled in once the simulation runs).
  TimePoint* Read(AddressSpace* as, uint64_t vpn, size_t count) {
    pager.MarkSwappedOut(*as, vpn, count);
    landed.push_back(std::make_unique<TimePoint>());
    TimePoint* at = landed.back().get();
    pager.AccessRange(*as, vpn, count, false, [this, at] { *at = sim.Now(); });
    return at;
  }

  static constexpr uint64_t kFirst = 0;
  static constexpr size_t kCount = 12;

  // The range access under test; returns its completion time after draining.
  TimePoint Range() {
    TimePoint done;
    pager.AccessRange(*mine, kFirst, kCount, false, [this, &done] { done = sim.Now(); });
    sim.Run();
    return done;
  }

  AddressSpace* below;
  AddressSpace* mine;
  AddressSpace* above;
  std::vector<std::unique_ptr<TimePoint>> landed;

 private:
  static PagerConfig Config() {
    PagerConfig cfg;
    cfg.total_frames = 64;
    cfg.cluster_pages = 2;  // mine's pages 7-8 come back as one read
    return cfg;
  }
};

TEST(AccessRangeJoins, JoinsEachOwnReadInTheRangeOnce) {
  JoinFixture f;
  TimePoint* p3 = f.Read(f.mine, 3, 1);
  TimePoint* p5 = f.Read(f.mine, 5, 1);
  TimePoint* p78 = f.Read(f.mine, 7, 2);
  ASSERT_EQ(f.pager.coalesced_waits(), 0);
  TimePoint done = f.Range();
  EXPECT_EQ(f.pager.coalesced_waits(), 3);  // pages 7 and 8 share one read
  EXPECT_LT(*p3, *p5);
  EXPECT_LT(*p5, *p78);
  EXPECT_EQ(done, *p78);  // the last joined read
}

TEST(AccessRangeJoins, NeighbourSpacesReadsAreNotJoined) {
  // The neighbours' reads sit at vpns inside mine's range, past mine's own read, and
  // land last.
  for (bool use_above : {true, false}) {
    SCOPED_TRACE(use_above ? "above" : "below");
    JoinFixture f;
    TimePoint* own = f.Read(f.mine, 3, 1);
    TimePoint* other = f.Read(use_above ? f.above : f.below, 8, 1);
    TimePoint done = f.Range();
    EXPECT_EQ(f.pager.coalesced_waits(), 1);
    EXPECT_LT(*own, *other);
    EXPECT_EQ(done, *own);
  }
}

TEST(AccessRangeJoins, ReadJustPastTheRangeIsNotJoined) {
  JoinFixture f;
  TimePoint* own = f.Read(f.mine, JoinFixture::kFirst + JoinFixture::kCount - 1, 1);
  TimePoint* past = f.Read(f.mine, JoinFixture::kFirst + JoinFixture::kCount, 1);
  TimePoint done = f.Range();
  EXPECT_EQ(f.pager.coalesced_waits(), 1);
  EXPECT_LT(*own, *past);
  EXPECT_EQ(done, *own);
}

TEST(AccessRangeJoins, NothingInFlightCompletesAtOnce) {
  JoinFixture f;
  TimePoint* other = f.Read(f.above, 4, 1);
  TimePoint done = f.Range();
  EXPECT_EQ(f.pager.coalesced_waits(), 0);
  EXPECT_EQ(done, TimePoint());
  EXPECT_LT(done, *other);
}

}  // namespace
}  // namespace tcs
