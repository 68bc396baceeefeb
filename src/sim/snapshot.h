// Deterministic serialization of simulator state (checkpoint/restore).
//
// A snapshot is a framed, versioned, CRC-guarded byte blob. SnapshotWriter/SnapshotReader
// provide the primitive encodings (LEB128 varints, zigzag signed ints, bit-pattern
// doubles, length-prefixed strings) plus nestable tagged sections, so every subsystem
// serializes into its own named frame and a truncated, bit-flipped, or version-skewed
// blob fails loudly with SnapshotError instead of restoring garbage.
//
// Pending event callbacks cannot be serialized (they are closures). Instead, every
// component that owns pending activity records a small POD ResumeKey describing the
// continuation, and on restore re-arms its events through an EventRearm plan: callbacks
// are rebuilt either by the owning component directly or via the registered-restorer
// table (kind -> builder). The plan re-inserts every pending event with its original
// (time, sequence) pair — insertion sequence is the deterministic tiebreak for same-time
// events — and then verifies the rebuilt queue's (when, seq) multiset exactly matches
// the snapshot's manifest, so a component that forgot to re-arm (or re-armed twice)
// fails restore with a named error rather than silently diverging.

#ifndef TCS_SRC_SIM_SNAPSHOT_H_
#define TCS_SRC_SIM_SNAPSHOT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/time.h"
#include "src/util/config_error.h"

namespace tcs {

class Simulator;

// Thrown on any malformed, truncated, corrupted, or version-skewed snapshot, and on
// restore-time inconsistencies (unknown resume kind, event-manifest mismatch, topology
// drift). Derives from ConfigError so existing driver error paths catch it.
class SnapshotError : public ConfigError {
 public:
  SnapshotError(std::string field, std::string reason)
      : ConfigError(std::move(field), std::move(reason)) {}
};

// CRC-32 (IEEE 802.3, reflected; the zlib/PNG checksum) of `len` bytes: the trailer
// SnapshotWriter::Finish appends over everything before it.
uint32_t SnapshotCrc32(const uint8_t* data, size_t len);

// Blob layout: magic, format version, body (tagged sections), trailing CRC32.
inline constexpr uint32_t kSnapshotMagic = 0x54435353;  // "TCSS"
inline constexpr uint32_t kSnapshotVersion = 2;

class SnapshotWriter {
 public:
  SnapshotWriter();

  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { U64(v); }
  void U64(uint64_t v);                       // LEB128
  void I64(int64_t v);                        // zigzag + LEB128
  void F64(double v);                         // 8-byte LE bit pattern
  void Str(const std::string& s);
  void Str(const char* s);                    // nullptr encodes as an empty marker
  void Blob(const uint8_t* data, size_t len);
  void Time(TimePoint t) { I64(t.ToMicros()); }
  void Dur(Duration d) { I64(d.ToMicros()); }

  // Nestable tagged frames. Every Begin must be matched by an End before Finish().
  void BeginSection(uint32_t tag);
  void EndSection();

  // Appends the CRC32 trailer and returns the finished blob.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> buf_;
  std::vector<size_t> open_;  // offsets of unpatched 4-byte length placeholders
  bool finished_ = false;
};

class SnapshotReader {
 public:
  // Validates magic, version, and the CRC32 trailer up front; throws SnapshotError on
  // any mismatch. The blob must stay alive for the reader's lifetime.
  explicit SnapshotReader(const std::vector<uint8_t>& blob);

  uint8_t U8();
  bool Bool();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  double F64();
  std::string Str();
  std::vector<uint8_t> Blob();
  // An element count: throws SnapshotError(field, ...) when it exceeds Remaining(), since
  // every element takes at least one byte, so a corrupt count never sizes an allocation.
  size_t Count(std::string_view field);
  TimePoint Time() { return TimePoint::FromMicros(I64()); }
  Duration Dur() { return Duration::Micros(I64()); }

  // Enters a section and checks its tag; throws SnapshotError on a tag mismatch or a
  // frame that overruns its parent. LeaveSection verifies the section was consumed
  // exactly (catching schema drift) and throws otherwise.
  void EnterSection(uint32_t expected_tag);
  void LeaveSection();

  // Peeks the tag of the next section without consuming it. Returns false at the end of
  // the enclosing frame.
  bool PeekSection(uint32_t* tag) const;
  // Skips over the next section wholesale.
  void SkipSection();

  bool AtEnd() const { return pos_ == end_; }
  // Bytes left in the enclosing frame: an upper bound on how many more fields it can
  // hold, so a corrupt element count is rejected before anything is sized by it.
  size_t Remaining() const { return (limits_.empty() ? end_ : limits_.back()) - pos_; }

 private:
  void Need(size_t n) const;

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_ = 0;                // payload end (excludes CRC trailer)
  std::vector<size_t> limits_;    // enclosing section end offsets
};

// Enumerates the top-level sections of a finished blob as (tag -> [begin, end) byte
// range within the blob). Used by the property suite to compare two snapshots section by
// section, so a divergence names the guilty subsystem instead of "bytes differ".
std::map<uint32_t, std::pair<size_t, size_t>> SnapshotSectionSpans(
    const std::vector<uint8_t>& blob);

// ---------------------------------------------------------------------------
// Pending-callback restoration

// A serializable description of a pending continuation: which registered restorer
// rebuilds it (kind) plus up to four argument words. Components attach a ResumeKey at
// every cross-component continuation site (work-item completions, frame deliveries,
// page-in waiters); component-internal events are re-armed directly by their owner.
struct ResumeKey {
  uint32_t kind = 0;
  uint32_t n = 0;                 // populated argument count
  std::array<uint64_t, 4> args{};

  static ResumeKey Make(uint32_t kind) { return ResumeKey{kind, 0, {}}; }
  static ResumeKey Make(uint32_t kind, uint64_t a) { return ResumeKey{kind, 1, {a}}; }
  static ResumeKey Make(uint32_t kind, uint64_t a, uint64_t b) {
    return ResumeKey{kind, 2, {a, b}};
  }
  static ResumeKey Make(uint32_t kind, uint64_t a, uint64_t b, uint64_t c) {
    return ResumeKey{kind, 3, {a, b, c}};
  }
  static ResumeKey Make(uint32_t kind, uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    return ResumeKey{kind, 4, {a, b, c, d}};
  }

  bool empty() const { return kind == 0; }
  uint64_t arg(size_t i) const { return args[i]; }

  void SaveTo(SnapshotWriter& w) const;
  static ResumeKey LoadFrom(SnapshotReader& r);
};

// One pending event in the snapshot's kernel manifest.
struct PendingEventInfo {
  uint64_t seq = 0;
  TimePoint when;
};

// Collects the pending events to re-insert during restore, rebuilds keyed callbacks via
// the registered-restorer table, and commits them into the simulator with their original
// sequence numbers after verifying the set matches the snapshot's manifest exactly.
class EventRearm {
 public:
  using Thunk = std::function<void()>;
  using Restorer = std::function<Thunk(const ResumeKey&)>;

  // Registers the builder for one continuation kind. A kind may only be registered once.
  void RegisterRestorer(uint32_t kind, Restorer restorer);

  // Rebuilds the thunk for `key` immediately. Throws SnapshotError on an unknown kind.
  Thunk Build(const ResumeKey& key) const;

  // Re-arms an event whose callback the owning component rebuilt itself. If `out` is
  // non-null it receives the event's new EventId when the plan commits.
  void Schedule(const char* owner, uint64_t seq, TimePoint when, InlineCallback cb,
                EventId* out = nullptr);
  // Re-arms an event whose callback is rebuilt from `key` at commit time (so restorers
  // may be registered after the key is collected).
  void ScheduleKey(const char* owner, uint64_t seq, TimePoint when, const ResumeKey& key,
                   EventId* out = nullptr);

  // Sorts collected events by sequence, verifies they match `manifest` exactly (same
  // count, same (seq, when) pairs), inserts them into `sim`'s queue with their original
  // sequence numbers, and advances the queue's sequence counter to `next_seq`. Throws
  // SnapshotError naming the first divergence (and the owning component, when known).
  void Commit(Simulator& sim, const std::vector<PendingEventInfo>& manifest,
              uint64_t next_seq);

 private:
  struct Entry {
    const char* owner;
    uint64_t seq;
    TimePoint when;
    InlineCallback cb;
    bool keyed;
    ResumeKey key;
    EventId* out;
  };

  std::vector<Entry> entries_;
  std::map<uint32_t, Restorer> restorers_;
};

// ---------------------------------------------------------------------------
// Kernel (Simulator + EventQueue) snapshot support

// Serializes the kernel: virtual clock, events-executed counter, next event sequence,
// and the pending-event manifest (seq, when) in sequence order.
void SaveKernel(SnapshotWriter& w, const Simulator& sim);

// Reads the kernel section saved by SaveKernel.
struct KernelState {
  TimePoint now;
  uint64_t events_executed = 0;
  uint64_t next_seq = 1;
  std::vector<PendingEventInfo> manifest;
};
KernelState LoadKernel(SnapshotReader& r);

// Clears the simulator's queue and rewinds/forwards its clock and counters to the
// snapshot's values. Every construction-time event is dropped; the EventRearm plan
// re-inserts the snapshot's pending set.
void ResetKernel(Simulator& sim, const KernelState& state);

}  // namespace tcs

#endif  // TCS_SRC_SIM_SNAPSHOT_H_
