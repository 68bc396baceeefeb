#include "src/sim/snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/sim/simulator.h"

namespace tcs {

namespace {

void PutFixed32(std::vector<uint8_t>& buf, uint32_t v) {
  buf.push_back(static_cast<uint8_t>(v));
  buf.push_back(static_cast<uint8_t>(v >> 8));
  buf.push_back(static_cast<uint8_t>(v >> 16));
  buf.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// CRC32 (IEEE 802.3, reflected), slicing-by-8: t[0] is the bytewise table and t[k]
// advances a byte's contribution through k further zero bytes, so eight table lookups
// fold eight input bytes per step. Tables are computed once at startup.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables x;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      x.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        x.t[k][i] = (x.t[k - 1][i] >> 8) ^ x.t[0][x.t[k - 1][i] & 0xFFu];
      }
    }
    return x;
  }();
  return tables;
}

}  // namespace

uint32_t SnapshotCrc32(const uint8_t* data, size_t len) {
  const auto& t = Crc32Table().t;
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = GetFixed32(data) ^ c;
    uint32_t hi = GetFixed32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter() {
  PutFixed32(buf_, kSnapshotMagic);
  U64(kSnapshotVersion);
}

void SnapshotWriter::U64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void SnapshotWriter::I64(int64_t v) {
  U64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void SnapshotWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

void SnapshotWriter::Str(const std::string& s) {
  U64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void SnapshotWriter::Str(const char* s) {
  if (s == nullptr) {
    U64(0);
    return;
  }
  size_t len = std::strlen(s);
  U64(len);
  buf_.insert(buf_.end(), s, s + len);
}

void SnapshotWriter::Blob(const uint8_t* data, size_t len) {
  U64(len);
  buf_.insert(buf_.end(), data, data + len);
}

void SnapshotWriter::BeginSection(uint32_t tag) {
  U32(tag);
  open_.push_back(buf_.size());
  PutFixed32(buf_, 0);  // length placeholder, patched by EndSection
}

void SnapshotWriter::EndSection() {
  if (open_.empty()) {
    throw SnapshotError("SnapshotWriter", "EndSection without an open section");
  }
  size_t at = open_.back();
  open_.pop_back();
  uint32_t len = static_cast<uint32_t>(buf_.size() - (at + 4));
  buf_[at] = static_cast<uint8_t>(len);
  buf_[at + 1] = static_cast<uint8_t>(len >> 8);
  buf_[at + 2] = static_cast<uint8_t>(len >> 16);
  buf_[at + 3] = static_cast<uint8_t>(len >> 24);
}

std::vector<uint8_t> SnapshotWriter::Finish() {
  if (!open_.empty()) {
    throw SnapshotError("SnapshotWriter", "Finish with an unclosed section");
  }
  if (finished_) {
    throw SnapshotError("SnapshotWriter", "Finish called twice");
  }
  finished_ = true;
  uint32_t crc = SnapshotCrc32(buf_.data(), buf_.size());
  PutFixed32(buf_, crc);
  return std::move(buf_);
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::SnapshotReader(const std::vector<uint8_t>& blob) : data_(blob.data()) {
  if (blob.size() < 9) {  // magic + at least 1 version byte + CRC
    throw SnapshotError("Snapshot", "blob too short to be a snapshot");
  }
  uint32_t crc_stored = GetFixed32(blob.data() + blob.size() - 4);
  uint32_t crc_actual = SnapshotCrc32(blob.data(), blob.size() - 4);
  if (crc_stored != crc_actual) {
    throw SnapshotError("Snapshot.crc", "checksum mismatch (corrupt or truncated blob)");
  }
  end_ = blob.size() - 4;
  if (GetFixed32(data_) != kSnapshotMagic) {
    throw SnapshotError("Snapshot.magic", "not a snapshot blob");
  }
  pos_ = 4;
  uint64_t version = U64();
  if (version != kSnapshotVersion) {
    throw SnapshotError("Snapshot.version",
                        "unsupported snapshot version " + std::to_string(version) +
                            " (this build reads version " +
                            std::to_string(kSnapshotVersion) + ")");
  }
}

void SnapshotReader::Need(size_t n) const {
  size_t limit = limits_.empty() ? end_ : limits_.back();
  if (pos_ + n > limit) {
    throw SnapshotError("Snapshot", "truncated field (frame overrun)");
  }
}

size_t SnapshotReader::Count(std::string_view field) {
  uint64_t n = U64();
  if (n > Remaining()) {
    throw SnapshotError(std::string(field), "element count " + std::to_string(n) +
                                                " overruns the " +
                                                std::to_string(Remaining()) +
                                                " bytes left in its section");
  }
  return static_cast<size_t>(n);
}

uint8_t SnapshotReader::U8() {
  Need(1);
  return data_[pos_++];
}

bool SnapshotReader::Bool() {
  uint8_t v = U8();
  if (v > 1) {
    throw SnapshotError("Snapshot", "malformed bool");
  }
  return v != 0;
}

uint32_t SnapshotReader::U32() {
  uint64_t v = U64();
  if (v > UINT32_MAX) {
    throw SnapshotError("Snapshot", "varint out of range for u32");
  }
  return static_cast<uint32_t>(v);
}

uint64_t SnapshotReader::U64() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    Need(1);
    uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0xFE) != 0) {
      throw SnapshotError("Snapshot", "varint overflow");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
    if (shift > 63) {
      throw SnapshotError("Snapshot", "varint too long");
    }
  }
}

int64_t SnapshotReader::I64() {
  uint64_t v = U64();
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

double SnapshotReader::F64() {
  Need(8);
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t len = U64();
  Need(len);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

std::vector<uint8_t> SnapshotReader::Blob() {
  uint64_t len = U64();
  Need(len);
  std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return b;
}

void SnapshotReader::EnterSection(uint32_t expected_tag) {
  // Peek the tag before committing the position: a mismatch throws without
  // consuming, so the caller can still SkipSection past an unexpected frame.
  uint32_t tag = 0;
  if (!PeekSection(&tag)) {
    throw SnapshotError("Snapshot.section",
                        "expected section tag " + std::to_string(expected_tag) +
                            ", found end of frame");
  }
  if (tag != expected_tag) {
    throw SnapshotError("Snapshot.section",
                        "expected section tag " + std::to_string(expected_tag) +
                            ", found " + std::to_string(tag));
  }
  (void)U32();  // commit the tag
  Need(4);
  uint32_t len = GetFixed32(data_ + pos_);
  pos_ += 4;
  size_t limit = limits_.empty() ? end_ : limits_.back();
  if (pos_ + len > limit) {
    throw SnapshotError("Snapshot.section", "section overruns its frame");
  }
  limits_.push_back(pos_ + len);
}

void SnapshotReader::LeaveSection() {
  if (limits_.empty()) {
    throw SnapshotError("Snapshot.section", "LeaveSection without an open section");
  }
  if (pos_ != limits_.back()) {
    throw SnapshotError("Snapshot.section",
                        "section not fully consumed (schema drift: " +
                            std::to_string(limits_.back() - pos_) + " bytes left)");
  }
  limits_.pop_back();
}

bool SnapshotReader::PeekSection(uint32_t* tag) const {
  size_t limit = limits_.empty() ? end_ : limits_.back();
  if (pos_ >= limit) {
    return false;
  }
  // Decode the tag varint without committing the position.
  size_t p = pos_;
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (p >= limit || shift > 63) {
      throw SnapshotError("Snapshot.section", "truncated section tag");
    }
    uint8_t byte = data_[p++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  if (v > UINT32_MAX) {
    throw SnapshotError("Snapshot.section", "section tag out of range");
  }
  *tag = static_cast<uint32_t>(v);
  return true;
}

void SnapshotReader::SkipSection() {
  (void)U32();  // tag
  Need(4);
  uint32_t len = GetFixed32(data_ + pos_);
  pos_ += 4;
  Need(len);
  pos_ += len;
}

std::map<uint32_t, std::pair<size_t, size_t>> SnapshotSectionSpans(
    const std::vector<uint8_t>& blob) {
  SnapshotReader validate(blob);  // validates magic/version/CRC before the raw scan
  std::map<uint32_t, std::pair<size_t, size_t>> spans;
  // Scan the raw bytes: 4 magic bytes, version varint, then (tag varint, fixed32 length,
  // body) frames until the CRC trailer.
  size_t pos = 4;
  while (blob[pos] & 0x80) {
    ++pos;
  }
  ++pos;
  size_t end = blob.size() - 4;
  while (pos < end) {
    uint64_t t = 0;
    int shift = 0;
    while (true) {
      if (pos >= end) {
        throw SnapshotError("Snapshot.section", "truncated top-level tag");
      }
      uint8_t byte = blob[pos++];
      t |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        break;
      }
      shift += 7;
    }
    if (pos + 4 > end) {
      throw SnapshotError("Snapshot.section", "truncated top-level length");
    }
    uint32_t len = GetFixed32(blob.data() + pos);
    pos += 4;
    if (pos + len > end) {
      throw SnapshotError("Snapshot.section", "top-level section overruns blob");
    }
    spans[static_cast<uint32_t>(t)] = {pos, pos + len};
    pos += len;
  }
  return spans;
}

// ---------------------------------------------------------------------------
// ResumeKey

void ResumeKey::SaveTo(SnapshotWriter& w) const {
  w.U32(kind);
  w.U32(n);
  for (uint32_t i = 0; i < n; ++i) {
    w.U64(args[i]);
  }
}

ResumeKey ResumeKey::LoadFrom(SnapshotReader& r) {
  ResumeKey key;
  key.kind = r.U32();
  key.n = r.U32();
  if (key.n > key.args.size()) {
    throw SnapshotError("ResumeKey", "argument count out of range");
  }
  for (uint32_t i = 0; i < key.n; ++i) {
    key.args[i] = r.U64();
  }
  return key;
}

// ---------------------------------------------------------------------------
// EventRearm

void EventRearm::RegisterRestorer(uint32_t kind, Restorer restorer) {
  auto [it, inserted] = restorers_.emplace(kind, std::move(restorer));
  if (!inserted) {
    throw SnapshotError("EventRearm", "restorer kind " + std::to_string(kind) +
                                          " registered twice");
  }
}

EventRearm::Thunk EventRearm::Build(const ResumeKey& key) const {
  auto it = restorers_.find(key.kind);
  if (it == restorers_.end()) {
    throw SnapshotError("EventRearm",
                        "no restorer registered for resume kind " +
                            std::to_string(key.kind));
  }
  return it->second(key);
}

void EventRearm::Schedule(const char* owner, uint64_t seq, TimePoint when,
                          InlineCallback cb, EventId* out) {
  entries_.push_back(Entry{owner, seq, when, std::move(cb), false, ResumeKey{}, out});
}

void EventRearm::ScheduleKey(const char* owner, uint64_t seq, TimePoint when,
                             const ResumeKey& key, EventId* out) {
  entries_.push_back(Entry{owner, seq, when, InlineCallback(), true, key, out});
}

void EventRearm::Commit(Simulator& sim, const std::vector<PendingEventInfo>& manifest,
                        uint64_t next_seq) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  for (size_t i = 0; i + 1 < entries_.size(); ++i) {
    if (entries_[i].seq == entries_[i + 1].seq) {
      throw SnapshotError(
          "EventRearm",
          "event seq " + std::to_string(entries_[i].seq) + " re-armed twice (owners: " +
              entries_[i].owner + ", " + entries_[i + 1].owner + ")");
    }
  }
  if (entries_.size() != manifest.size()) {
    // Find the first divergence for a pointed message.
    size_t n = std::min(entries_.size(), manifest.size());
    std::string detail;
    for (size_t i = 0; i < n; ++i) {
      if (entries_[i].seq != manifest[i].seq) {
        detail = "; first divergence at index " + std::to_string(i) + ": re-armed seq " +
                 std::to_string(entries_[i].seq) + " (owner " + entries_[i].owner +
                 ") vs manifest seq " + std::to_string(manifest[i].seq);
        break;
      }
    }
    if (detail.empty() && entries_.size() > manifest.size()) {
      detail = "; extra re-armed seq " + std::to_string(entries_[n].seq) + " (owner " +
               std::string(entries_[n].owner) + ")";
    } else if (detail.empty() && manifest.size() > entries_.size()) {
      detail = "; missing manifest seq " + std::to_string(manifest[n].seq);
    }
    throw SnapshotError("EventRearm",
                        "re-armed " + std::to_string(entries_.size()) +
                            " events but snapshot manifest holds " +
                            std::to_string(manifest.size()) + detail);
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const PendingEventInfo& m = manifest[i];
    if (e.seq != m.seq || e.when != m.when) {
      throw SnapshotError(
          "EventRearm", "re-armed event (seq " + std::to_string(e.seq) + ", t=" +
                            std::to_string(e.when.ToMicros()) + "us, owner " + e.owner +
                            ") does not match manifest entry (seq " +
                            std::to_string(m.seq) + ", t=" +
                            std::to_string(m.when.ToMicros()) + "us)");
    }
    if (e.seq >= next_seq) {
      throw SnapshotError("EventRearm", "pending event seq " + std::to_string(e.seq) +
                                            " is not below the kernel's next_seq");
    }
  }
  for (Entry& e : entries_) {
    InlineCallback cb = e.keyed ? InlineCallback([thunk = Build(e.key)]() { thunk(); })
                                : std::move(e.cb);
    EventId id = sim.RestoreSchedule(e.when, e.seq, std::move(cb));
    if (e.out != nullptr) {
      *e.out = id;
    }
  }
  sim.RestoreNextSeq(next_seq);
  entries_.clear();
}

// ---------------------------------------------------------------------------
// Kernel snapshot

namespace {
// Tags inside the kernel section.
constexpr uint32_t kKernelTag = 1;
}  // namespace

void SaveKernel(SnapshotWriter& w, const Simulator& sim) {
  w.BeginSection(kKernelTag);
  w.Time(sim.Now());
  w.U64(sim.events_executed());
  w.U64(sim.next_event_seq());
  std::vector<PendingEventInfo> pending;
  sim.ForEachPending([&pending](uint64_t seq, TimePoint when) {
    pending.push_back(PendingEventInfo{seq, when});
  });
  std::sort(pending.begin(), pending.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              return a.seq < b.seq;
            });
  w.U64(pending.size());
  for (const PendingEventInfo& p : pending) {
    w.U64(p.seq);
    w.Time(p.when);
  }
  w.EndSection();
}

KernelState LoadKernel(SnapshotReader& r) {
  KernelState state;
  r.EnterSection(kKernelTag);
  state.now = r.Time();
  state.events_executed = r.U64();
  state.next_seq = r.U64();
  size_t n = r.Count("Snapshot.kernel");
  state.manifest.reserve(n);
  uint64_t prev_seq = 0;
  for (uint64_t i = 0; i < n; ++i) {
    PendingEventInfo p;
    p.seq = r.U64();
    p.when = r.Time();
    if (p.seq == 0 || (i > 0 && p.seq <= prev_seq) || p.seq >= state.next_seq) {
      throw SnapshotError("Snapshot.kernel", "pending-event manifest out of order");
    }
    prev_seq = p.seq;
    state.manifest.push_back(p);
  }
  r.LeaveSection();
  return state;
}

void ResetKernel(Simulator& sim, const KernelState& state) {
  sim.RestoreReset(state.now, state.events_executed);
}

}  // namespace tcs
