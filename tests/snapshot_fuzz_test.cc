// Hostile-blob fuzzing for the snapshot layer, meant to run under ASan/UBSan.
//
// Every mutation of a valid snapshot — truncation at any length, any single bit flip,
// version skew, or arbitrary garbage — must surface as a thrown SnapshotError (or its
// ConfigError base), never as a crash, hang, over-read, or silent partial restore. Bit
// flips and truncations die at the reader's up-front CRC check; to reach the deeper
// restore paths the test also re-seals mutated blobs with a freshly computed CRC so the
// section/manifest/topology validation has to reject them itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/session/os_profile.h"
#include "src/sim/random.h"
#include "src/sim/snapshot.h"

namespace tcs {
namespace {

// Local CRC32 (IEEE 802.3, reflected) so mutated blobs can be re-sealed and the
// deeper validation layers exercised. Matches the snapshot trailer's polynomial.
uint32_t Crc32(const uint8_t* data, size_t len) {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void Reseal(std::vector<uint8_t>& blob) {
  uint32_t crc = Crc32(blob.data(), blob.size() - 4);
  blob[blob.size() - 4] = static_cast<uint8_t>(crc);
  blob[blob.size() - 3] = static_cast<uint8_t>(crc >> 8);
  blob[blob.size() - 2] = static_cast<uint8_t>(crc >> 16);
  blob[blob.size() - 1] = static_cast<uint8_t>(crc >> 24);
}

ConsolidationOptions SmallRun() {
  ConsolidationOptions o;
  o.users = 2;
  o.duration = Duration::Seconds(2);
  o.seed = 9;
  o.ram = Bytes::MiB(48);
  o.burst_cpu = Duration::Millis(100);
  o.burst_period = Duration::Seconds(2);
  return o;
}

std::vector<uint8_t> MakeBlob() {
  ConsolidationRun run(OsProfile::Tse(), SmallRun());
  run.RunUntil(TimePoint::Zero() + Duration::Millis(1500));
  return run.Snapshot();
}

const std::vector<uint8_t>& Blob() {
  static const std::vector<uint8_t> blob = MakeBlob();
  return blob;
}

// Restore must throw SnapshotError (or at worst its ConfigError base); anything else —
// another exception type, or no throw at all — is a verdict failure, and memory errors
// are caught by the sanitizers this test runs under in CI.
void ExpectRejected(const std::vector<uint8_t>& blob, const std::string& what) {
  try {
    ConsolidationRun target(OsProfile::Tse(), SmallRun());
    target.Restore(blob);
    ADD_FAILURE() << what << ": restore accepted a corrupt blob";
  } catch (const ConfigError&) {
    // Expected: SnapshotError derives from ConfigError.
  }
}

TEST(SnapshotFuzz, SanityValidBlobRestores) {
  ConsolidationRun target(OsProfile::Tse(), SmallRun());
  target.Restore(Blob());  // must not throw
}

TEST(SnapshotFuzz, EveryTruncationLengthIsRejected) {
  const std::vector<uint8_t>& blob = Blob();
  size_t step = std::max<size_t>(1, blob.size() / 211);
  for (size_t len = 0; len < blob.size(); len += step) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + static_cast<ptrdiff_t>(len));
    ExpectRejected(cut, "truncated to " + std::to_string(len));
  }
  // The off-by-one neighborhood of the trailer, exhaustively.
  for (size_t drop = 1; drop <= 8 && drop < blob.size(); ++drop) {
    std::vector<uint8_t> cut(blob.begin(), blob.end() - static_cast<ptrdiff_t>(drop));
    ExpectRejected(cut, "trailer minus " + std::to_string(drop));
  }
}

TEST(SnapshotFuzz, EveryBitFlipIsRejected) {
  const std::vector<uint8_t>& blob = Blob();
  // ~400 sampled positions x one pseudorandom bit each; the CRC trailer itself is
  // included (a flipped checksum must also fail).
  Rng rng(0xF112);
  size_t step = std::max<size_t>(1, blob.size() / 397);
  for (size_t at = 0; at < blob.size(); at += step) {
    std::vector<uint8_t> mut = blob;
    mut[at] ^= static_cast<uint8_t>(1u << rng.NextInt(0, 7));
    ExpectRejected(mut, "bit flip at " + std::to_string(at));
  }
}

TEST(SnapshotFuzz, VersionSkewIsRejectedEvenWithValidCrc) {
  static_assert(kSnapshotVersion > 1 && kSnapshotVersion < 0x7f,
                "the version is a single-byte varint with an older format below it");
  std::vector<uint8_t> mut = Blob();
  // Header layout: fixed32 magic, then the format version as a LEB128 varint at
  // offset 4 (a single byte while the version is below 128).
  ASSERT_EQ(mut[4], kSnapshotVersion);
  mut[4] = static_cast<uint8_t>(kSnapshotVersion + 1);
  Reseal(mut);
  ExpectRejected(mut, "newer-version blob");

  // A blob of the previous format version: no compatibility shims, even with a valid
  // CRC.
  mut[4] = 1;
  Reseal(mut);
  ExpectRejected(mut, "version 1 blob");
  try {
    SnapshotReader reader(mut);
    ADD_FAILURE() << "reader accepted a version 1 blob";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.field(), "Snapshot.version");
  }

  mut[4] = 0x81;  // multi-byte varint: version 128+
  Reseal(mut);
  ExpectRejected(mut, "varint-overflowing version");
}

TEST(SnapshotFuzz, ResealedPayloadCorruptionIsRejected) {
  const std::vector<uint8_t>& blob = Blob();
  Rng rng(0xC0FFEE);
  // Byte-level corruption past the CRC: section tags, lengths, counts, and values get
  // hit; the section framing and the restore-time manifest/topology checks must catch
  // what the checksum no longer can.
  size_t step = std::max<size_t>(1, blob.size() / 211);
  for (size_t at = 5; at + 4 < blob.size(); at += step) {
    std::vector<uint8_t> mut = blob;
    mut[at] ^= static_cast<uint8_t>(1u + rng.NextInt(0, 254));
    Reseal(mut);
    try {
      ConsolidationRun target(OsProfile::Tse(), SmallRun());
      target.Restore(mut);
      // A mutation that lands in serialized *state* (an RNG word, a counter) can
      // legitimately restore: state values are data, not structure. Structural damage
      // must throw, and sanitizers police memory safety either way.
    } catch (const ConfigError&) {
      // Expected for structural damage.
    }
  }
}

TEST(SnapshotFuzz, GarbageBlobsAreRejected) {
  Rng rng(0xBAD5EED);
  for (size_t len : {0u, 1u, 4u, 8u, 9u, 64u, 4096u}) {
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    ExpectRejected(junk, "garbage of length " + std::to_string(len));
  }
  // Correct magic + version + valid CRC over an empty body: structurally sealed but
  // missing every section.
  SnapshotWriter w;
  std::vector<uint8_t> empty = w.Finish();
  ExpectRejected(empty, "sealed empty body");
}

TEST(SnapshotFuzz, WrongShapeBlobIsRejected) {
  std::vector<uint8_t> blob = Blob();  // 2 users, bursts on
  ConsolidationOptions other = SmallRun();
  other.users = 3;
  ConsolidationRun target(OsProfile::Tse(), other);
  EXPECT_THROW(target.Restore(blob), SnapshotError);
}

}  // namespace
}  // namespace tcs
