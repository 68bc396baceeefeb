#include "src/mem/disk.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "src/util/config_error.h"

namespace tcs {

DiskConfig Validated(DiskConfig config) {
  if (config.transfer_rate.bps() <= 0) {
    throw ConfigError("DiskConfig.transfer_rate", "transfer rate must be positive");
  }
  if (config.page_size.count() <= 0) {
    throw ConfigError("DiskConfig.page_size", "page size must be positive");
  }
  if (config.positioning_min < Duration::Zero() ||
      config.positioning_mean < Duration::Zero()) {
    throw ConfigError("DiskConfig.positioning", "positioning cost cannot be negative");
  }
  if (config.sequential_positioning_factor < 0.0 ||
      config.sequential_positioning_factor > 1.0) {
    throw ConfigError("DiskConfig.sequential_positioning_factor",
                      "sequential positioning factor must be in [0, 1]");
  }
  return config;
}

Disk::Disk(Simulator& sim, Rng rng, DiskConfig config)
    : sim_(sim), rng_(rng), config_(Validated(config)) {}

Duration Disk::ServiceTime(int pages) {
  assert(pages > 0);
  double pos_ms = rng_.NextNormal(config_.positioning_mean.ToMillisF(),
                                  config_.positioning_stddev.ToMillisF());
  Duration positioning =
      std::max(config_.positioning_min, Duration::Micros(static_cast<int64_t>(pos_ms * 1e3)));
  Duration transfer = TransmissionDelay(config_.page_size, config_.transfer_rate);
  Duration service = positioning + transfer;
  if (pages > 1) {
    Duration extra_pos = positioning * config_.sequential_positioning_factor;
    service += (transfer + extra_pos) * (pages - 1);
  }
  return service;
}

void Disk::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    trace_track_ = tracer_->RegisterTrack("mem", "disk");
  }
}

void Disk::Enqueue(const char* op, int pages, InlineCallback done, ResumeKey key) {
  Duration service = ServiceTime(pages);
  if (fault_ != nullptr) {
    // Stalls and retried I/O errors lengthen this request's occupancy of the device,
    // which queues behind-it requests too — exactly how a degraded spindle feels.
    service += fault_->Perturb(service);
  }
  TimePoint start = std::max(sim_.Now(), busy_until_);
  busy_until_ = start + service;
  total_busy_ += service;
  if (tracer_ != nullptr) {
    tracer_->Span(TraceCategory::kMem, op, trace_track_, start, busy_until_, "pages",
                  static_cast<int64_t>(pages), "queue_us", (start - sim_.Now()).ToMicros());
  }
  if (done) {
    pending_.push_back(PendingIo{EventId(), key});
    pending_.back().ev =
        sim_.At(busy_until_, [this, fn = std::move(done)]() mutable {
          assert(!pending_.empty());
          pending_.erase(pending_.begin());
          fn();
        });
  }
}

void Disk::Read(int pages, InlineCallback done, ResumeKey key) {
  ++reads_;
  pages_read_ += pages;
  Enqueue("disk-read", pages, std::move(done), key);
}

void Disk::Write(int pages, InlineCallback done, ResumeKey key) {
  ++writes_;
  pages_written_ += pages;
  Enqueue("disk-write", pages, std::move(done), key);
}

void Disk::SaveTo(SnapshotWriter& w) const {
  for (uint64_t word : rng_.state()) {
    w.U64(word);
  }
  w.Time(busy_until_);
  w.I64(reads_);
  w.I64(writes_);
  w.I64(pages_read_);
  w.I64(pages_written_);
  w.Dur(total_busy_);
  w.U64(pending_.size());
  for (const PendingIo& io : pending_) {
    uint64_t seq = 0;
    TimePoint when;
    if (!sim_.PendingInfo(io.ev, &seq, &when)) {
      throw SnapshotError("disk.pending", "completion record is stale");
    }
    if (io.key.empty()) {
      throw SnapshotError("disk.pending",
                          "outstanding I/O completion has no ResumeKey; attach one at the "
                          "Read/Write site to make this workload checkpointable");
    }
    w.U64(seq);
    w.Time(when);
    io.key.SaveTo(w);
  }
}

void Disk::LoadFrom(SnapshotReader& r, EventRearm& plan) {
  std::array<uint64_t, 4> state;
  for (uint64_t& word : state) {
    word = r.U64();
  }
  rng_.set_state(state);
  busy_until_ = r.Time();
  reads_ = r.I64();
  writes_ = r.I64();
  pages_read_ = r.I64();
  pages_written_ = r.I64();
  total_busy_ = r.Dur();
  pending_.clear();
  size_t n = r.Count("disk.pending");
  pending_.reserve(n);  // EventId out-pointers below must stay stable
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t seq = r.U64();
    TimePoint when = r.Time();
    ResumeKey key = ResumeKey::LoadFrom(r);
    pending_.push_back(PendingIo{EventId(), key});
    plan.Schedule(
        "disk", seq, when,
        [this, thunk = plan.Build(key)] {
          assert(!pending_.empty());
          pending_.erase(pending_.begin());
          thunk();
        },
        &pending_.back().ev);
  }
}

}  // namespace tcs
