#include "src/core/checkpoint.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/run_support.h"
#include "src/metrics/latency.h"
#include "src/session/server.h"
#include "src/sim/periodic.h"
#include "src/util/config_error.h"
#include "src/workload/typist.h"

namespace tcs {

namespace {

using namespace run_support;

// Per-user stall instrumentation: the StallDetector keeps Figure-3 aggregates, the
// LatencyRecorder keeps the exact-microsecond per-gap samples that make consolidation
// results byte-comparable. Lives behind a unique_ptr so callbacks hold stable pointers.
struct StallTap {
  explicit StallTap(Duration period) : stalls(period), period_us(period.ToMicros()) {}

  void OnUpdate(TimePoint t) {
    stalls.OnUpdate(t);
    if (have_last) {
      int64_t gap_us = (t - last).ToMicros() - period_us;
      samples.Record(Duration::Micros(std::max<int64_t>(0, gap_us)));
    }
    have_last = true;
    last = t;
  }

  // Checkpoint/restore: both accumulators plus the gap edge. `period_us` is
  // construction config.
  void SaveTo(SnapshotWriter& w) const {
    stalls.SaveTo(w);
    samples.SaveTo(w);
    w.Bool(have_last);
    w.Time(last);
  }
  void LoadFrom(SnapshotReader& r) {
    stalls.LoadFrom(r);
    samples.LoadFrom(r);
    have_last = r.Bool();
    last = r.Time();
  }

  StallDetector stalls;
  LatencyRecorder samples;
  int64_t period_us;
  bool have_last = false;
  TimePoint last;
};

}  // namespace

const char* CheckpointSectionName(uint32_t tag) {
  if (tag == 1) {
    return "kernel";
  }
  if (tag == kCheckpointDriverSection) {
    return "driver";
  }
  return ServerSectionName(tag);
}

struct ConsolidationRun::Impl {
  struct UserRuntime {
    Session* session = nullptr;
    std::unique_ptr<StallTap> tap;
    std::unique_ptr<Typist> typist;
    std::unique_ptr<PeriodicTask> burst_task;
  };

  OsProfile profile;
  ConsolidationOptions options;
  const ObsConfig* obs = nullptr;
  WallClock::time_point t0;
  Simulator sim;
  ServerConfig cfg;
  std::unique_ptr<SloRuntime> slo;
  std::unique_ptr<Server> server;
  std::unique_ptr<SamplerScope> sampler;
  std::vector<UserRuntime> runtimes;
  bool finished = false;
};

ConsolidationRun::ConsolidationRun(const OsProfile& profile,
                                   const ConsolidationOptions& options_in,
                                   const ObsConfig* obs)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.profile = profile;
  im.options = Validated(options_in);
  im.obs = obs;
  im.t0 = WallClock::now();
  const ConsolidationOptions& options = im.options;
  ServerConfig& cfg = im.cfg;
  cfg.seed = options.seed;
  cfg.cpu.processors = options.processors;
  cfg.ram = options.ram;
  cfg.eviction = options.eviction;
  // Gated so the default (no WAN, no degradation) path leaves the config untouched:
  // the fault RNG is serialized into snapshots, and the run stays byte-identical to
  // what RunConsolidation always produced.
  if (options.wan.Any() || options.degrade) {
    ApplyWan(cfg, options.wan, options.degrade, options.seed);
  }
  ApplyObs(cfg, obs);
  im.slo = std::make_unique<SloRuntime>(im.sim, obs);
  im.slo->ApplyTo(cfg);
  AttachSimHook(im.sim, obs);
  im.server = std::make_unique<Server>(im.sim, im.profile, cfg);
  im.sampler = std::make_unique<SamplerScope>(im.sim, obs);
  Server& server = *im.server;
  Simulator& sim = im.sim;
  server.StartDaemons();

  im.runtimes.reserve(static_cast<size_t>(options.users));
  // Login + instrument first: session setup traffic and text-segment sharing happen in
  // login order, exactly as they would on a morning shift start.
  for (int u = 0; u < options.users; ++u) {
    Impl::UserRuntime rt;
    rt.session = &server.Login();
    rt.tap = std::make_unique<StallTap>(options.keystroke_period);
    StallTap* tap = rt.tap.get();
    rt.session->set_on_display_update([tap](TimePoint t) { tap->OnUpdate(t); });
    Session* s = rt.session;
    rt.typist = std::make_unique<Typist>(sim, [&server, s] { server.Keystroke(*s); },
                                         options.keystroke_period);
    rt.typist->Start(options.start_delay +
                     Duration::Micros(options.stagger.ToMicros() * u));
    if (options.burst_cpu > Duration::Zero()) {
      Thread* bt = server.cpu().CreateThread("app-burst", ThreadClass::kBatch,
                                             im.profile.sink_priority);
      Duration burst = options.burst_cpu;
      rt.burst_task = std::make_unique<PeriodicTask>(
          sim, options.burst_period,
          [&server, bt, burst] { server.cpu().PostWork(*bt, burst); });
      rt.burst_task->Start(Duration::Millis((199 * u) % 5000));  // staggered phases
    }
    im.runtimes.push_back(std::move(rt));
  }
  server.StartSinks(options.sinks);

  if (im.slo->active()) {
    // Live p99 is over samples seen so far (a user who hasn't produced two updates yet
    // contributes nothing live); total starvation is a whole-run objective and only
    // scored by FinishRun, so warm-up can't trip it.
    std::vector<Impl::UserRuntime>* runtimes = &im.runtimes;
    im.slo->watchdog()->SetWorstP99Source([runtimes] {
      double worst = 0.0;
      for (const Impl::UserRuntime& rt : *runtimes) {
        worst = std::max(worst, rt.tap->samples.PercentileMs(0.99));
      }
      return worst;
    });
    im.slo->watchdog()->SetStarvationSource([runtimes] {
      int starved = 0;
      for (const Impl::UserRuntime& rt : *runtimes) {
        if (rt.tap->stalls.updates() < 2) {
          ++starved;
        }
      }
      return static_cast<double>(starved) / static_cast<double>(runtimes->size());
    });
    im.slo->watchdog()->SetLinkBacklogSource([&server, &sim] {
      return server.link().BacklogBytesAt(sim.Now()).count();
    });
    im.slo->Start();
  }
}

ConsolidationRun::~ConsolidationRun() = default;

void ConsolidationRun::RunUntil(TimePoint t) { impl_->sim.RunUntil(t); }

void ConsolidationRun::RunToEnd() { RunUntil(end_time()); }

TimePoint ConsolidationRun::end_time() const {
  return TimePoint::Zero() + impl_->options.start_delay + impl_->options.duration;
}

Simulator& ConsolidationRun::sim() { return impl_->sim; }
const Simulator& ConsolidationRun::sim() const { return impl_->sim; }
Server& ConsolidationRun::server() { return *impl_->server; }

bool ConsolidationRun::SloViolated() const {
  return impl_->slo->active() && impl_->slo->watchdog()->violated();
}

int64_t ConsolidationRun::SloViolatedAtUs() const {
  return impl_->slo->active() ? impl_->slo->watchdog()->violated_at_us() : -1;
}

std::vector<uint8_t> ConsolidationRun::Snapshot() const {
  const Impl& im = *impl_;
  SnapshotWriter w;
  SaveKernel(w, im.sim);
  im.server->SaveTo(w);
  w.BeginSection(kCheckpointDriverSection);
  w.U64(im.runtimes.size());
  for (const Impl::UserRuntime& rt : im.runtimes) {
    rt.tap->SaveTo(w);
    rt.typist->SaveTo(w, im.sim);
    w.Bool(rt.burst_task != nullptr);
    if (rt.burst_task != nullptr) {
      rt.burst_task->SaveTo(w, im.sim);
    }
  }
  w.Bool(im.slo->active());
  if (im.slo->active()) {
    im.slo->watchdog()->SaveTo(w);
  }
  PeriodicSampler* sampler = im.sampler->sampler();
  w.Bool(sampler != nullptr);
  if (sampler != nullptr) {
    sampler->SaveTo(w, im.sim);
  }
  w.EndSection();
  return w.Finish();
}

void ConsolidationRun::Restore(const std::vector<uint8_t>& blob) {
  Impl& im = *impl_;
  SnapshotReader r(blob);
  KernelState ks = LoadKernel(r);
  EventRearm plan;
  im.server->RegisterRestorers(plan);
  // Drop every construction-time event; the plan re-inserts the snapshot's pending set
  // with the original (time, sequence) pairs.
  ResetKernel(im.sim, ks);
  im.server->LoadFrom(r, plan);
  r.EnterSection(kCheckpointDriverSection);
  uint64_t users = r.U64();
  if (users != im.runtimes.size()) {
    throw SnapshotError("driver.users",
                        "user count mismatch: snapshot has " + std::to_string(users) +
                            ", this run has " + std::to_string(im.runtimes.size()));
  }
  for (Impl::UserRuntime& rt : im.runtimes) {
    rt.tap->LoadFrom(r);
    rt.typist->LoadFrom(r, plan);
    bool had_burst = r.Bool();
    if (had_burst != (rt.burst_task != nullptr)) {
      throw SnapshotError("driver.burst",
                          "burst task presence mismatch (snapshot from a run with "
                          "different burst options)");
    }
    if (rt.burst_task != nullptr) {
      rt.burst_task->LoadFrom(r, plan, "driver.burst");
    }
  }
  bool had_slo = r.Bool();
  if (had_slo != im.slo->active()) {
    throw SnapshotError("driver.slo", "SLO watchdog presence mismatch");
  }
  if (had_slo) {
    im.slo->watchdog()->LoadFrom(r, plan);
  }
  bool had_sampler = r.Bool();
  PeriodicSampler* sampler = im.sampler->sampler();
  if (had_sampler != (sampler != nullptr)) {
    throw SnapshotError("driver.sampler", "gauge sampler presence mismatch");
  }
  if (had_sampler) {
    sampler->LoadFrom(r, plan);
  }
  r.LeaveSection();
  if (!r.AtEnd()) {
    throw SnapshotError("snapshot.trailing", "bytes remain after the driver section");
  }
  plan.Commit(im.sim, ks.manifest, ks.next_seq);
}

ConsolidationResult ConsolidationRun::Finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw ConfigError("ConsolidationRun", "Finish() called twice");
  }
  im.finished = true;
  const ConsolidationOptions& options = im.options;
  Server& server = *im.server;
  Duration total = options.start_delay + options.duration;

  ConsolidationResult result;
  result.os_name = im.profile.name;
  result.protocol = ProtocolName(im.profile.protocol_kind);
  result.users = options.users;
  result.cpu_utilization = server.cpu().busy_time() / total;
  result.link_utilization = server.link().UtilizationOver(total);
  result.resident_pages = server.pager().frames_used();
  result.total_frames = server.pager().total_frames();
  result.shared_segments = server.pager().shared_segments();
  result.shared_attaches = server.pager().shared_attaches();
  result.page_faults = server.pager().faults();
  result.coalesced_waits = server.pager().coalesced_waits();

  Bytes link_total = server.link().bytes_carried();
  double stall_sum = 0.0;
  for (Impl::UserRuntime& rt : im.runtimes) {
    rt.typist->Stop();
    if (rt.burst_task != nullptr) {
      rt.burst_task->Stop();
    }
    UserStallStats us;
    const StallTap& tap = *rt.tap;
    us.updates = tap.stalls.updates();
    us.avg_stall_ms = tap.stalls.AverageStallAllGaps().ToMillisF();
    us.max_stall_ms = tap.stalls.MaxStall().ToMillisF();
    us.jitter_ms = tap.stalls.Jitter().ToMillisF();
    if (us.updates < 2) {
      // Never saw two updates: total starvation. Score the whole run, so no admission
      // policy can mistake a silent screen for perfect latency.
      us.p50_stall_ms = us.p99_stall_ms = options.duration.ToMillisF();
    } else {
      us.p50_stall_ms = tap.samples.PercentileMs(0.50);
      us.p99_stall_ms = tap.samples.PercentileMs(0.99);
    }
    us.wire_bytes = rt.session->flow().wire_bytes();
    us.link_share = rt.session->flow().ShareOf(link_total);
    us.stall_samples_us = tap.samples.samples_us();
    stall_sum += us.avg_stall_ms;
    result.worst_stall_ms = std::max(result.worst_stall_ms, us.max_stall_ms);
    result.worst_p99_stall_ms = std::max(result.worst_p99_stall_ms, us.p99_stall_ms);
    result.per_user.push_back(std::move(us));
  }
  result.avg_stall_ms = stall_sum / static_cast<double>(options.users);
  CollectBlame(result.blame, im.obs);
  im.slo->Finish(result.slo);
  FinishRun(result.run, im.sim, im.t0);
  return result;
}

ConsolidationResult ResumeConsolidation(const OsProfile& profile,
                                        const ConsolidationOptions& options,
                                        const ObsConfig* obs,
                                        const std::vector<uint8_t>& blob) {
  ConsolidationRun run(profile, options, obs);
  run.Restore(blob);
  run.RunToEnd();
  return run.Finish();
}

CapacityResult RunServerCapacityCheckpointed(const OsProfile& profile,
                                             const CapacityOptions& options,
                                             CapacityCheckpointCache& cache,
                                             const ObsConfig* obs) {
  // RunServerCapacity's search, but each candidate's prefix — login storm and daemon
  // warm-up, up to 1 ms before the first typist keystroke — is snapshotted on first
  // evaluation and forked from on every later one. The prefix point precedes the first
  // minted interaction, so a fork's fresh attribution engine is exactly the cold run's.
  return SearchCapacity(
      profile, options, obs,
      [&profile, &cache](const ConsolidationOptions& copt, const ObsConfig* probe_obs) {
        ConsolidationRun run(profile, copt, probe_obs);
        Duration prefix = copt.start_delay - Duration::Millis(1);
        if (prefix > Duration::Zero()) {
          auto cached = cache.prefix.find(copt.users);
          if (cached == cache.prefix.end()) {
            ++cache.misses;
            run.RunUntil(TimePoint::Zero() + prefix);
            cache.prefix.emplace(copt.users, run.Snapshot());
          } else {
            ++cache.hits;
            run.Restore(cached->second);
          }
        }
        run.RunToEnd();
        return run.Finish();
      });
}

}  // namespace tcs
