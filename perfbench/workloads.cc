// The four benchmark workloads. Each drives tcs only through its public entry points
// (ConsolidationRun, RunServerCapacity, and the layer objects reachable from
// ConsolidationRun::server()/sim()) and checks its simulated output on every iteration.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/checkpoint.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/proto/rdp_protocol.h"
#include "src/session/server.h"

namespace perfbench {
namespace {

using namespace tcs;

// 512 TSE/RDP users on the 10 Mbps LAN, every login resident, typing at ~5 chars/s
// after a ~104 ms login ramp.
ConsolidationOptions Lan512(uint64_t seed) {
  ConsolidationOptions o;
  o.users = 512;
  o.duration = Duration::Seconds(60);
  o.seed = seed;
  o.ram = Bytes::MiB(4096);
  o.keystroke_period = Duration::Millis(200);
  o.stagger = Duration::Micros(104000 / o.users);
  return o;
}

// 64 TSE users behind the satellite WAN profile with degradation armed, in 384 MiB:
// about 80% of what the logins need, so the pager faults and evicts throughout.
ConsolidationOptions WanPaging64(uint64_t seed) {
  ConsolidationOptions o;
  o.users = 64;
  o.duration = Duration::Seconds(60);
  o.seed = seed;
  o.ram = Bytes::MiB(384);
  o.keystroke_period = Duration::Millis(200);
  o.wan = WanProfileByName("satellite");
  o.degrade = true;
  return o;
}

// `tcsctl capacity`'s defaults: 16-user ceiling, 64 MiB, 30 s probes, 300 ms bursts
// every 5 s, one configuration per OS seeded as the sweep seeds it.
CapacityOptions CapacitySearch(uint64_t seed, uint64_t config_index) {
  CapacityOptions c;
  c.max_users = 16;
  c.behavior.duration = Duration::Seconds(30);
  c.behavior.burst_cpu = Duration::Millis(300);
  c.behavior.burst_period = Duration::Millis(5000);
  c.behavior.ram = Bytes::MiB(64);
  c.behavior.seed = SweepSeed(seed, config_index);
  return c;
}

// 64 LAN users with bursts that overload the CPU, so the worst user's live p99 crosses
// the perception threshold partway through the run.
ConsolidationOptions Rewind64(uint64_t seed) {
  ConsolidationOptions o;
  o.users = 64;
  o.duration = Duration::Seconds(30);
  o.seed = seed;
  o.ram = Bytes::MiB(4096);
  o.keystroke_period = Duration::Millis(200);
  o.burst_cpu = Duration::Millis(300);
  o.burst_period = Duration::Millis(5000);
  return o;
}

constexpr Duration kCheckpointEvery = Duration::Millis(250);
constexpr int64_t kRewindMs = 1000;

// Reads the layer counters off a finished run's server and checks the conservation
// ledgers. Returns the first ledger that does not reconcile, or "".
std::string ReadServer(Server& s, const LatencyAttribution* attribution, LayerStats* st) {
  Link& link = s.link();
  ReliableChannel* rc = s.reliable();
  if (st != nullptr) {
    Pager& pager = s.pager();
    st->mem_faults += pager.faults();
    st->mem_evictions += pager.evictions();
    st->mem_disk_pages_read += s.disk().pages_read();
    st->mem_coalesced_waits += pager.coalesced_waits();
    st->mem_frames_used += static_cast<int64_t>(pager.frames_used());
    st->mem_total_frames += static_cast<int64_t>(pager.total_frames());
    st->cpu_busy_s += s.cpu().busy_time().ToSecondsF();
    st->net_frames_sent += link.frames_sent();
    st->net_frames_lost += link.frames_lost();
    st->net_wan_queue_drops += link.wan_queue_drops();
    if (rc != nullptr) {
      st->net_retransmissions += rc->retransmissions();
      st->net_frames_shed += rc->frames_shed();
    }
    st->proto_messages += s.tap().total_messages();
    for (const auto& session : s.sessions()) {
      if (auto* rdp = dynamic_cast<const RdpProtocol*>(&session->protocol())) {
        st->proto_cache_hits += rdp->bitmap_cache().hits();
        st->proto_cache_lookups += rdp->bitmap_cache().lookups();
      }
    }
    if (attribution != nullptr) {
      st->obs_interactions += attribution->committed();
    }
  }
  if (link.frames_sent() != link.frames_delivered() + link.frames_lost()) {
    return "link ledger: frames sent != delivered + lost";
  }
  if (rc != nullptr && link.frames_sent() != rc->frames_sent() + rc->retransmissions()) {
    return "reliable ledger: link attempts != originals + retransmissions";
  }
  if (attribution != nullptr && attribution->accounting_mismatches() != 0) {
    return "attribution: stage sums != end-to-end latency";
  }
  return "";
}

// Set-up is the median of kSetupRepeats constructions of the same run: the one the
// operation uses plus extra ones built and discarded after it, so one construction's
// page faults or allocator state (after the previous operation freed its memory) do not
// decide it. The extra constructions are outside run_s.
constexpr int kSetupRepeats = 5;

// Constructor times of `n` runs of `o`, each discarded at once. Each gets its own
// attribution engine when `shape` has one; other observers are shared configuration.
std::vector<double> ExtraSetups(const OsProfile& profile, const ConsolidationOptions& o,
                                const ObsConfig& shape, int n) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    LatencyAttribution attribution;
    ObsConfig obs = shape;
    if (shape.attribution != nullptr) {
      obs.attribution = &attribution;
    }
    Clock::time_point t0 = Clock::now();
    ConsolidationRun run(profile, o, &obs);
    times.push_back(SecondsSince(t0));
  }
  return times;
}

// The set-up metric of an operation whose own constructor took `used_s`.
double SetupMedian(const OsProfile& profile, const ConsolidationOptions& o,
                   const ObsConfig& shape, double used_s) {
  std::vector<double> times = ExtraSetups(profile, o, shape, kSetupRepeats - 1);
  times.push_back(used_s);
  return Median(std::move(times));
}

void Fail(Iteration& it, const std::string& why) {
  if (it.ok) {
    it.ok = false;
    it.error = why;
  }
}

Iteration RunLan512(uint64_t seed, LayerStats* traced) {
  return RunConsolidationOp(OsProfile::Tse(), Lan512(seed), traced);
}

Iteration RunWanPaging64(uint64_t seed, LayerStats* traced) {
  return RunConsolidationOp(OsProfile::Tse(), WanPaging64(seed), traced);
}

OsProfile CapacityProfile(size_t i) { return i == 0 ? OsProfile::Tse() : OsProfile::LinuxX(); }

Iteration RunCapacity(uint64_t seed, LayerStats* traced) {
  Iteration it;
  // Set-up: probes of the search's first candidate shape (N = 8 of 16), built and
  // discarded before the search; the search's own probe construction stays in run_s.
  {
    ConsolidationOptions first = CapacitySearch(seed, 0).behavior;
    first.users = 8;
    LatencyAttribution attribution;
    ObsConfig shape;
    shape.attribution = &attribution;
    it.setup_s = Median(ExtraSetups(OsProfile::Tse(), first, shape, kSetupRepeats));
  }
  Clock::time_point t0 = Clock::now();
  std::vector<CapacityResult> results;
  for (size_t i = 0; i < 2; ++i) {
    results.push_back(RunServerCapacity(CapacityProfile(i), CapacitySearch(seed, i)));
  }
  it.run_s = SecondsSince(t0);
  it.window_s = it.run_s;
  std::string report;
  for (size_t i = 0; i < results.size(); ++i) {
    const CapacityResult& r = results[i];
    const ConsolidationOptions b = CapacitySearch(seed, i).behavior;
    report += ToJson(r);
    it.events += static_cast<double>(r.run.events_executed);
    it.sim_seconds +=
        static_cast<double>(r.probes.size()) * (b.start_delay + b.duration).ToSecondsF();
    if (r.probes.empty() || r.latency_sized_users < 1) {
      Fail(it, r.os_name + ": search admitted no users");
    }
  }
  it.digest = ReportDigest(report);
  if (traced == nullptr) {
    return it;
  }
  // Traced: replay every probe the searches ran as its own ConsolidationRun (same
  // options, own attribution engine, exactly as the search builds it), with the
  // per-event timer attached. Each replay must reproduce its probe's report.
  for (size_t i = 0; i < results.size(); ++i) {
    for (const ConsolidationResult& p : results[i].probes) {
      traced->core_probe_ms.push_back(p.run.wall_ms);
      ConsolidationOptions o = CapacitySearch(seed, i).behavior;
      o.users = p.users;
      Iteration rep = RunConsolidationOp(CapacityProfile(i), o, traced);
      if (!rep.ok) {
        Fail(it, rep.error);
      } else if (rep.digest != ReportDigest(ToJson(p))) {
        Fail(it, results[i].os_name + " probe N=" + std::to_string(p.users) +
                     ": replay report differs from the search's");
      }
    }
  }
  return it;
}

Iteration RunRewind64(uint64_t seed, LayerStats* traced) {
  Iteration it;
  const OsProfile profile = OsProfile::Tse();
  const ConsolidationOptions o = Rewind64(seed);
  SloSpec spec;
  spec.max_worst_p99_ms = 100.0;
  spec.name = "rewind64";
  ObsConfig obs;
  obs.slo = &spec;
  Phases ph;
  std::vector<double> save_ms;

  Clock::time_point t0 = Clock::now();
  auto monitored = std::make_unique<ConsolidationRun>(profile, o, &obs);
  Clock::time_point t1 = Clock::now();
  ph.setup_s = SecondsSince(t0);
  if (traced != nullptr) {
    traced->timer.Install(monitored->sim());
  }
  // Checkpoint ring until the violation, as `tcsctl postmortem --rewind-ms` keeps it.
  std::vector<std::pair<TimePoint, std::vector<uint8_t>>> ring;
  const TimePoint warm_end = TimePoint::Zero() + o.start_delay;
  const TimePoint end = monitored->end_time();
  Clock::time_point phase_start = t1;
  bool in_warmup = true;
  auto run_until = [&](TimePoint t) {
    if (traced != nullptr) traced->timer.Arm();
    monitored->RunUntil(t);
  };
  for (TimePoint t = TimePoint::Zero() + kCheckpointEvery;
       t < end && !monitored->SloViolated(); t = t + kCheckpointEvery) {
    run_until(t);
    if (!monitored->SloViolated()) {
      Clock::time_point s0 = Clock::now();
      ring.emplace_back(t, monitored->Snapshot());
      save_ms.push_back(SecondsSince(s0) * 1e3);
    }
    if (in_warmup && t >= warm_end) {
      ph.warmup_s = SecondsSince(phase_start);
      phase_start = Clock::now();
      in_warmup = false;
    }
  }
  run_until(end);
  Clock::time_point t2 = Clock::now();
  ph.simulate_s = std::chrono::duration<double>(t2 - phase_start).count();
  it.window_s = std::chrono::duration<double>(t2 - t1).count();
  it.sim_seconds = (end - TimePoint::Zero()).ToSecondsF();
  it.events = static_cast<double>(monitored->sim().events_executed());
  const int64_t violated_at_us = monitored->SloViolatedAtUs();
  ConsolidationResult r = monitored->Finish();
  std::string ledger = ReadServer(monitored->server(), nullptr, traced);
  monitored.reset();
  Clock::time_point t3 = Clock::now();
  ph.collect_s = std::chrono::duration<double>(t3 - t2).count();

  // Fork the newest checkpoint at least kRewindMs before the violation, traced.
  const std::vector<uint8_t>* chosen = nullptr;
  for (const auto& [t, blob] : ring) {
    if (t.ToMicros() <= violated_at_us - kRewindMs * 1000) {
      chosen = &blob;
    }
  }
  ConsolidationResult rr;
  Tracer tracer;
  double restore_ms = 0.0;
  if (chosen != nullptr) {
    SloSpec replay_spec = spec;
    replay_spec.name += "_replay";
    ObsConfig replay_obs;
    replay_obs.slo = &replay_spec;
    replay_obs.tracer = &tracer;
    auto replay = std::make_unique<ConsolidationRun>(profile, o, &replay_obs);
    Clock::time_point r0 = Clock::now();
    replay->Restore(*chosen);
    restore_ms = SecondsSince(r0) * 1e3;
    replay->RunToEnd();
    rr = replay->Finish();
  }
  Clock::time_point t4 = Clock::now();
  ph.rewind_s = std::chrono::duration<double>(t4 - t3).count();
  size_t ring_bytes = 0;
  for (const auto& entry : ring) {
    ring_bytes += entry.second.size();
  }
  const size_t blob_bytes = ring.empty() ? 0 : ring.back().second.size();
  ring.clear();
  it.run_s = SecondsSince(t0);
  it.setup_s = SetupMedian(profile, o, obs, ph.setup_s);

  const std::string report = ToJson(r);
  it.digest = ReportDigest(report);
  if (!ledger.empty()) {
    Fail(it, ledger);
  }
  if (violated_at_us < 0) {
    Fail(it, "SLO never violated: nothing to rewind");
  } else if (chosen == nullptr) {
    Fail(it, "no checkpoint precedes the violation by the rewind distance");
  } else if (rr.slo.violated_at_us != violated_at_us) {
    Fail(it, "replay hit the violation at " + std::to_string(rr.slo.violated_at_us) +
                 " us, the monitored run at " + std::to_string(violated_at_us) + " us");
  } else if (ReportDigest(ToJson(rr)) != it.digest) {
    Fail(it, "replay report differs from the monitored run's");
  }
  if (traced != nullptr) {
    traced->phases.Add(ph);
    traced->dispatched += static_cast<uint64_t>(it.events);
    traced->timed_run_s += it.run_s;
    traced->sim_seconds += it.sim_seconds;
    traced->obs_trace_events += static_cast<int64_t>(tracer.event_count());
    traced->snapshot_save_ms = std::move(save_ms);
    traced->snapshot_restore_ms = restore_ms;
    traced->snapshot_blob_kib = static_cast<double>(blob_bytes) / 1024.0;
    traced->snapshot_ring_mib = static_cast<double>(ring_bytes) / (1024.0 * 1024.0);
  }
  return it;
}

// The largest probe the capacity search may build: the search ceiling.
ConsolidationOptions CapacityCeiling(uint64_t seed) {
  ConsolidationOptions o = CapacitySearch(seed, 0).behavior;
  o.users = 16;
  return o;
}

const Workload kWorkloads[] = {
    {"lan-512", RunLan512, Lan512, Calibration::kKernel},
    {"wan-paging-64", RunWanPaging64, WanPaging64, Calibration::kKernel},
    {"capacity", RunCapacity, CapacityCeiling, Calibration::kKernel},
    {"rewind-64", RunRewind64, Rewind64, Calibration::kKernelAndEncode},
};

}  // namespace

Iteration RunConsolidationOp(const OsProfile& profile, const ConsolidationOptions& o,
                             LayerStats* traced) {
  Iteration it;
  Phases ph;
  LatencyAttribution attribution;  // attached as capacity probes attach it
  ObsConfig obs;
  obs.attribution = &attribution;
  auto arm = [traced] {
    if (traced != nullptr) traced->timer.Arm();
  };

  Clock::time_point t0 = Clock::now();
  auto run = std::make_unique<ConsolidationRun>(profile, o, &obs);
  Clock::time_point t1 = Clock::now();
  if (traced != nullptr) {
    traced->timer.Install(run->sim());
  }
  arm();
  run->RunUntil(TimePoint::Zero() + o.start_delay);
  Clock::time_point t2 = Clock::now();
  arm();
  run->RunToEnd();
  Clock::time_point t3 = Clock::now();
  it.events = static_cast<double>(run->sim().events_executed());
  it.sim_seconds = (run->end_time() - TimePoint::Zero()).ToSecondsF();
  ConsolidationResult r = run->Finish();
  std::string ledger = ReadServer(run->server(), &attribution, traced);
  run.reset();
  Clock::time_point t4 = Clock::now();

  auto span = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  ph.setup_s = span(t0, t1);
  ph.warmup_s = span(t1, t2);
  ph.simulate_s = span(t2, t3);
  ph.collect_s = span(t3, t4);
  it.setup_s = SetupMedian(profile, o, obs, ph.setup_s);
  it.window_s = span(t1, t3);
  it.run_s = span(t0, t4);

  it.digest = ReportDigest(ToJson(r));
  if (!ledger.empty()) {
    Fail(it, ledger);
  }
  if (r.per_user.size() != static_cast<size_t>(o.users)) {
    Fail(it, "per-user stats missing");
  }
  if (traced != nullptr) {
    traced->phases.Add(ph);
    traced->dispatched += static_cast<uint64_t>(it.events);
    traced->timed_run_s += it.run_s;
    traced->sim_seconds += it.sim_seconds;
  }
  return it;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Iteration RunChecked(const Workload& w, uint64_t seed, LayerStats* traced) {
  try {
    return w.run(seed, traced);
  } catch (const std::exception& e) {
    Iteration it;
    it.ok = false;
    it.error = std::string("threw: ") + e.what();
    return it;
  }
}

}  // namespace perfbench
