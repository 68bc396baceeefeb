#include "src/core/experiments.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "src/util/percentile_sketch.h"

#include "src/core/admission.h"
#include "src/core/run_support.h"

#include "src/cpu/nt_scheduler.h"
#include "src/metrics/latency.h"
#include "src/net/ping.h"
#include "src/net/traffic_gen.h"
#include "src/proto/lbx_protocol.h"
#include "src/proto/slim_protocol.h"
#include "src/proto/vnc_protocol.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/x_protocol.h"
#include "src/session/server.h"
#include "src/util/config_error.h"
#include "src/util/stats.h"
#include "src/workload/animation.h"
#include "src/workload/app_script.h"
#include "src/workload/memory_hog.h"
#include "src/workload/typist.h"
#include "src/workload/webpage.h"

namespace tcs {

namespace {

using namespace run_support;  // WallClock, FinishRun, ApplyObs, SamplerScope, ...

// A protocol-only harness: link, channel senders, tap, and one protocol instance.
// Experiments that exercise only the network resource use this instead of a full Server.
struct ProtocolHarness {
  ProtocolHarness(ProtocolKind kind, uint64_t seed, Duration tap_bucket,
                  CachePolicy cache_policy = CachePolicy::kLru,
                  LinkConfig link_config = {})
      : link(sim, link_config),
        display(link, HeaderModel::TcpIp()),
        input(link, HeaderModel::TcpIp()),
        tap(tap_bucket) {
    Rng rng(seed);
    switch (kind) {
      case ProtocolKind::kRdp: {
        RdpConfig cfg;
        cfg.cache.policy = cache_policy;
        protocol = std::make_unique<RdpProtocol>(sim, display, input, &tap, rng, cfg);
        break;
      }
      case ProtocolKind::kX:
        protocol = std::make_unique<XProtocol>(sim, display, input, &tap, rng);
        break;
      case ProtocolKind::kLbx:
        protocol = std::make_unique<LbxProtocol>(sim, display, input, &tap, rng);
        break;
      case ProtocolKind::kSlim:
        protocol = std::make_unique<SlimProtocol>(sim, display, input, &tap, rng);
        break;
      case ProtocolKind::kVnc: {
        auto vnc = std::make_unique<VncProtocol>(sim, display, input, &tap, rng);
        vnc->StartClientPull();
        protocol = std::move(vnc);
        break;
      }
    }
  }

  const BitmapCache* cache() const {
    auto* rdp = dynamic_cast<const RdpProtocol*>(protocol.get());
    return rdp != nullptr ? &rdp->bitmap_cache() : nullptr;
  }

  // Wires the ObsConfig's tracer through the harness's layers and registers the link
  // backlog gauge (protocol-only experiments have no cpu/pager to observe).
  void ApplyObs(const ObsConfig* obs) {
    if (obs == nullptr) {
      return;
    }
    if (obs->tracer != nullptr) {
      link.SetTracer(obs->tracer);
      protocol->SetTracer(obs->tracer);
    }
    if (obs->metrics != nullptr) {
      Link* l = &link;
      Simulator* s = &sim;
      obs->metrics->AddGauge("link_backlog_bytes", [l, s] {
        return static_cast<double>(l->BacklogBytesAt(s->Now()).count());
      });
      if (const BitmapCache* c = cache()) {
        obs->metrics->AddGauge("bitmap_cache_hit_rate",
                               [c] { return c->CumulativeHitRatio(); });
      }
    }
  }

  Simulator sim;
  Link link;
  MessageSender display;
  MessageSender input;
  ProtoTap tap;
  std::unique_ptr<DisplayProtocol> protocol;
};

AnimationLoadResult CollectLoad(const ProtocolHarness& harness, Duration duration,
                                Duration bucket, size_t warm_buckets,
                                const std::string& name) {
  AnimationLoadResult result;
  result.protocol = name;
  result.bucket = bucket;
  const TimeSeries& series = harness.tap.series(Channel::kDisplay);
  size_t buckets = static_cast<size_t>(duration.ToMicros() / bucket.ToMicros());
  double sustained_sum = 0.0;
  size_t sustained_n = 0;
  for (size_t i = 0; i < buckets; ++i) {
    double bytes = i < series.bucket_count() ? series.Sum(i) : 0.0;
    double mbps = bytes * 8.0 / bucket.ToSecondsF() / 1e6;
    result.load_mbps.push_back(mbps);
    if (i >= warm_buckets) {
      sustained_sum += mbps;
      ++sustained_n;
    }
  }
  result.mean_mbps =
      static_cast<double>(harness.tap.counted_bytes(Channel::kDisplay).count()) * 8.0 /
      duration.ToSecondsF() / 1e6;
  result.sustained_mbps = sustained_n > 0 ? sustained_sum / static_cast<double>(sustained_n)
                                          : result.mean_mbps;
  if (const BitmapCache* cache = harness.cache()) {
    result.cache_hits = cache->hits();
    result.cache_misses = cache->misses();
    result.cumulative_hit_ratio = cache->CumulativeHitRatio();
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Processor

IdleProfileResult RunIdleProfile(const OsProfile& profile, Duration duration,
                                 uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  ServerConfig cfg;
  cfg.seed = seed;
  Server server(sim, profile, cfg);
  IdleLoopProfiler profiler(server.cpu());
  server.StartDaemons();
  sim.RunUntil(TimePoint::Zero() + duration);
  profiler.Flush();

  IdleProfileResult result;
  result.os_name = profile.name;
  result.duration = duration;
  size_t buckets = static_cast<size_t>(duration.ToMicros() /
                                       profiler.utilization().bucket_width().ToMicros());
  for (size_t i = 0; i < buckets; ++i) {
    result.utilization.push_back(i < profiler.utilization().bucket_count()
                                     ? profiler.UtilizationAt(i)
                                     : 0.0);
  }
  result.cumulative = profiler.CumulativeLatencyCurve();
  result.total_busy = profiler.TotalBusy();
  FinishRun(result.run, sim, t0);
  return result;
}

TypingUnderLoadResult RunTypingUnderLoad(const OsProfile& profile, int sinks,
                                         Duration duration, uint64_t seed,
                                         int processors, const ObsConfig* obs) {
  // The single-session typing experiment is the users == 1, burst-free corner of the
  // consolidation engine; RunServerCapacity's N=1 probe reproduces it byte for byte.
  ConsolidationOptions copt;
  copt.users = 1;
  copt.duration = duration;
  copt.seed = seed;
  copt.processors = processors;
  copt.sinks = sinks;
  ConsolidationResult consolidated = RunConsolidation(profile, copt, obs);

  TypingUnderLoadResult result;
  result.os_name = consolidated.os_name;
  result.sinks = sinks;
  const UserStallStats& user = consolidated.per_user.front();
  result.avg_stall_ms = user.avg_stall_ms;
  result.max_stall_ms = user.max_stall_ms;
  result.jitter_ms = user.jitter_ms;
  result.updates = user.updates;
  result.stall_samples_us = user.stall_samples_us;
  result.blame = std::move(consolidated.blame);
  result.slo = std::move(consolidated.slo);
  result.run = consolidated.run;
  return result;
}

Duration RunMaximizeScenario(int foreground_stretch, double cpu_speed) {
  Simulator sim;
  NtSchedulerConfig sched_cfg;
  sched_cfg.foreground_stretch = foreground_stretch;
  CpuConfig cpu_cfg;
  cpu_cfg.speed = cpu_speed;
  cpu_cfg.context_switch_cost = Duration::Zero();
  Cpu cpu(sim, std::make_unique<NtScheduler>(sched_cfg), cpu_cfg);
  Thread* daemon =
      cpu.CreateThread("session-manager", ThreadClass::kDaemon, kNtSystemDaemonPriority);
  Thread* editor = cpu.CreateThread("editor", ThreadClass::kGui, kNtForegroundPriority);
  TimePoint done = TimePoint::Infinite();
  cpu.PostWork(*daemon, Duration::Millis(400));
  cpu.PostWork(*editor, Duration::Millis(500), [&] { done = sim.Now(); },
               WakeReason::kInputEvent);
  sim.Run();
  return done - TimePoint::Zero();
}

// ---------------------------------------------------------------------------
// Memory

SessionMemoryResult MeasureSessionMemory(const OsProfile& profile, bool light) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  ServerConfig cfg;
  Server server(sim, profile, cfg);
  size_t frames_before = server.pager().frames_used();
  Session& session = server.Login(light);
  size_t frames_after = server.pager().frames_used();

  SessionMemoryResult result;
  result.os_name = profile.name;
  result.light = light;
  const std::vector<ProcessSpec>& processes =
      light ? profile.light_login_processes : profile.login_processes;
  for (const ProcessSpec& proc : processes) {
    result.processes.push_back(SessionMemoryRow{proc.name, proc.private_memory});
  }
  result.total = session.private_memory();
  result.total_shared = session.shared_memory();
  result.idle_system = profile.idle_system_memory;
  // Exclude the editor working set and the shared text segments (resident once
  // server-wide): the table reports the login processes' private bill only.
  size_t ws = profile.editor_working_set_pages;
  size_t shared_pages = 0;
  for (const ProcessSpec& proc : processes) {
    if (proc.shared_text.count() > 0) {
      shared_pages += std::max<size_t>(1, static_cast<size_t>(
          (proc.shared_text.count() + 4095) / 4096));
    }
  }
  result.measured_resident = Bytes::Of(
      static_cast<int64_t>(frames_after - frames_before - ws - shared_pages) * 4096);
  FinishRun(result.run, sim, t0);
  return result;
}

PagingLatencyResult RunPagingLatency(const OsProfile& profile, bool full_demand, int runs,
                                     uint64_t seed, EvictionPolicy eviction,
                                     const ObsConfig* obs) {
  RunningStats latency_ms;
  PagingLatencyResult result;
  for (int run = 0; run < runs; ++run) {
    WallClock::time_point t0 = WallClock::now();
    Simulator sim;
    ServerConfig cfg;
    cfg.seed = seed * 1000 + static_cast<uint64_t>(run);
    cfg.eviction = eviction;
    // Observe the first trial only: one server's worth of tracks, not `runs` copies.
    const ObsConfig* run_obs = run == 0 ? obs : nullptr;
    ApplyObs(cfg, run_obs);
    AttachSimHook(sim, run_obs);
    Server server(sim, profile, cfg);
    SamplerScope sampler(sim, run_obs);
    Session& session = server.Login();
    Rng run_rng(cfg.seed ^ 0xFEEDFACE);

    size_t free = server.pager().frames_free();
    size_t ws = profile.editor_working_set_pages;
    size_t login_pages = server.pager().frames_used() - ws;
    MemoryHogConfig hog_cfg;
    if (full_demand) {
      // Demand exceeds free memory by a run-varying margin. Global LRU hands the hog the
      // oldest pages first — the login's processes, then the editor's working set — so
      // the margin controls how much of the keystroke path gets stolen: from a fraction
      // of it up to all of it plus steady-state thrashing (the min/max spread of the
      // §5.2 table).
      double steal =
          profile.ws_touch_min + run_rng.NextDouble() * (1.2 - profile.ws_touch_min);
      hog_cfg.region_pages =
          free + login_pages + static_cast<size_t>(steal * static_cast<double>(ws));
    } else {
      hog_cfg.region_pages = free / 2;
    }
    MemoryHog hog(sim, server.pager(), hog_cfg);
    hog.Start();

    // Let the hog run ~30 s of user "think time", then type one key.
    TimePoint keystroke_at =
        TimePoint::Zero() + Duration::Seconds(30) +
        Duration::Micros(static_cast<int64_t>(run_rng.NextDouble() * 5e6));
    bool responded = false;
    Duration response = Duration::Zero();
    session.set_on_display_update([&](TimePoint t) {
      if (!responded) {
        responded = true;
        response = t - keystroke_at;
        sim.RequestStop();
      }
    });
    sim.At(keystroke_at, [&server, &session] { server.Keystroke(session); });
    sim.RunUntil(keystroke_at + Duration::Seconds(120));
    latency_ms.Add(responded ? response.ToMillisF() : 120000.0);
    FinishRun(result.run, sim, t0);
  }

  result.os_name = profile.name;
  result.full_demand = full_demand;
  result.runs = runs;
  result.min_ms = latency_ms.min();
  result.avg_ms = latency_ms.mean();
  result.max_ms = latency_ms.max();
  CollectBlame(result.blame, obs);
  return result;
}

// ---------------------------------------------------------------------------
// Network

ProtocolTrafficResult RunAppWorkloadTraffic(ProtocolKind kind, uint64_t seed,
                                            int steps_per_app, const ObsConfig* obs) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, seed, Duration::Seconds(1));
  harness.ApplyObs(obs);
  AttachSimHook(harness.sim, obs);
  SamplerScope sampler(harness.sim, obs);
  Rng script_rng(seed ^ 0xABCD);
  AppScript word = AppScript::WordProcessor(script_rng.Fork(), steps_per_app);
  AppScript photo = AppScript::PhotoEditor(script_rng.Fork(), steps_per_app);
  AppScript panel = AppScript::ControlPanel(script_rng.Fork(), steps_per_app);

  // The three application sessions run back to back, as in the paper's trial. Bounded
  // RunUntil (not Run) so protocols with autonomous periodic activity (VNC's client pull)
  // terminate.
  for (const AppScript* script : {&word, &photo, &panel}) {
    TimePoint end = harness.sim.Now() + script->TotalDuration();
    script->Replay(harness.sim, *harness.protocol);
    harness.sim.RunUntil(end);
  }
  harness.protocol->Flush();
  harness.sim.RunFor(Duration::Seconds(1));

  ProtocolTrafficResult result;
  result.protocol = ProtocolName(kind);
  result.input.bytes = harness.tap.counted_bytes(Channel::kInput).count();
  result.input.messages = harness.tap.messages(Channel::kInput);
  result.display.bytes = harness.tap.counted_bytes(Channel::kDisplay).count();
  result.display.messages = harness.tap.messages(Channel::kDisplay);
  result.total_bytes = result.input.bytes + result.display.bytes;
  result.total_messages = result.input.messages + result.display.messages;
  result.avg_message_size = harness.tap.AverageMessageSize();
  result.packets = harness.display.packets_sent() + harness.input.packets_sent();
  result.vip_bytes = result.total_bytes - 20 * result.packets;
  FinishRun(result.run, harness.sim, t0);
  return result;
}

AnimationLoadResult RunWebPageLoad(ProtocolKind kind, bool banner, bool marquee,
                                   Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, seed, Duration::Seconds(1));
  WebPageConfig page_cfg;
  page_cfg.banner = banner;
  page_cfg.marquee = marquee;
  WebPage page(harness.sim, *harness.protocol, page_cfg);
  page.Open();
  harness.sim.RunUntil(TimePoint::Zero() + duration);
  page.Close();

  std::string name = ProtocolName(kind);
  name += banner && marquee ? " marquee+banner" : (banner ? " banner" : " marquee");
  // Skip the cache-warming first 15 s when judging the sustained level.
  AnimationLoadResult result = CollectLoad(harness, duration, Duration::Seconds(1), 15, name);
  FinishRun(result.run, harness.sim, t0);
  return result;
}

AnimationLoadResult RunGifAnimation(ProtocolKind kind, const GifAnimationOptions& options,
                                    const ObsConfig* obs) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, options.seed, options.bucket, options.cache_policy);
  harness.ApplyObs(obs);
  AttachSimHook(harness.sim, obs);
  SamplerScope sampler(harness.sim, obs);
  AnimationConfig anim_cfg;
  anim_cfg.id = 1;
  anim_cfg.frame_count = options.frames;
  anim_cfg.frame_period = options.frame_period;
  anim_cfg.width = options.width;
  anim_cfg.height = options.height;
  anim_cfg.compression_ratio = options.compression_ratio;
  Animation animation(harness.sim, *harness.protocol, anim_cfg);
  animation.Start();
  harness.sim.RunUntil(TimePoint::Zero() + options.duration);
  animation.Stop();

  size_t warm = std::max<size_t>(
      1, static_cast<size_t>((options.frame_period * options.frames * 2).ToMicros() /
                             options.bucket.ToMicros()));
  AnimationLoadResult result =
      CollectLoad(harness, options.duration, options.bucket, warm, ProtocolName(kind));
  FinishRun(result.run, harness.sim, t0);
  return result;
}

CacheOverflowResult RunCacheOverflow(int frames, Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(ProtocolKind::kRdp, seed, Duration::Seconds(1));
  auto* rdp = dynamic_cast<RdpProtocol*>(harness.protocol.get());

  // Server CPU: the RDP encoder's work (cache hits are cheap; misses re-compress the
  // frame) is executed by an encoder thread on a dedicated CPU model.
  Simulator& sim = harness.sim;
  Cpu cpu(sim, std::make_unique<NtScheduler>());
  Thread* encoder = cpu.CreateThread("rdp-encoder", ThreadClass::kDaemon, 13);
  harness.protocol->set_encode_cost_sink(
      [&cpu, encoder](Duration cost) { cpu.PostWork(*encoder, cost); });
  IdleLoopProfiler profiler(cpu, Duration::Seconds(1));

  // Warm session UI: icons and glyphs whose steady redraw keeps hitting, so the
  // cumulative ratio starts high (the ~70% starting point of Figure 6).
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t icon = 0; icon < 20; ++icon) {
      BitmapRef ref = BitmapRef::Make(0x5E55ull << 32 | icon, 24, 24, 0.6);
      harness.protocol->SubmitDraw(DrawCommand::PutImage(ref));
    }
  }
  harness.protocol->Flush();

  // The 66-frame overflow animation: "Dateline NBC" at 5 fps (Figures 6-7 use 24 000-byte
  // compressed frames against the 1.5 MB cache: 65 fit, 66 do not).
  AnimationConfig anim_cfg;
  anim_cfg.id = 7;
  anim_cfg.frame_count = frames;
  anim_cfg.frame_period = Duration::Millis(200);
  anim_cfg.width = 200;
  anim_cfg.height = 150;
  anim_cfg.compression_ratio = 0.8;  // 30 000 raw -> 24 000 compressed
  Animation animation(sim, *harness.protocol, anim_cfg);

  CacheOverflowResult result;
  // Sample the cumulative hit ratio once per second.
  PeriodicTask sampler(sim, Duration::Seconds(1), [&] {
    result.cumulative_hit_ratio.push_back(rdp->bitmap_cache().CumulativeHitRatio());
  });
  sampler.Start(Duration::Millis(999));
  animation.Start();
  sim.RunUntil(TimePoint::Zero() + duration);
  animation.Stop();
  sampler.Stop();
  profiler.Flush();

  size_t buckets = static_cast<size_t>(duration.ToMicros() / 1000000);
  for (size_t i = 0; i < buckets; ++i) {
    result.cpu_utilization.push_back(
        i < profiler.utilization().bucket_count() ? profiler.UtilizationAt(i) : 0.0);
  }
  FinishRun(result.run, sim, t0);
  return result;
}

RttProbeResult RunRttProbe(double offered_mbps, Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  // The paper's testbed segment was shared half-duplex Ethernet: model CSMA/CD
  // contention, not just FIFO queueing.
  LinkConfig link_cfg;
  link_cfg.csma_cd = true;
  link_cfg.seed = seed ^ 0xE78E12;
  Link link(sim, link_cfg);
  PoissonTrafficGenerator gen(sim, Rng(seed), link, BitsPerSecond::MbpsF(offered_mbps),
                              Bytes::Of(1500));
  Ping ping(sim, link);
  gen.Start();
  ping.Start();
  sim.RunUntil(TimePoint::Zero() + duration);
  gen.Stop();
  ping.Stop();
  sim.RunFor(Duration::Seconds(2));  // drain in-flight echoes

  RttProbeResult result;
  result.offered_mbps = offered_mbps;
  result.mean_rtt_ms = ping.rtt().mean();
  result.rtt_variance = ping.rtt().variance();
  FinishRun(result.run, sim, t0);
  return result;
}

Bytes SessionSetupBytes(ProtocolKind kind) {
  ProtocolHarness harness(kind, 1, Duration::Seconds(1));
  return harness.protocol->session_setup_bytes();
}

SizingPoint RunServerSizing(const OsProfile& profile, int users, SizingBehavior behavior,
                            Duration duration, uint64_t seed, const ObsConfig* obs) {
  // The consolidation engine with no warm-up delay: typists staggered 13 ms apart, each
  // with its periodic application burst. Sizing watches no SLO.
  ConsolidationOptions copt;
  copt.users = users;
  copt.duration = duration;
  copt.seed = seed;
  copt.keystroke_period = behavior.keystroke_period;
  copt.start_delay = Duration::Zero();
  copt.burst_cpu = behavior.burst_cpu;
  copt.burst_period = behavior.burst_period;
  ObsConfig sizing_obs = obs != nullptr ? *obs : ObsConfig{};
  sizing_obs.slo = nullptr;
  ConsolidationResult consolidated = RunConsolidation(profile, copt, &sizing_obs);

  SizingPoint point;
  point.os_name = consolidated.os_name;
  point.users = users;
  point.cpu_utilization = consolidated.cpu_utilization;
  double total = 0.0;
  for (const UserStallStats& user : consolidated.per_user) {
    // A user who never saw two updates is scored the whole run.
    double stall = user.updates < 2 ? duration.ToMillisF() : user.avg_stall_ms;
    total += stall;
    point.worst_stall_ms = std::max(point.worst_stall_ms, stall);
  }
  point.avg_stall_ms = total / static_cast<double>(users);
  point.blame = std::move(consolidated.blame);
  point.run = consolidated.run;
  return point;
}

// ---------------------------------------------------------------------------
// Interactive runs: end-to-end, chaos, and WAN points
//
// All three are the paper's one measurement: users type at a fixed repeat rate and the
// time from keystroke to echo paint is recorded. RunInteractive is that run for N
// typists, with per-user latency and starvation accounting and an optional background
// media session; RunWanPoint is it as is, and RunEndToEndLatency and RunChaosPoint are
// its single-user projections.

namespace {

// What the single-session experiments add to a WanOptions run.
struct InteractiveSpec {
  // A prepared fault plan (e2e, chaos); null wires options.profile/degrade (ApplyWan).
  const FaultPlan* faults = nullptr;
  int sinks = 0;
  ThinClientConfig client = ThinClientConfig::DesktopPc();
  double background_mbps = 0.0;  // Poisson load sharing the session's link
  // Attribute through a run-local engine when the ObsConfig carries none (chaos, WAN).
  bool attribute = true;
  // E2E/chaos semantics: the SLO watchdog is armed before the typists start (so it runs
  // first when its tick and a keystroke coincide), scores no starvation, and settles
  // availability on the link alone.
  bool single_session = false;
  // Called on every painted echo.
  std::function<void(const KeystrokeLatency&)> on_paint;
};

WanPoint RunInteractive(const OsProfile& profile, const WanOptions& options,
                        const InteractiveSpec& spec, const ObsConfig* obs) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  ServerConfig cfg;
  cfg.seed = options.seed;
  if (spec.faults != nullptr) {
    cfg.faults = *spec.faults;
  } else {
    ApplyWan(cfg, options.profile, options.degrade, options.seed);
  }
  // Virtual hardware for the what-if achieved arm. Gated on != 1.0 so stock cells keep
  // their exact bytes (no float math touches the configs on the default path).
  if (options.cpu_speed != 1.0) {
    cfg.cpu.speed *= options.cpu_speed;
  }
  if (options.disk_speedup != 1.0) {
    const double k = options.disk_speedup;
    auto faster = [k](Duration d) {
      return Duration::Micros(
          std::llround(static_cast<double>(d.ToMicros()) / k));
    };
    cfg.disk.positioning_mean = faster(cfg.disk.positioning_mean);
    cfg.disk.positioning_stddev = faster(cfg.disk.positioning_stddev);
    cfg.disk.positioning_min = faster(cfg.disk.positioning_min);
    cfg.disk.transfer_rate = BitsPerSecond::Of(
        std::llround(static_cast<double>(cfg.disk.transfer_rate.bps()) * k));
  }
  ApplyObs(cfg, obs);
  SloRuntime slo(sim, obs);
  slo.ApplyTo(cfg);
  // Chaos and WAN points always attribute: the blame table is how a loss sweep shows
  // retransmit time moving into the network stages, and how degradation shows its work.
  // The local engine is built even when the caller supplied one, because it registers
  // its blame tracks on the tracer and those traces have always carried them.
  std::optional<LatencyAttribution> local_attribution;
  if (spec.attribute) {
    AttributionConfig attr_cfg;
    attr_cfg.tracer = obs != nullptr ? obs->tracer : nullptr;
    attr_cfg.recorder = cfg.recorder;
    local_attribution.emplace(attr_cfg);
    if (cfg.attribution == nullptr) {
      cfg.attribution = &*local_attribution;
    }
    if (slo.active()) {
      slo.watchdog()->SetAttribution(cfg.attribution);
    }
  }
  LatencyAttribution* attribution = cfg.attribution;
  AttachSimHook(sim, obs);
  Server server(sim, profile, cfg);
  SamplerScope sampler(sim, obs);
  server.StartDaemons();
  server.AttachClient(spec.client);

  const Duration start_delay = Duration::Seconds(2);  // past session setup and warm-up
  // A user counts as starved while some keystroke echo has been pending for longer than
  // starve_after: per painted batch the window [keystroke + starve_after, painted],
  // unioned via counted_through so overlapping batches are not double-billed. This
  // catches both total paint droughts and sustained bufferbloat lag (echoes flowing, but
  // every one of them seconds old).
  struct User {
    Session* session = nullptr;
    std::unique_ptr<Typist> typist;
    LatencyRecorder latency;
    TimePoint counted_through;       // starved time accounted up to here
    bool pending = false;            // a keystroke awaiting its echo
    TimePoint pending_since;
    Duration starved = Duration::Zero();
    int64_t perceptible = 0;
  };
  std::vector<User> users(static_cast<size_t>(options.users));
  auto start_typing = [&users, start_delay](size_t u) {
    users[u].typist->Start(start_delay + Duration::Millis(7) * static_cast<int64_t>(u));
  };
  for (size_t u = 0; u < users.size(); ++u) {
    User& wu = users[u];
    wu.session = &server.Login();
    wu.counted_through = TimePoint::Zero() + start_delay;
    Duration starve_after = options.starve_after;
    User* wp = &wu;
    wu.session->set_on_frame_painted([wp, starve_after, threshold = options.threshold,
                                      on_paint = &spec.on_paint](
                                         const KeystrokeLatency& lat) {
      wp->latency.Record(lat.total());
      if (lat.total() > threshold) {
        ++wp->perceptible;
      }
      TimePoint painted = lat.keystroke_at + lat.total();
      TimePoint from = std::max(lat.keystroke_at + starve_after, wp->counted_through);
      if (painted > from) {
        wp->starved += painted - from;
      }
      if (painted > wp->counted_through) {
        wp->counted_through = painted;
      }
      wp->pending = false;
      if (*on_paint) {
        (*on_paint)(lat);
      }
    });
    Session* s = wu.session;
    wu.typist = std::make_unique<Typist>(sim,
                                         [&server, &sim, s, wp] {
                                           if (!wp->pending) {
                                             wp->pending = true;
                                             wp->pending_since = sim.Now();
                                           }
                                           server.Keystroke(*s);
                                         },
                                         options.think_time);
    if (!spec.single_session) {
      start_typing(u);
    }
  }
  server.StartSinks(spec.sinks);

  std::unique_ptr<PoissonTrafficGenerator> poisson;
  if (spec.background_mbps > 0.0) {
    poisson = std::make_unique<PoissonTrafficGenerator>(
        sim, Rng(options.seed ^ 0xB06), server.link(),
        BitsPerSecond::MbpsF(spec.background_mbps), Bytes::Of(1500));
    poisson->Start();
  }

  // The background media session: a light login playing unique-frame video into the
  // narrow downlink — the pressure source the degradation ladder sacrifices first.
  std::unique_ptr<Animation> background;
  if (options.background_session) {
    Session* background_session = &server.Login(/*light_session=*/true);
    server.SetBackground(*background_session, true);
    AnimationConfig ac;
    ac.id = 0x8AC6;
    // ~4.7 Mbps of media: heavier than every profile's downlink, so without degradation
    // the drop-tail queue sits pinned at its bound and interactive echoes tail-drop too.
    ac.width = 512;
    ac.height = 384;
    ac.frame_period = Duration::Millis(100);  // 10 fps media
    // Every frame unique over the run so the bitmap cache cannot absorb the stream.
    ac.frame_count = static_cast<int>(options.duration / ac.frame_period) + 64;
    ac.compression_ratio = 0.3;
    background = std::make_unique<Animation>(sim, background_session->protocol(), ac);
    background->set_frame_gate([&server] {
      DegradationController* d = server.degradation();
      if (d == nullptr) {
        return true;
      }
      if (d->BackgroundPaused()) {
        return false;
      }
      return !d->ShouldDropAnimationFrame();
    });
    background->Start(start_delay);
  }

  if (slo.active()) {
    slo.watchdog()->SetWorstP99Source([&users] {
      double worst = 0.0;
      for (const User& wu : users) {
        worst = std::max(worst, wu.latency.PercentileMs(0.99));
      }
      return worst;
    });
    if (!spec.single_session) {
      slo.watchdog()->SetStarvationSource([&users, &sim,
                                           starve_after = options.starve_after] {
        // Live view: fraction of users with an echo pending beyond the starvation
        // threshold right now.
        int starved = 0;
        for (const User& wu : users) {
          if (wu.pending && sim.Now() - wu.pending_since > starve_after) {
            ++starved;
          }
        }
        return users.empty() ? 0.0
                             : static_cast<double>(starved) /
                                   static_cast<double>(users.size());
      });
    }
    slo.watchdog()->SetLinkBacklogSource([&server, &sim] {
      return server.link().BacklogBytesAt(sim.Now()).count();
    });
    slo.Start();
  }
  if (spec.single_session) {
    for (size_t u = 0; u < users.size(); ++u) {
      start_typing(u);
    }
  }

  sim.RunUntil(TimePoint::Zero() + start_delay + options.duration);
  for (User& wu : users) {
    wu.typist->Stop();
  }
  if (poisson != nullptr) {
    poisson->Stop();
  }
  if (background != nullptr) {
    background->Stop();
  }
  sim.RunFor(Duration::Seconds(1));  // drain retransmissions and in-flight updates

  // Close each user's final paint gap at the post-drain horizon.
  TimePoint horizon = sim.Now();
  Duration active = horizon - (TimePoint::Zero() + start_delay);
  Duration total_run = start_delay + options.duration + Duration::Seconds(1);

  WanPoint point;
  point.os_name = profile.name;
  point.profile = options.profile.name;
  point.degrade = options.degrade;
  point.users = options.users;
  double mean_us_sum = 0.0;
  double worst_starved = 0.0;
  double starved_sum = 0.0;
  int64_t perceptible = 0;
  for (User& wu : users) {
    // Close a still-pending echo at the horizon: starved from pending_since +
    // starve_after (or wherever accounting already reached) to the end of the run.
    if (wu.pending) {
      TimePoint from =
          std::max(wu.pending_since + options.starve_after, wu.counted_through);
      if (horizon > from) {
        wu.starved += horizon - from;
      }
    }
    double starved_frac =
        active > Duration::Zero() ? std::min(1.0, wu.starved / active) : 0.0;
    worst_starved = std::max(worst_starved, starved_frac);
    starved_sum += starved_frac;
    point.worst_p99_ms = std::max(point.worst_p99_ms, wu.latency.PercentileMs(0.99));
    point.updates += wu.latency.count();
    perceptible += wu.perceptible;
    // Count-weighted aggregate mean from the exact per-user microsecond accumulators.
    mean_us_sum += static_cast<double>(wu.latency.Mean().ToMicros()) *
                   static_cast<double>(wu.latency.count());
  }
  point.mean_ms =
      point.updates > 0 ? mean_us_sum / static_cast<double>(point.updates) / 1000.0 : 0.0;
  point.perceptible_fraction =
      point.updates > 0
          ? static_cast<double>(perceptible) / static_cast<double>(point.updates)
          : 0.0;
  point.worst_starved_fraction = worst_starved;
  point.faults = server.CollectFaultStats(total_run);
  double mean_starved =
      users.empty() ? 0.0 : starved_sum / static_cast<double>(users.size());
  // Effective availability: the link's own availability (outage-driven; 1.0 for pure WAN
  // pathology) scaled by the fraction of user time frames actually flowed.
  double link_avail = point.faults.active ? point.faults.availability : 1.0;
  point.availability = link_avail * (1.0 - mean_starved);
  if (DegradationController* d = server.degradation()) {
    for (const DegradationTransition& tr : d->transitions()) {
      point.degradation_peak_level = std::max(point.degradation_peak_level, tr.to);
    }
    point.degradation_transitions = static_cast<int64_t>(d->transitions().size());
    point.degraded_seconds = d->DegradedTimeThrough(horizon).ToSecondsF();
    point.animation_frames_skipped = d->animation_frames_dropped();
  }
  if (background != nullptr) {
    point.background_frames_drawn = background->frames_drawn();
  }
  point.link_frames_sent = server.link().frames_sent();
  point.link_frames_delivered = server.link().frames_delivered();
  point.link_frames_lost = server.link().frames_lost();
  point.retransmissions = server.reliable() != nullptr
                              ? static_cast<int64_t>(server.reliable()->retransmissions())
                              : 0;
  if (attribution != nullptr) {
    point.blame = attribution->Collect();
  }
  slo.Finish(point.slo,
             spec.single_session ? point.faults.availability : point.availability);
  FinishRun(point.run, sim, t0);
  return point;
}

// E2E and chaos: one typist at the 20 Hz repeat rate and no media session.
WanOptions SingleSession(Duration duration, uint64_t seed) {
  WanOptions run;
  run.users = 1;
  run.background_session = false;
  run.duration = duration;
  run.seed = seed;
  run.think_time = Duration::Millis(50);
  return run;
}

}  // namespace

EndToEndResult RunEndToEndLatency(const OsProfile& profile, const EndToEndOptions& options,
                                  const ObsConfig* obs) {
  InteractiveSpec spec;
  spec.faults = &options.faults;
  spec.sinks = options.sinks;
  spec.client = options.client;
  spec.background_mbps = options.background_mbps;
  spec.attribute = false;
  spec.single_session = true;
  RunningStats input_ms;
  RunningStats server_ms;
  RunningStats display_ms;
  RunningStats client_ms;
  RunningStats total_ms;
  spec.on_paint = [&](const KeystrokeLatency& lat) {
    input_ms.Add(lat.input_net.ToMillisF());
    server_ms.Add(lat.server.ToMillisF());
    display_ms.Add(lat.display_net.ToMillisF());
    client_ms.Add(lat.client.ToMillisF());
    total_ms.Add(lat.total().ToMillisF());
  };
  WanPoint p = RunInteractive(profile, SingleSession(options.duration, options.seed), spec,
                              obs);

  EndToEndResult result;
  result.os_name = profile.name;
  result.client_name = options.client.name;
  result.input_net_ms = input_ms.mean();
  result.server_ms = server_ms.mean();
  result.display_net_ms = display_ms.mean();
  result.client_ms = client_ms.mean();
  result.total_ms = total_ms.mean();
  result.updates = p.updates;
  result.faults = p.faults;
  result.blame = std::move(p.blame);
  result.slo = std::move(p.slo);
  result.run = p.run;
  return result;
}

ChaosPoint RunChaosPoint(const OsProfile& profile, const ChaosOptions& options,
                         const ObsConfig* obs) {
  FaultPlan faults;
  faults.seed = options.seed ^ 0xFA017u;
  faults.link.loss_rate = options.loss_rate;
  if (options.flap_every > Duration::Zero() && options.flap_duration > Duration::Zero()) {
    faults.link.flap_every = options.flap_every;
    faults.link.flap_duration = options.flap_duration;
  }
  faults.disk.stall_rate = options.disk_stall_rate;
  faults.session.disconnect_every = options.disconnect_every;
  WanOptions run = SingleSession(options.duration, options.seed);
  run.threshold = options.threshold;
  InteractiveSpec spec;
  spec.faults = &faults;
  spec.sinks = options.sinks;
  spec.single_session = true;
  LatencyRecorder latency;  // for the p50 a WanPoint does not carry
  spec.on_paint = [&latency](const KeystrokeLatency& lat) { latency.Record(lat.total()); };
  WanPoint p = RunInteractive(profile, run, spec, obs);

  ChaosPoint point;
  point.os_name = profile.name;
  point.loss_rate = options.loss_rate;
  point.flap_ms = options.flap_duration.ToMillisF();
  point.updates = p.updates;
  if (p.updates > 0) {
    // Exact-microsecond percentiles, rendered as ms only here at serialization.
    point.p50_ms = latency.PercentileMs(0.50);
    point.p99_ms = p.worst_p99_ms;
    point.mean_ms = p.mean_ms;
    point.perceptible_fraction = p.perceptible_fraction;
  }
  point.crosses_threshold = point.p99_ms > options.threshold.ToMillisF();
  point.faults = p.faults;
  point.link_frames_sent = p.link_frames_sent;
  point.link_frames_delivered = p.link_frames_delivered;
  point.link_frames_lost = p.link_frames_lost;
  point.retransmissions = p.retransmissions;
  point.blame = std::move(p.blame);
  point.slo = std::move(p.slo);
  point.run = p.run;
  return point;
}

// ---------------------------------------------------------------------------
// WAN pathology sweep + graceful degradation

WanProfile WanProfileByName(const std::string& name) {
  WanProfile p;
  p.name = name;
  if (name == "dsl") {
    // Consumer ADSL tail: asymmetric, modest RTT, rare short bursts, and the classic
    // oversized modem buffer — ~780 ms of bufferbloat at line rate when pinned.
    p.extra_delay = Duration::Millis(20);
    p.jitter = Duration::Millis(5);
    p.down_rate = BitsPerSecond::Mbps(4);
    p.up_rate = BitsPerSecond::Kbps(512);
    p.queue_bytes = Bytes::KiB(384);
    p.ge_p_good_to_bad = 0.002;
    p.ge_p_bad_to_good = 0.2;
    p.ge_loss_good = 0.0005;
    p.ge_loss_bad = 0.08;
  } else if (name == "lte") {
    // Cellular: decent rates but jittery, bursty loss at cell-edge, and notoriously deep
    // eNB buffers — over a second of bufferbloat when the downlink saturates.
    p.extra_delay = Duration::Millis(35);
    p.jitter = Duration::Millis(15);
    p.down_rate = BitsPerSecond::Mbps(6);
    p.up_rate = BitsPerSecond::Mbps(2);
    p.queue_bytes = Bytes::KiB(768);
    p.ge_p_good_to_bad = 0.005;
    p.ge_p_bad_to_good = 0.15;
    p.ge_loss_good = 0.001;
    p.ge_loss_bad = 0.15;
  } else if (name == "satellite") {
    // GEO hop: enormous fixed delay, narrow uplink, long queues, weather-fade bursts.
    p.extra_delay = Duration::Millis(280);
    p.jitter = Duration::Millis(30);
    p.down_rate = BitsPerSecond::Mbps(3);
    p.up_rate = BitsPerSecond::Kbps(768);
    p.queue_bytes = Bytes::KiB(192);
    p.ge_p_good_to_bad = 0.002;
    p.ge_p_bad_to_good = 0.25;
    p.ge_loss_good = 0.0005;
    p.ge_loss_bad = 0.05;
  } else if (name == "congested-office") {
    // An oversubscribed branch-office uplink: symmetric but starved for capacity, a
    // shallow router queue that tail-drops readily, and contention-driven loss bursts.
    p.extra_delay = Duration::Millis(5);
    p.jitter = Duration::Millis(10);
    p.down_rate = BitsPerSecond::Mbps(2);
    p.up_rate = BitsPerSecond::Mbps(2);
    p.queue_bytes = Bytes::KiB(48);
    p.ge_p_good_to_bad = 0.004;
    p.ge_p_bad_to_good = 0.3;
    p.ge_loss_good = 0.002;
    p.ge_loss_bad = 0.12;
  } else {
    throw ConfigError("WanProfile", "unknown WAN profile: " + name +
                                        " (expected dsl, lte, satellite, or"
                                        " congested-office)");
  }
  return p;
}

std::vector<std::string> WanProfileNames() {
  return {"dsl", "lte", "satellite", "congested-office"};
}

WanPoint RunWanPoint(const OsProfile& profile, const WanOptions& options,
                     const ObsConfig* obs) {
  return RunInteractive(profile, options, InteractiveSpec{}, obs);
}

// ---------------------------------------------------------------------------
// Counterfactual what-if analysis

WhatIfResult RunWhatIf(const OsProfile& profile, const WhatIfOptions& options,
                       const ObsConfig* obs) {
  WhatIfResult result;
  result.os_name = profile.name;
  result.profile = options.wan.profile.name;
  result.component = WhatIfComponentName(options.adjust.component);
  result.speedup = options.adjust.speedup;
  result.rtt_delta_us = options.adjust.rtt_delta_us;

  // Baseline arm: the caller's observability plus a record-retaining attribution engine —
  // the critical-path model needs every InteractionRecord, and the report's blame table
  // the display-net decomposition sub-stages.
  ObsConfig arm_obs = obs != nullptr ? *obs : ObsConfig{};
  AttributionConfig attr_cfg;
  attr_cfg.tracer = arm_obs.tracer;
  attr_cfg.recorder = arm_obs.recorder;
  attr_cfg.keep_records = true;
  attr_cfg.decompose_network = true;
  LatencyAttribution attribution(attr_cfg);
  arm_obs.attribution = &attribution;
  result.baseline = RunWanPoint(profile, options.wan, &arm_obs);

  // Predicted arm: replay every baseline record's critical path under the virtual
  // speedup. Building the graph re-checks the tentpole invariant (segment sum equals
  // end-to-end) on the way; the p99 estimator is the attribution engine's nearest-rank,
  // so predicted and achieved percentiles are directly comparable.
  PercentileSketch<int64_t> predicted;
  for (const InteractionRecord& rec : attribution.records()) {
    CriticalPathGraph graph = CriticalPathGraph::Build(rec);
    if (CriticalPathGraph::SegmentSumUs(graph.ExtractCriticalPath()) != rec.total_us()) {
      ++result.critical_path_mismatches;
    }
    predicted.Add(PredictAdjustedTotalUs(rec, options.adjust));
  }
  result.interactions = static_cast<int64_t>(attribution.records().size());
  result.baseline_p99_us = result.baseline.blame.p99_total_us;
  result.predicted_p99_us = predicted.empty() ? 0 : predicted.NearestRank(0.99);

  // Achieved arm: re-simulate with the counterfactual applied to the hardware model
  // itself, so every second-order effect (queues draining faster, fewer RTO expiries,
  // different batch boundaries) plays out for real.
  WanOptions adjusted = options.wan;
  switch (options.adjust.component) {
    case WhatIfAdjustment::Component::kLink: {
      auto scaled = [&](BitsPerSecond r) {
        // 0 is the "keep the LAN rate" sentinel: a pure-LAN cell's wire is already the
        // link config's own rate and stays untouched.
        return r.bps() > 0
                   ? BitsPerSecond::Of(std::llround(static_cast<double>(r.bps()) *
                                                    options.adjust.speedup))
                   : r;
      };
      adjusted.profile.down_rate = scaled(adjusted.profile.down_rate);
      adjusted.profile.up_rate = scaled(adjusted.profile.up_rate);
      break;
    }
    case WhatIfAdjustment::Component::kCpu:
      adjusted.cpu_speed *= options.adjust.speedup;
      break;
    case WhatIfAdjustment::Component::kDisk:
      adjusted.disk_speedup *= options.adjust.speedup;
      break;
    case WhatIfAdjustment::Component::kRtt: {
      // extra_delay is one-way transit, so cutting it by d/2 cuts the RTT by d.
      const int64_t cut_us = std::min(options.adjust.rtt_delta_us / 2,
                                      adjusted.profile.extra_delay.ToMicros());
      adjusted.profile.extra_delay =
          adjusted.profile.extra_delay - Duration::Micros(cut_us);
      break;
    }
  }
  // The achieved arm's engine needs no records, only the same decomposition.
  attr_cfg.keep_records = false;
  LatencyAttribution adjusted_attribution(attr_cfg);
  arm_obs.attribution = &adjusted_attribution;
  result.adjusted = RunWanPoint(profile, adjusted, &arm_obs);

  result.achieved_p99_us = result.adjusted.blame.p99_total_us;
  result.predicted_delta_us = result.baseline_p99_us - result.predicted_p99_us;
  result.achieved_delta_us = result.baseline_p99_us - result.achieved_p99_us;
  result.run.events_executed =
      result.baseline.run.events_executed + result.adjusted.run.events_executed;
  result.run.pending_events =
      result.baseline.run.pending_events + result.adjusted.run.pending_events;
  result.run.wall_ms = result.baseline.run.wall_ms + result.adjusted.run.wall_ms;
  return result;
}

}  // namespace tcs
