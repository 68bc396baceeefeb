// Layer probes for the traced run. Each calls only public functions of one layer and is
// sized from counts the workload itself reported (pending depth, events, logins, login
// size, frame count, protocol messages), so a probe prices that layer's work at the
// workload's own operating point.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "perfbench/bench.h"
#include "src/cpu/thread.h"
#include "src/mem/disk.h"
#include "src/mem/pager.h"
#include "src/obs/attribution.h"
#include "src/proto/draw.h"
#include "src/session/server.h"
#include "src/sim/random.h"

namespace perfbench {
namespace {

using namespace tcs;

double NsPer(Clock::time_point t0, double count) {
  return SecondsSince(t0) * 1e9 / std::max(1.0, count);
}

// The server config ConsolidationRun builds for these options (seed, CPU, RAM, eviction,
// and the WAN + degradation wiring of a named WAN profile).
ServerConfig ServerConfigFor(const ConsolidationOptions& o, LatencyAttribution* attribution) {
  ServerConfig cfg;
  cfg.seed = o.seed;
  cfg.cpu.processors = o.processors;
  cfg.ram = o.ram;
  cfg.eviction = o.eviction;
  if (!o.wan.name.empty() || o.degrade) {
    cfg.faults.seed = o.seed ^ 0xFA017u;
    cfg.faults.link.wan.extra_delay = o.wan.extra_delay;
    cfg.faults.link.wan.jitter = o.wan.jitter;
    cfg.faults.link.wan.down_rate = o.wan.down_rate;
    cfg.faults.link.wan.up_rate = o.wan.up_rate;
    cfg.faults.link.wan.queue_bytes = o.wan.queue_bytes;
    cfg.faults.link.wan.ge_p_good_to_bad = o.wan.ge_p_good_to_bad;
    cfg.faults.link.wan.ge_p_bad_to_good = o.wan.ge_p_bad_to_good;
    cfg.faults.link.wan.ge_loss_good = o.wan.ge_loss_good;
    cfg.faults.link.wan.ge_loss_bad = o.wan.ge_loss_bad;
    cfg.degradation.enabled = o.degrade;
    cfg.degradation.start_delay = Duration::Seconds(2);
    if (o.wan.queue_bytes.count() > 0) {
      cfg.degradation.level_step = Bytes::Of(std::max<int64_t>(
          Bytes::KiB(8).count(), o.wan.queue_bytes.count() / 4));
    }
  }
  cfg.attribution = attribution;
  return cfg;
}

// Bare-kernel replay: a Simulator holding `depth` pending events, each of which
// reschedules one successor at a random future instant, so the queue stays at the
// workload's recorded depth for `events` dispatches.
double KernelNsPerEvent(size_t depth, uint64_t events, uint64_t seed) {
  struct Ctx {
    Simulator sim;
    Rng rng;
    uint64_t left = 0;
    int64_t spread_us = 1;
  };
  struct Hop {
    Ctx* c;
    void operator()() const {
      if (c->left > 0) {
        --c->left;
        c->sim.Schedule(Duration::Micros(1 + static_cast<int64_t>(c->rng.NextBelow(
                            static_cast<uint64_t>(c->spread_us)))),
                        Hop{c});
      }
    }
  };
  depth = std::max<size_t>(depth, 1);
  auto ctx = std::make_unique<Ctx>();
  ctx->rng = Rng(seed);
  ctx->left = events;
  ctx->spread_us = 2 * static_cast<int64_t>(depth);
  for (size_t i = 0; i < depth; ++i) {
    ctx->sim.Schedule(
        Duration::Micros(static_cast<int64_t>(ctx->rng.NextBelow(
            static_cast<uint64_t>(ctx->spread_us)))),
        Hop{ctx.get()});
  }
  Clock::time_point t0 = Clock::now();
  uint64_t executed = ctx->sim.Run();
  return NsPer(t0, static_cast<double>(executed));
}

// Scheduler decisions on a run queue populated with the workload's thread mix: every
// user's keystroke-pipeline threads plus its burst thread when bursts are on.
double SchedDecisionNs(const OsProfile& profile, const ConsolidationOptions& o,
                       int64_t* threads_out) {
  std::unique_ptr<Scheduler> sched = profile.MakeScheduler();
  std::vector<std::unique_ptr<Thread>> threads;
  uint64_t id = 1;
  for (int u = 0; u < o.users; ++u) {
    for (const PipelineHop& hop : profile.keystroke_pipeline) {
      threads.push_back(std::make_unique<Thread>(id++, hop.name, hop.cls, hop.priority));
    }
    if (o.burst_cpu > Duration::Zero()) {
      threads.push_back(std::make_unique<Thread>(id++, "app-burst", ThreadClass::kBatch,
                                                 profile.sink_priority));
    }
  }
  for (auto& t : threads) {
    sched->OnReady(*t, WakeReason::kOther);
  }
  constexpr int kDecisions = 200000;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kDecisions; ++i) {
    Thread* t = sched->PickNext();
    sched->OnQuantumExpired(*t);
  }
  *threads_out = static_cast<int64_t>(threads.size());
  return NsPer(t0, kDecisions);
}

// Batched encode on a logged-in session's own protocol pipeline: a typical update mix
// (text, fills, a scroll, cached and uncached rasters) submitted 32 draws at a time.
double EncodeNsPerDraw(DisplayProtocol& protocol, int64_t draws) {
  std::vector<DrawCommand> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(DrawCommand::Text(12, 8 * i, 16));
    batch.push_back(DrawCommand::Rect(120, 24));
    batch.push_back(DrawCommand::CopyArea(640, 400));
    batch.push_back(DrawCommand::PutImage(
        BitmapRef::Make(static_cast<uint64_t>(i % 4) + 1, 64, 64, 0.85)));
  }
  const int64_t rounds = std::max<int64_t>(1, draws / static_cast<int64_t>(batch.size()));
  Clock::time_point t0 = Clock::now();
  for (int64_t r = 0; r < rounds; ++r) {
    protocol.SubmitDrawBatch(std::span<const DrawCommand>(batch));
    protocol.Flush();
  }
  return NsPer(t0, static_cast<double>(rounds) * static_cast<double>(batch.size()));
}

}  // namespace

ProbeResults RunProbes(const ConsolidationOptions& o, const ProbeSizes& sizes) {
  ProbeResults p;
  const OsProfile profile = OsProfile::Tse();

  // Server construction and Login replay with the workload's own server config.
  Simulator sim;
  LatencyAttribution attribution;
  Clock::time_point t0 = Clock::now();
  Server server(sim, profile, ServerConfigFor(o, &attribution));
  p.server_ctor_ms = SecondsSince(t0) * 1e3;
  server.StartDaemons();
  std::vector<double> login_us;
  for (int u = 0; u < o.users; ++u) {
    Clock::time_point l0 = Clock::now();
    server.Login();
    login_us.push_back(SecondsSince(l0) * 1e6);
  }
  p.logins = o.users;
  p.login_us_p50 = Quantile(login_us, 0.50);
  p.login_us_p99 = Quantile(login_us, 0.99);

  // Prefault of one login-sized range per user into a pager of the workload's size.
  {
    const Session& first = *server.sessions().front();
    const int64_t login_pages =
        (first.private_memory().count() + 4095) / 4096;
    Simulator psim;
    Disk disk(psim, Rng(o.seed));
    PagerConfig pc;
    pc.total_frames = server.pager().total_frames();
    Pager pager(psim, disk, pc);
    Clock::time_point f0 = Clock::now();
    for (int u = 0; u < o.users; ++u) {
      AddressSpace* as = pager.CreateAddressSpace("probe", /*interactive=*/false);
      pager.Prefault(*as, 0, static_cast<size_t>(login_pages));
    }
    p.prefault_pages = login_pages * o.users;
    p.prefault_ns_per_page = NsPer(f0, static_cast<double>(p.prefault_pages));
  }

  p.encode_draws = std::clamp<int64_t>(sizes.proto_messages, 4096, 65536);
  p.encode_ns_per_draw =
      EncodeNsPerDraw(server.sessions().front()->protocol(), p.encode_draws);
  p.sched_decision_ns = SchedDecisionNs(profile, o, &p.sched_threads);
  p.kernel_ns_per_event = KernelNsPerEvent(sizes.pending_max,
                                           std::min<uint64_t>(sizes.events, 1000000), o.seed);
  return p;
}

}  // namespace perfbench
