#include "src/core/run_support.h"

#include <algorithm>

namespace tcs {
namespace run_support {

std::string ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kRdp:
      return "RDP";
    case ProtocolKind::kX:
      return "X";
    case ProtocolKind::kLbx:
      return "LBX";
    case ProtocolKind::kSlim:
      return "SLIM";
    case ProtocolKind::kVnc:
      return "VNC";
  }
  return "?";
}

void AttachSimHook(Simulator& sim, const ObsConfig* obs) {
  if (obs == nullptr || obs->tracer == nullptr ||
      !obs->tracer->Enabled(TraceCategory::kSim)) {
    return;
  }
  Tracer* tracer = obs->tracer;
  TraceTrack track = tracer->RegisterTrack("sim", "kernel");
  sim.set_dispatch_hook([tracer, track](TimePoint when, size_t pending) {
    tracer->Counter(TraceCategory::kSim, "pending_events", track, when,
                    static_cast<double>(pending));
  });
}

void ApplyWan(ServerConfig& cfg, const WanProfile& profile, bool degrade, uint64_t seed) {
  cfg.faults.seed = seed ^ 0xFA017u;
  // An all-empty profile injects nothing: LinkFaultPlan.Any() stays false, no injector or
  // reliable channel is constructed, and the run is byte-identical to a LAN run.
  cfg.faults.link.wan = profile;
  cfg.degradation.enabled = degrade;
  // Arm the controller only once the warm-up (login storm, first desktop paint) is over,
  // so its ledger records WAN congestion rather than setup transients.
  cfg.degradation.start_delay = Duration::Seconds(2);
  if (profile.queue_bytes.count() > 0) {
    // Calibrate the pressure ladder to the bottleneck queue: a backlog pinned at the
    // drop-tail bound (bufferbloat saturation) engages the deepest level, and each
    // quarter of the queue engages one more step.
    cfg.degradation.level_step = Bytes::Of(
        std::max<int64_t>(Bytes::KiB(8).count(), profile.queue_bytes.count() / 4));
  }
}

std::unique_ptr<PeriodicSampler> StartSampler(Simulator& sim, const ObsConfig* obs) {
  if (obs == nullptr || obs->metrics == nullptr) {
    return nullptr;
  }
  auto sampler = std::make_unique<PeriodicSampler>(sim, *obs->metrics,
                                                   obs->sample_period, obs->tracer);
  sampler->Start();
  return sampler;
}

}  // namespace run_support
}  // namespace tcs
