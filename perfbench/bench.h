// Host-time benchmark for tcs: shared types for the workloads and layer probes.
//
// Every number here is host (wall-clock) time unless its name says otherwise; simulated
// time only enters as the denominator of wall_per_sim_s and as workload shape.

#ifndef TCS_PERFBENCH_BENCH_H_
#define TCS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/admission.h"
#include "src/sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Named metrics with units, rendered as the result line's "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// FNV-1a 64 over a report string with every "wall_ms" value zeroed (the one
// non-deterministic report field), as 16 hex digits.
std::string ReportDigest(const std::string& report_json);

// Per-event host timer installed through Simulator::set_dispatch_hook. Each dispatch
// records the host time since the previous dispatch (or since Arm(), for the first event
// of a RunUntil call). The hook measures this on its own; the traced run compares the
// sum with the phase spans, which the benchmark measures around its calls.
class DispatchTimer {
 public:
  DispatchTimer() = default;
  // The installed hook holds `this`.
  DispatchTimer(const DispatchTimer&) = delete;
  DispatchTimer& operator=(const DispatchTimer&) = delete;

  void Install(tcs::Simulator& sim);
  // Call right before each RunUntil.
  void Arm() { prev_ = Clock::now(); }

  uint64_t events() const { return events_; }
  size_t pending_max() const { return pending_max_; }
  double sum_s() const { return static_cast<double>(sum_ns_) * 1e-9; }
  // Host time of each dispatched event, in nanoseconds.
  const std::vector<double>& deltas_ns() const { return deltas_ns_; }

 private:
  Clock::time_point prev_;
  uint64_t events_ = 0;
  size_t pending_max_ = 0;
  int64_t sum_ns_ = 0;
  std::vector<double> deltas_ns_;
};

// Host time of one user operation, split at the calls the benchmark makes.
struct Phases {
  double setup_s = 0.0;     // ConsolidationRun constructor(s)
  double warmup_s = 0.0;    // virtual [0, start_delay): daemons + login traffic
  double simulate_s = 0.0;  // virtual [start_delay, end], incl. checkpoints on rewind
  double collect_s = 0.0;   // Finish()
  double rewind_s = 0.0;    // rewind-64 only: fork ctor + Restore + replay + Finish
  void Add(const Phases& o) {
    setup_s += o.setup_s;
    warmup_s += o.warmup_s;
    simulate_s += o.simulate_s;
    collect_s += o.collect_s;
    rewind_s += o.rewind_s;
  }
};

// Layer counters and spans gathered by a traced iteration. Counts are simulated
// quantities (deterministic per seed); *_s/*_ms fields are host time.
struct LayerStats {
  Phases phases;
  DispatchTimer timer;
  uint64_t dispatched = 0;   // events the timed simulators dispatched (hook must see all)
  double timed_run_s = 0.0;  // host time of the traced operation, end to end
  double sim_seconds = 0.0;  // simulated seconds covered
  double cpu_busy_s = 0.0;   // simulated CPU busy seconds (busy_frac = this / sim_seconds)
  int64_t mem_faults = 0, mem_evictions = 0, mem_disk_pages_read = 0;
  int64_t mem_coalesced_waits = 0, mem_frames_used = 0, mem_total_frames = 0;
  int64_t net_frames_sent = 0, net_frames_lost = 0, net_retransmissions = 0;
  int64_t net_frames_shed = 0, net_wan_queue_drops = 0;
  int64_t proto_messages = 0, proto_cache_hits = 0, proto_cache_lookups = 0;
  int64_t obs_interactions = 0, obs_trace_events = 0;
  std::vector<double> core_probe_ms;
  std::vector<double> snapshot_save_ms;
  double snapshot_restore_ms = 0.0;
  double snapshot_blob_kib = 0.0;
  double snapshot_ring_mib = 0.0;
};

// One checked user operation.
struct Iteration {
  bool ok = true;
  std::string error;   // why the output check failed (empty when ok)
  std::string digest;  // ReportDigest of the operation's reports
  double run_s = 0.0;
  double setup_s = 0.0;
  double window_s = 0.0;     // host time from end of setup to end of simulating
  double sim_seconds = 0.0;  // simulated seconds in that window
  double events = 0.0;       // events dispatched in that window
};

struct ProbeResults {
  double server_ctor_ms = 0.0;
  double login_us_p50 = 0.0;
  double login_us_p99 = 0.0;
  int64_t logins = 0;
  double prefault_ns_per_page = 0.0;
  int64_t prefault_pages = 0;
  double kernel_ns_per_event = 0.0;
  double sched_decision_ns = 0.0;
  int64_t sched_threads = 0;
  double encode_ns_per_draw = 0.0;
  int64_t encode_draws = 0;
};

// The traced run's counts that size the layer probes.
struct ProbeSizes {
  size_t pending_max = 0;
  uint64_t events = 0;
  int64_t proto_messages = 0;
};

// Runs every layer probe on the TSE profile (every workload's first OS), sized from
// `options` (the largest consolidation the workload builds) and `sizes`.
ProbeResults RunProbes(const tcs::ConsolidationOptions& options, const ProbeSizes& sizes);

// The host-speed loops a workload's end-to-end times are normalised by (main.cc): the
// kernel loop alone, or the kernel loop plus the encode loop for a workload whose time
// is mostly snapshot encoding.
enum class Calibration { kKernel, kKernelAndEncode };

// A workload: one user operation, repeated. `traced` non-null installs the dispatch
// timer and fills layer stats; the end-to-end run never passes it.
struct Workload {
  const char* name;
  Iteration (*run)(uint64_t seed, LayerStats* traced);
  tcs::ConsolidationOptions (*probe_options)(uint64_t seed);
  Calibration calibration;
};

// One consolidation as a user operation: constructor, warm-up, simulate, Finish and
// teardown, with an attribution engine attached as capacity probes attach one. Checks
// the conservation ledgers; the digest is of the result's JSON report.
Iteration RunConsolidationOp(const tcs::OsProfile& profile,
                             const tcs::ConsolidationOptions& options, LayerStats* traced);

const Workload* FindWorkload(const std::string& name);

// Runs one operation, turning any exception into a failed iteration.
Iteration RunChecked(const Workload& w, uint64_t seed, LayerStats* traced);

}  // namespace perfbench

#endif  // TCS_PERFBENCH_BENCH_H_
