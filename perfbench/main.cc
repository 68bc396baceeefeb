// tcs_perfbench: runs one benchmark workload for a fixed host-time budget and prints one
// JSON result line (the last line of stdout).
//
//   tcs_perfbench --workload NAME --seed N --seconds S --trace 0|1 --reference FILE
//   tcs_perfbench --workload NAME --seed N --print-digest
//   tcs_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate traced run that
// reports the per-layer metrics. The seed is the workload's program seed, so a traced
// run's counts repeat exactly. Every iteration's simulated output is checked: its report
// digest against FILE (when FILE lists the workload and seed) and against the run's
// first iteration (two runs of one seed must agree), plus the workload's ledgers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <malloc.h>
#include <memory_resource>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(items_[i].value) ? items_[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

std::string ReportDigest(const std::string& report_json) {
  static const std::string kKey = "\"wall_ms\":";
  uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  };
  for (size_t i = 0; i < report_json.size();) {
    if (report_json.compare(i, kKey.size(), kKey) == 0) {
      for (char c : kKey) feed(c);
      feed('0');
      i += kKey.size();
      while (i < report_json.size() && report_json[i] != ',' && report_json[i] != '}') {
        ++i;
      }
      continue;
    }
    feed(report_json[i++]);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void DispatchTimer::Install(tcs::Simulator& sim) {
  sim.set_dispatch_hook([this](tcs::TimePoint, size_t pending_after) {
    Clock::time_point now = Clock::now();
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev_).count();
    prev_ = now;
    sum_ns_ += ns;
    ++events_;
    pending_max_ = std::max(pending_max_, pending_after);
    deltas_ns_.push_back(static_cast<double>(ns));
  });
}

namespace {

// Reference digests of one workload, by seed.
using References = std::map<uint64_t, std::string>;

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_digest;      // of the first passing iteration
  std::vector<Iteration> timed;  // passing iterations after the warm-up
  std::vector<double> calibration_s;
};

// The host is shared, and its speed drifts by up to 2x over minutes, moving every
// workload with it. Before every iteration the benchmark times fixed loops that do not
// involve tcs, and scales the end-to-end times by their nominal time over the run's
// median loop time: host seconds at the loops' nominal speed. Host drift moves the
// workload and the loops together and largely cancels; a change to tcs moves only the
// workload. Two loops, because the drift slows memory-bound work far more than work that
// stays in the core:
//  - the kernel loop, a 64k-entry binary heap driven like an event queue plus hash-map
//    updates: the access and allocation mix of the simulator's hot paths. Its containers
//    allocate from an arena of their own, so the heap state tcs leaves behind cannot
//    change its time;
//  - the encode loop, LEB128 varints written into a small buffer: the byte encoding that
//    dominates Snapshot(). A workload whose time is mostly checkpointing is normalised by
//    the sum of both loops.
constexpr double kNominalKernelLoopS = 0.019;
constexpr double kNominalEncodeLoopS = 0.05;
// Calibration time before each iteration, as a share of the previous iteration's time.
constexpr double kCalibrationShare = 0.3;

double KernelLoopSeconds() {
  constexpr size_t kArenaBytes = 8u << 20;  // the loop uses about 4.5 MiB of it
  static std::byte* const arena = new std::byte[kArenaBytes];
  Clock::time_point t0 = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena, kArenaBytes,
                                           std::pmr::null_memory_resource());
  std::pmr::vector<uint64_t> storage(&pool);
  storage.reserve(65536 + 1);
  std::priority_queue<uint64_t, std::pmr::vector<uint64_t>, std::greater<uint64_t>> heap(
      std::greater<uint64_t>(), std::move(storage));
  std::pmr::unordered_map<uint64_t, uint64_t> table(&pool);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 65536; ++i) {
    heap.push(next() % 131072);
  }
  for (int i = 0; i < 100000; ++i) {
    const uint64_t now = heap.top();
    heap.pop();
    heap.push(now + 1 + next() % 131072);
    table[x & 0xFFFF] += now;
    sum += now;
  }
  volatile uint64_t sink = sum + table.size();
  (void)sink;
  return SecondsSince(t0);
}

double EncodeLoopSeconds() {
  Clock::time_point t0 = Clock::now();
  uint8_t buffer[16384];
  size_t at = 0;
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t v = x >> (x & 63);
    if (at > sizeof(buffer) - 10) {
      at = 0;
    }
    while (v >= 0x80) {
      buffer[at++] = static_cast<uint8_t>(v | 0x80);
      v >>= 7;
    }
    buffer[at++] = static_cast<uint8_t>(v);
  }
  volatile uint8_t sink = buffer[x & 1023];
  (void)sink;
  return SecondsSince(t0);
}

// One pass of the workload's loops, in seconds.
double CalibrationPassSeconds(Calibration c) {
  double s = KernelLoopSeconds();
  return c == Calibration::kKernelAndEncode ? s + EncodeLoopSeconds() : s;
}

// The host's speed swings within tens of milliseconds, so one pass is a noisy sample of
// it. Repeats passes for at least `min_s` (at least one pass) and returns their mean.
double CalibrationSeconds(Calibration c, double min_s) {
  double total = 0.0;
  int passes = 0;
  do {
    total += CalibrationPassSeconds(c);
    ++passes;
  } while (total < min_s);
  return total / passes;
}

double NominalCalibrationSeconds(Calibration c) {
  return kNominalKernelLoopS +
         (c == Calibration::kKernelAndEncode ? kNominalEncodeLoopS : 0.0);
}

// Tallies one iteration of `seed` after checking its digest against the stored
// reference (when there is one) and against the run's first passing iteration.
void Record(Iteration it, uint64_t seed, const References& refs, bool timed, Tally& t) {
  ++t.attempted;
  std::string& first = t.first_digest;
  if (it.ok && first.empty()) {
    first = it.digest;
  }
  auto ref = refs.find(seed);
  if (it.ok && ref != refs.end() && it.digest != ref->second) {
    it.ok = false;
    it.error = "report digest " + it.digest + " != reference " + ref->second;
  }
  if (it.ok && it.digest != first) {
    it.ok = false;
    it.error = "report digest " + it.digest + " differs from this seed's first run " + first;
  }
  if (!it.ok) {
    ++t.failed;
    std::fprintf(stderr, "iteration %lld failed: %s\n",
                 static_cast<long long>(t.attempted), it.error.c_str());
    return;
  }
  if (timed) {
    t.timed.push_back(std::move(it));
  }
}

// Runs `w` on `seed` until `deadline`, at least `min_iterations` times; the first
// iteration is a warm-up that is checked but not timed.
Tally RunLoop(const Workload& w, uint64_t seed, const References& refs,
              Clock::time_point deadline, uint64_t min_iterations) {
  Tally t;
  double last_s = 0.0;  // host time of the previous iteration
  for (uint64_t i = 0; i < min_iterations || Clock::now() < deadline; ++i) {
    // Hand the freed heap back to the kernel, so every iteration starts as a fresh
    // process would and the peak resident set is one operation's, not the allocator's
    // history of earlier ones.
    malloc_trim(0);
    t.calibration_s.push_back(
        CalibrationSeconds(w.calibration, kCalibrationShare * last_s));
    Clock::time_point t0 = Clock::now();
    Record(RunChecked(w, seed, nullptr), seed, refs, i > 0, t);
    last_s = SecondsSince(t0);
  }
  return t;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// "<workload> <seed> <digest>" lines; '#' starts a comment.
References LoadReferences(const std::string& path, const std::string& workload) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, digest;
    unsigned long long s = 0;
    if (!line.empty() && line[0] != '#' && fields >> name >> s >> digest &&
        name == workload) {
      refs[s] = digest;
    }
  }
  return refs;
}

void PrintResult(const Tally& t, const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              t.failed == 0 && t.attempted > 0 ? "true" : "false",
              static_cast<long long>(t.attempted), static_cast<long long>(t.failed),
              metrics.Json().c_str());
}

void EndToEnd(const Workload& w, uint64_t seed, double seconds, const References& refs) {
  const auto budget =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Tally t = RunLoop(w, seed, refs, Clock::now() + budget, 2);
  std::vector<double> setup, per_sim, eps, run;
  for (const Iteration& it : t.timed) {
    setup.push_back(it.setup_s);
    per_sim.push_back(it.window_s / it.sim_seconds);
    eps.push_back(it.events / it.window_s);
    run.push_back(it.run_s);
  }
  const double calibration = Median(t.calibration_s);
  const double scale = NominalCalibrationSeconds(w.calibration) / calibration;
  // The unscaled medians, so a comparison can see what the scaling did.
  std::fprintf(stderr,
               "raw medians: setup_s=%.6g wall_per_sim_s=%.6g events_per_s=%.6g run_s=%.6g "
               "calibration_s=%.6g (scale %.4f)\n",
               Median(setup), Median(per_sim), Median(eps), Median(run), calibration, scale);
  MetricSet m;
  m.Add("setup_s", Median(setup) * scale, "s");
  m.Add("wall_per_sim_s", Median(per_sim) * scale, "s/s");
  m.Add("events_per_s", Median(eps) / scale, "1/s");
  m.Add("run_s", Median(run) * scale, "s");
  m.Add("peak_rss_mib", PeakRssMib(), "MiB");
  PrintResult(t, m);
}

using Sample = std::vector<std::pair<std::string, double>>;

// The per-iteration layer metrics of one traced operation.
Sample LayerSample(const LayerStats& st) {
  const Phases& ph = st.phases;
  const DispatchTimer& tm = st.timer;
  double save_s = 0.0;
  for (double ms : st.snapshot_save_ms) save_s += ms * 1e-3;
  // Spans around the RunUntil calls, less the checkpoints taken between them: the time
  // the dispatch hook should account for.
  const double simulating_s = ph.warmup_s + ph.simulate_s - save_s;
  // The operation rebuilt from separately measured parts: constructor, hook-timed
  // events, checkpoint saves, Finish, and rewind spans.
  const double parts_s = ph.setup_s + tm.sum_s() + save_s + ph.collect_s + ph.rewind_s;
  return {
      {"phase.setup_s", ph.setup_s},
      {"phase.warmup_s", ph.warmup_s},
      {"phase.simulate_s", ph.simulate_s},
      {"phase.collect_s", ph.collect_s},
      {"phase.rewind_s", ph.rewind_s},
      {"phase.run_s", st.timed_run_s},
      {"phase.coverage", st.timed_run_s > 0 ? parts_s / st.timed_run_s : 0.0},
      {"sim.events", static_cast<double>(tm.events())},
      {"sim.pending_max", static_cast<double>(tm.pending_max())},
      {"sim.dispatch_ns.p50", Quantile(tm.deltas_ns(), 0.50)},
      {"sim.dispatch_ns.p99", Quantile(tm.deltas_ns(), 0.99)},
      {"sim.dispatch_s", tm.sum_s()},
      {"sim.dispatch_coverage", simulating_s > 0 ? tm.sum_s() / simulating_s : 0.0},
      {"mem.faults", static_cast<double>(st.mem_faults)},
      {"mem.evictions", static_cast<double>(st.mem_evictions)},
      {"mem.disk_pages_read", static_cast<double>(st.mem_disk_pages_read)},
      {"mem.coalesced_waits", static_cast<double>(st.mem_coalesced_waits)},
      {"mem.frames_used", static_cast<double>(st.mem_frames_used)},
      {"mem.total_frames", static_cast<double>(st.mem_total_frames)},
      {"net.frames_sent", static_cast<double>(st.net_frames_sent)},
      {"net.frames_lost", static_cast<double>(st.net_frames_lost)},
      {"net.retransmissions", static_cast<double>(st.net_retransmissions)},
      {"net.frames_shed", static_cast<double>(st.net_frames_shed)},
      {"net.wan_queue_drops", static_cast<double>(st.net_wan_queue_drops)},
      {"cpu.busy_frac", st.sim_seconds > 0 ? st.cpu_busy_s / st.sim_seconds : 0.0},
      {"cpu.sim_s", st.sim_seconds},
      {"proto.messages", static_cast<double>(st.proto_messages)},
      {"proto.cache_hit_ratio",
       st.proto_cache_lookups > 0 ? static_cast<double>(st.proto_cache_hits) /
                                        static_cast<double>(st.proto_cache_lookups)
                                  : 0.0},
      {"proto.cache_lookups", static_cast<double>(st.proto_cache_lookups)},
      {"obs.interactions", static_cast<double>(st.obs_interactions)},
      {"obs.collect_ms", ph.collect_s * 1e3},
      {"obs.trace_events", static_cast<double>(st.obs_trace_events)},
      {"core.probes", static_cast<double>(st.core_probe_ms.size())},
      {"core.probe_ms.p50", Quantile(st.core_probe_ms, 0.50)},
      {"core.probe_ms.max", Quantile(st.core_probe_ms, 1.0)},
      {"snapshot.count", static_cast<double>(st.snapshot_save_ms.size())},
      {"snapshot.save_ms.p50", Quantile(st.snapshot_save_ms, 0.50)},
      {"snapshot.save_ms.p99", Quantile(st.snapshot_save_ms, 0.99)},
      {"snapshot.restore_ms", st.snapshot_restore_ms},
      {"snapshot.blob_kib", st.snapshot_blob_kib},
      {"snapshot.ring_mib", st.snapshot_ring_mib},
      {"rewind.replay_s", ph.rewind_s},
  };
}

// Unit of a per-layer metric, from its name's suffix or layer.
std::string UnitOf(const std::string& name) {
  auto ends = [&name](const char* s) {
    std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_ms") || name.find("_ms.") != std::string::npos) return "ms";
  if (ends("_us") || name.find("_us.") != std::string::npos) return "us";
  if (name.find("_ns") != std::string::npos) return "ns";
  if (ends("_kib")) return "KiB";
  if (ends("_mib")) return "MiB";
  if (ends("coverage") || ends("ratio") || ends("frac") || ends("share")) return "ratio";
  return "count";
}

// Checks the traced run's own consistency: the dispatch hook fired once per event, its
// per-event times sum to the spans around the RunUntil calls, and the separately
// measured parts add up to the operation's span.
std::string TraceConsistencyError(const LayerStats& st, const Sample& s) {
  std::map<std::string, double> v(s.begin(), s.end());
  if (st.dispatched == 0 || st.timer.events() != st.dispatched) {
    return "dispatch hook saw " + std::to_string(st.timer.events()) + " of " +
           std::to_string(st.dispatched) + " events";
  }
  if (v["sim.dispatch_coverage"] < 0.9 || v["sim.dispatch_coverage"] > 1.1) {
    return "per-event times do not sum to the time spent simulating";
  }
  if (v["phase.coverage"] < 0.9 || v["phase.coverage"] > 1.1) {
    return "the measured parts do not add up to the operation";
  }
  return "";
}

void Traced(const Workload& w, uint64_t seed, double seconds, const References& refs) {
  const Clock::time_point start = Clock::now();
  // Leave room for the layer probes after the paired iterations.
  const double loop_budget = std::max(0.0, seconds - 2.0);
  auto elapsed = [&start] { return SecondsSince(start); };
  Tally t;
  Record(RunChecked(w, seed, nullptr), seed, refs, false, t);  // warm-up
  std::vector<double> untraced_run, traced_run;
  std::vector<Sample> samples;
  ProbeSizes sizes;
  for (int pair = 0; pair < 1 || elapsed() < loop_budget; ++pair) {
    t.calibration_s.push_back(CalibrationSeconds(w.calibration, 0.0));
    for (int k = 0; k < 2; ++k) {
      // Alternate which side of the pair runs first.
      if ((k == 0) == (pair % 2 == 0)) {
        Iteration it = RunChecked(w, seed, nullptr);
        double run_s = it.run_s;
        bool ok = it.ok;
        Record(std::move(it), seed, refs, false, t);
        if (ok) untraced_run.push_back(run_s);
        continue;
      }
      LayerStats st;
      Iteration it = RunChecked(w, seed, &st);
      Sample sample = LayerSample(st);
      if (it.ok) {
        std::string err = TraceConsistencyError(st, sample);
        if (!err.empty()) {
          it.ok = false;
          it.error = err;
        }
      }
      if (it.ok) {
        traced_run.push_back(st.timed_run_s);
        samples.push_back(std::move(sample));
      }
      Record(std::move(it), seed, refs, false, t);
      sizes = {st.timer.pending_max(), st.timer.events(), st.proto_messages};
    }
  }

  MetricSet m;
  std::map<std::string, std::vector<double>> by_name;
  for (const Sample& s : samples) {
    for (const auto& [name, value] : s) by_name[name].push_back(value);
  }
  const LayerStats empty;
  for (const auto& entry : LayerSample(empty)) {
    m.Add(entry.first, Median(by_name[entry.first]), UnitOf(entry.first));
  }

  ProbeResults p;
  ++t.attempted;
  try {
    p = RunProbes(w.probe_options(seed), sizes);
  } catch (const std::exception& e) {
    ++t.failed;
    std::fprintf(stderr, "layer probes threw: %s\n", e.what());
  }
  const double dispatch_s = Median(by_name["sim.dispatch_s"]);
  const double events = Median(by_name["sim.events"]);
  m.Add("sim.kernel_ns_per_event", p.kernel_ns_per_event, "ns");
  m.Add("sim.kernel_share",
        dispatch_s > 0 ? p.kernel_ns_per_event * 1e-9 * events / dispatch_s : 0.0, "ratio");
  m.Add("session.server_ctor_ms", p.server_ctor_ms, "ms");
  m.Add("session.login_us.p50", p.login_us_p50, "us");
  m.Add("session.login_us.p99", p.login_us_p99, "us");
  m.Add("session.logins", static_cast<double>(p.logins), "count");
  m.Add("mem.prefault_ns_per_page", p.prefault_ns_per_page, "ns");
  m.Add("mem.prefault_pages", static_cast<double>(p.prefault_pages), "count");
  m.Add("cpu.sched_decision_ns", p.sched_decision_ns, "ns");
  m.Add("cpu.sched_threads", static_cast<double>(p.sched_threads), "count");
  m.Add("proto.encode_ns_per_draw", p.encode_ns_per_draw, "ns");
  m.Add("proto.encode_draws", static_cast<double>(p.encode_draws), "count");
  const double untraced = Median(untraced_run);
  m.Add("trace.overhead_ratio", untraced > 0 ? Median(traced_run) / untraced - 1.0 : 0.0,
        "ratio");
  m.Add("trace.untraced_run_s", untraced, "s");
  m.Add("bench.calibration_ms", Median(t.calibration_s) * 1e3, "ms");
  m.Add("check.failed_ratio",
        static_cast<double>(t.failed) / static_cast<double>(std::max<int64_t>(1, t.attempted)),
        "ratio");
  m.Add("check.attempted", static_cast<double>(t.attempted), "count");
  PrintResult(t, m);
}

// A small consolidation (8 LAN users, 2 simulated seconds) for the self-test.
Iteration MiniConsolidation(uint64_t seed, LayerStats* traced) {
  tcs::ConsolidationOptions o;
  o.users = 8;
  o.duration = tcs::Duration::Seconds(2);
  o.seed = seed;
  return RunConsolidationOp(tcs::OsProfile::Tse(), o, traced);
}

// The same with an input the library rejects (no users): it throws ConfigError.
Iteration ThrowingConsolidation(uint64_t seed, LayerStats* traced) {
  tcs::ConsolidationOptions o;
  o.users = 0;
  o.seed = seed;
  return RunConsolidationOp(tcs::OsProfile::Tse(), o, traced);
}

// The checks must count a wrong reference digest and a throwing input as failures of
// every iteration, keep running after them, and pass a correct reference.
int SelfTest() {
  const Workload mini{"mini", MiniConsolidation, nullptr, Calibration::kKernel};
  const Workload throwing{"throwing", ThrowingConsolidation, nullptr, Calibration::kKernel};
  const uint64_t seed = 1;
  std::string digest = RunChecked(mini, seed, nullptr).digest;
  const References good{{seed, digest}};
  if (!digest.empty()) {
    digest.back() = digest.back() == '0' ? '1' : '0';
  }
  const References corrupted{{seed, digest}};
  const Clock::time_point now = Clock::now();
  constexpr int64_t n = 3;
  struct Case {
    const char* name;
    Tally tally;
    int64_t expect_failed;
  };
  Case cases[] = {
      {"correct reference", RunLoop(mini, seed, good, now, n), 0},
      {"corrupted reference", RunLoop(mini, seed, corrupted, now, n), n},
      {"throwing input", RunLoop(throwing, seed, {}, now, n), n},
  };
  bool pass = true;
  for (const Case& c : cases) {
    bool ok = c.tally.attempted == n && c.tally.failed == c.expect_failed;
    std::printf("self-test %-20s attempted=%lld failed=%lld expected_failed=%lld %s\n",
                c.name, static_cast<long long>(c.tally.attempted),
                static_cast<long long>(c.tally.failed),
                static_cast<long long>(c.expect_failed), ok ? "ok" : "FAIL");
    pass = pass && ok;
  }
  std::printf("self-test %s\n", pass ? "passed" : "FAILED");
  return pass ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tcs_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--reference FILE] | --workload NAME --seed N --print-digest | "
               "--self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      return Usage();
    }
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (a == "--self-test" || a == "--print-digest") {
      args[a.substr(2)] = "1";
    } else if (i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.count("self-test")) {
    return SelfTest();
  }
  const Workload* w = FindWorkload(args["workload"]);
  if (w == nullptr || !args.count("seed")) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (args.count("print-digest")) {
    Iteration it = RunChecked(*w, seed, nullptr);
    if (!it.ok) {
      std::fprintf(stderr, "%s seed %llu failed: %s\n", w->name,
                   static_cast<unsigned long long>(seed), it.error.c_str());
      return 1;
    }
    std::printf("%s %llu %s\n", w->name, static_cast<unsigned long long>(seed),
                it.digest.c_str());
    return 0;
  }
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  if (!(seconds > 0)) {
    return Usage();
  }
  const References refs =
      args.count("reference") ? LoadReferences(args["reference"], w->name) : References{};
  if (!refs.count(seed)) {
    std::fprintf(stderr, "no reference digests for %s seed %llu: checking determinism and "
                         "ledgers only\n",
                 w->name, static_cast<unsigned long long>(seed));
  }
  if (args["trace"] == "1") {
    Traced(*w, seed, seconds, refs);
  } else {
    EndToEnd(*w, seed, seconds, refs);
  }
  return 0;
}
