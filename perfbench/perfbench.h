// Shared declarations of the repository benchmark (see README.md here).
//
// The benchmark drives the simulator from outside: it builds a device per
// workload, replays a seeded open-loop request stream through Ssd::Submit,
// and times calls into each layer's public functions. Nothing under src/ is
// instrumented for it.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/ftl_factory.h"
#include "src/obs/latency_histogram.h"
#include "src/ssd/ssd.h"
#include "src/workload/tenant_mix.h"

namespace perfbench {

using tpftl::MicroSec;

// --- workloads -------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  tpftl::FtlKind ftl = tpftl::FtlKind::kTpftl;
  uint32_t channels = 1;
  uint32_t dies_per_channel = 1;
  uint64_t device_bytes = 0;
  std::vector<tpftl::TenantSpec> tenants;
  uint32_t victim = 0;  // Tenant whose tail is victim_tail_us.
  // Admission bound: an arrival that would wait longer than this is dropped.
  MicroSec max_queue_us = 0.0;
  // Requests replayed (with admission) during set-up, before the stats reset.
  uint64_t warmup_requests = 0;
  // Offered requests in one simulated-clock window, and the shorter window
  // of the traced run.
  uint64_t window_requests = 0;
  uint64_t traced_window_requests = 0;
  // Independent windows per untraced run (each on its own device, with
  // inputs from its own sub-seed of --seed); the simulated metrics pool them.
  int windows = 1;
  // Seed of the chunk-shuffled precondition fill.
  uint64_t fill_seed = 0;
};

// Extent size of the chunk-shuffled precondition fill (the runner's default).
constexpr uint64_t kFillChunkPages = 4;

// Builds the named workload at the given total offered rate (requests per
// simulated second). Aborts on an unknown name.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed, double rate_rps);
// Seed of window `k` of a run with --seed `seed` (window 0 uses the seed).
uint64_t WindowSeed(uint64_t seed, int k);
tpftl::SsdConfig DeviceConfig(const WorkloadSpec& spec, bool trace_phases);

// --- host-clock spans -------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Cost of one steady_clock::now() pair, subtracted from per-call spans.
double TimerOverheadNs();

// Per-call span accumulator: count and summed duration, timer overhead
// removed.
struct SpanStat {
  uint64_t calls = 0;
  double total_ns = 0.0;
  double MeanNs() const { return calls > 0 ? total_ns / static_cast<double>(calls) : 0.0; }
};

// One benchmark-side span: name id, start (ns since the trace epoch),
// duration, and the request it belongs to (or ~0 for set-up spans).
struct Span {
  uint32_t name = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  uint32_t NameId(const std::string& name);
  void Add(uint32_t name, uint64_t request, Clock::time_point start, Clock::time_point end);
  // Writes the spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// --- device set-up and replay ----------------------------------------------

struct SetupTimes {
  double construct_s = 0.0;
  double fill_s = 0.0;
  double warmup_s = 0.0;  // Generator set-up plus warm-up replay.
  double total() const { return construct_s + fill_s + warmup_s; }
};

struct Rig {
  std::unique_ptr<tpftl::Ssd> ssd;
  std::unique_ptr<tpftl::TenantMixSource> source;
  SetupTimes times;
};

// Builds, preconditions and warms one device. With `spans` set, the three
// set-up calls are recorded as spans.
Rig Setup(const WorkloadSpec& spec, bool trace_phases, SpanLog* spans);

// A digest of every simulated field of the device, used to show that two
// repetitions of one seed reached bit-identical states.
std::string SimDigest(const tpftl::Ssd& ssd);

// Highest of p99 / p99.9 / p99.99 with at least ten samples beyond it.
struct TailQuantile {
  bool valid = false;
  double quantile = 0.0;
  double value_us = 0.0;
  uint64_t samples = 0;
  double beyond = 0.0;  // Expected samples beyond the quantile: n * (1 - q).
};
TailQuantile TailOf(const tpftl::obs::LatencyHistogram& hist);

// Simulated-clock results of the fixed window (deterministic per seed).
struct SimResult {
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t dropped = 0;
  std::vector<uint64_t> tenant_offered;
  std::vector<uint64_t> tenant_dropped;
  double p50_us = 0.0;
  TailQuantile tail;
  TailQuantile victim_tail;
  double write_amp = 0.0;
  double busiest_die_busy_us = 0.0;
  double capacity_rps = 0.0;
  double served_fraction = 0.0;
  double window_span_us = 0.0;  // Measurement epoch .. device idle.
  double final_backlog_us = 0.0;
  // Mean backlog seen by the arrivals of each half of the window (pooled:
  // the mean over windows).
  double backlog_first_half_us = 0.0;
  double backlog_second_half_us = 0.0;
  double wa_first_half = 0.0;
  double wa_second_half = 0.0;
  tpftl::AtStats stats;
  tpftl::FlashStats flash;
  tpftl::obs::LatencyHistogram hist;
  tpftl::obs::LatencyHistogram victim_hist;
  std::string digest;
};

// Pools independent windows: summed counts and merged response histograms.
SimResult PoolWindows(const std::vector<SimResult>& windows);

struct ReplayOptions {
  // Record Next()/Submit() spans per request and the response values.
  SpanLog* spans = nullptr;
  std::vector<double>* responses = nullptr;
};

struct HostResult {
  double seconds = 0.0;  // Host time of the replay loop.
  double rps_overall = 0.0;  // Offered requests per second over the window.
  SpanStat next;
  SpanStat submit;
};

struct ReplayResult {
  SimResult sim;
  HostResult host;
};

// Replays the workload's window on a set-up device, timing it on the host.
ReplayResult Replay(const WorkloadSpec& spec, Rig& rig, const ReplayOptions& options);

// Correctness gate: FTL invariants, a full mapping audit and the offered ==
// served + dropped identity. Returns the failures (empty = pass).
std::vector<std::string> CheckCorrectness(const WorkloadSpec& spec, const tpftl::Ssd& ssd,
                                          const SimResult& sim);

// --- layer ladder -------------------------------------------------------------

// Host ns per call of each layer, from driving it directly on state built
// from the workload's own request stream. `ssd` is the traced device after
// its replay; the ladder calls its FTL directly and builds standalone copies
// of the lower layers.
std::map<std::string, double> RunLadder(const WorkloadSpec& spec, tpftl::Ssd& ssd,
                                        const std::vector<double>& responses);

double PeakRssMib();
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
