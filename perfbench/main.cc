// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --rate R
//   perfbench --calibrate --workload W --seed N --rate R
//   perfbench --selftest
//
// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
// (README.md here lists both and what each should move). The last line of
// stdout is one JSON object; perfbench/run.py checks it against
// BENCHMARK.json and is the command to run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/ssd/runner.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double rate_rps = 0.0;
  int windows = 0;  // 0 = the workload's own count.
  // Overrides of the workload's window / warm-up sizes (tests use short ones).
  uint64_t window = 0;
  uint64_t warmup = 0;
  bool calibrate = false;
  bool selftest = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
    } else if (flag == "--rate") {
      a.rate_rps = std::stod(value());
    } else if (flag == "--windows") {
      a.windows = std::stoi(value());
    } else if (flag == "--window") {
      a.window = std::stoull(value());
    } else if (flag == "--warmup") {
      a.warmup = std::stoull(value());
    } else if (flag == "--git-sha") {
      a.git_sha = value();
    } else if (flag == "--source-digest") {
      a.source_digest = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!a.selftest) {
    if (a.workload.empty()) {
      Usage("--workload is required");
    }
    if (!(a.rate_rps > 0.0)) {
      Usage("--rate must be a positive offered rate in requests per simulated second");
    }
    if (a.windows < 0 || (a.trace != 0 && a.trace != 1)) {
      Usage("--windows must be >= 0 and --trace 0 or 1");
    }
  }
  return a;
}

// --- JSON output --------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    items_.emplace_back(key, json);
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  JsonObject& Number(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      out += (i > 0 ? ", " : "") + Quote(items_[i].first) + ": " + items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string DumpMetrics(const Metrics& m) {
  JsonObject o;
  for (const auto& [name, metric] : m) {
    o.Raw(name, JsonObject().Number("value", metric.value).Str("unit", metric.unit).Dump());
  }
  return o.Dump();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Provenance(const Args& a) {
#ifdef TPFTL_HARDENED
  const bool hardened = true;
#else
  const bool hardened = false;
#endif
#ifdef TPFTL_OBS_DISABLED
  const bool obs = false;
#else
  const bool obs = true;
#endif
  return JsonObject()
      .Str("git_sha", a.git_sha)
      .Str("source_digest", a.source_digest)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", std::string("g++ ") + __VERSION__)
      .Str("cpu_model", CpuModel())
      .Bool("tpftl_hardened", hardened)
      .Bool("tpftl_obs", obs)
      .Number("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Str("workload", a.workload)
      .Number("seed", static_cast<double>(a.seed))
      .Number("rate_rps", a.rate_rps)
      .Number("trace", a.trace)
      .Dump();
}

std::string TailJson(const TailQuantile& t) {
  return JsonObject()
      .Bool("valid", t.valid)
      .Number("quantile", t.quantile)
      .Number("value_us", t.value_us)
      .Number("samples", static_cast<double>(t.samples))
      .Number("samples_beyond", t.beyond)
      .Dump();
}

std::string SimJson(const SimResult& s) {
  JsonObject tenants;
  for (size_t t = 0; t < s.tenant_offered.size(); ++t) {
    tenants.Raw(std::to_string(t),
                JsonObject()
                    .Number("offered", static_cast<double>(s.tenant_offered[t]))
                    .Number("dropped", static_cast<double>(s.tenant_dropped[t]))
                    .Dump());
  }
  return JsonObject()
      .Number("offered", static_cast<double>(s.offered))
      .Number("served", static_cast<double>(s.served))
      .Number("dropped", static_cast<double>(s.dropped))
      .Raw("tenants", tenants.Dump())
      .Number("p50_us", s.p50_us)
      .Raw("tail", TailJson(s.tail))
      .Raw("victim_tail", TailJson(s.victim_tail))
      .Number("write_amp", s.write_amp)
      .Number("wa_first_half", s.wa_first_half)
      .Number("wa_second_half", s.wa_second_half)
      .Number("hit_ratio", s.stats.hit_ratio())
      .Number("capacity_rps", s.capacity_rps)
      .Number("window_span_us", s.window_span_us)
      .Number("final_backlog_us", s.final_backlog_us)
      .Number("backlog_first_half_us", s.backlog_first_half_us)
      .Number("backlog_second_half_us", s.backlog_second_half_us)
      .Str("digest", s.digest)
      .Dump();
}

// Prints the result object (last stdout line) and returns the exit code:
// nonzero when the correctness gate failed.
int Emit(const Args& a, bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics,
         const std::string& detail, const std::vector<std::string>& failures) {
  std::string fail_json = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    fail_json += (i > 0 ? ", " : "") + Quote(failures[i]);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failures[i].c_str());
  }
  fail_json += "]";
  std::printf("%s\n", JsonObject()
                          .Raw("provenance", Provenance(a))
                          .Raw("detail", detail)
                          .Raw("failures", fail_json)
                          .Bool("correct", correct)
                          .Number("attempted", static_cast<double>(attempted))
                          .Number("failed", static_cast<double>(failed))
                          .Raw("metrics", DumpMetrics(metrics))
                          .Dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- modes ------------------------------------------------------------------------

WorkloadSpec SpecOf(const Args& a, uint64_t seed) {
  WorkloadSpec spec = MakeWorkload(a.workload, seed, a.rate_rps);
  if (a.trace == 1) {
    spec.window_requests = spec.traced_window_requests;
  }
  if (a.window > 0) {
    spec.window_requests = a.window;
  }
  if (a.windows > 0) {
    spec.windows = a.windows;
  }
  if (a.warmup > 0) {
    spec.warmup_requests = a.warmup;
  }
  return spec;
}

// Replays the workload's independent windows (set-up + window each), pooling
// their simulated results; then repeats the first window at least once, and
// again while --seconds have not passed: every repeat must reproduce its
// simulated fields bit for bit. Host figures pool over every replay:
// replay_rps is all requests replayed over all host seconds of the replay
// loops (the host's speed switches between phases lasting seconds, and a
// median over short slices jumps between them where this total does not);
// setup_s is the median set-up.
int RunEndToEnd(const Args& a) {
  const WorkloadSpec base = SpecOf(a, a.seed);
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  uint64_t replayed = 0;
  double replay_s = 0.0;
  std::vector<double> replay_rps;
  const auto run_window = [&](const WorkloadSpec& spec) {
    Rig rig = Setup(spec, /*trace_phases=*/false, nullptr);
    setup_s.push_back(rig.times.total());
    ReplayResult r = Replay(spec, rig, ReplayOptions{});
    replayed += r.sim.offered;
    replay_s += r.host.seconds;
    replay_rps.push_back(r.host.rps_overall);
    const std::vector<std::string> f = CheckCorrectness(spec, *rig.ssd, r.sim);
    failures.insert(failures.end(), f.begin(), f.end());
    return r.sim;
  };
  const Clock::time_point start = Clock::now();
  std::vector<SimResult> windows;
  for (int k = 0; k < base.windows; ++k) {
    windows.push_back(run_window(k == 0 ? base : SpecOf(a, WindowSeed(a.seed, k))));
  }
  int repeats = 0;
  do {
    ++repeats;
    if (run_window(base).digest != windows.front().digest) {
      failures.push_back("repeat " + std::to_string(repeats) +
                         " of the first window diverged in simulated fields");
    }
  } while (SecondsBetween(start, Clock::now()) < a.seconds);
  const SimResult s = PoolWindows(windows);
  Metrics m;
  m["replay_rps"] = {static_cast<double>(replayed) / replay_s, "1/s"};
  m["setup_s"] = {Median(setup_s), "s"};
  m["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  m["sim_p50_us"] = {s.p50_us, "us"};
  m["sim_tail_us"] = {s.tail.value_us, "us"};
  m["victim_tail_us"] = {s.victim_tail.value_us, "us"};
  m["write_amp"] = {s.write_amp, "ratio"};
  m["sim_capacity_rps"] = {s.capacity_rps, "1/s"};
  m["served_fraction"] = {s.served_fraction, "fraction"};

  JsonObject setups;
  JsonObject replays;
  for (size_t k = 0; k < setup_s.size(); ++k) {
    setups.Number(std::to_string(k), setup_s[k]);
    replays.Number(std::to_string(k), replay_rps[k]);
  }
  const std::string detail = JsonObject()
                                 .Raw("sim", SimJson(s))
                                 .Number("windows", static_cast<double>(windows.size()))
                                 .Number("repeats_of_first_window", repeats)
                                 .Raw("setup_s", setups.Dump())
                                 .Raw("replay_rps", replays.Dump())
                                 .Number("replay_s", replay_s)
                                 .Number("run_seconds", SecondsBetween(start, Clock::now()))
                                 .Dump();
  return Emit(a, failures.empty(), s.offered + windows.front().offered * repeats,
              s.dropped + windows.front().dropped * repeats, m, detail, failures);
}

double PerKpage(uint64_t count, const tpftl::AtStats& s) {
  const uint64_t pages = s.user_page_accesses();
  return pages > 0 ? static_cast<double>(count) * 1000.0 / static_cast<double>(pages) : 0.0;
}

int RunTraced(const Args& a) {
  const WorkloadSpec spec = SpecOf(a, a.seed);
  std::vector<std::string> failures;

  // Untraced reference: same window, no phases, no spans.
  ReplayResult plain;
  SetupTimes plain_times;
  {
    Rig rig = Setup(spec, /*trace_phases=*/false, nullptr);
    plain_times = rig.times;
    plain = Replay(spec, rig, ReplayOptions{});
  }

  SpanLog log(Clock::now());
  std::vector<double> responses;
  responses.reserve(spec.window_requests);
  Rig rig = Setup(spec, /*trace_phases=*/true, &log);
  ReplayOptions options;
  options.spans = &log;
  options.responses = &responses;
  const ReplayResult traced = Replay(spec, rig, options);
  const SimResult& s = traced.sim;
  if (s.digest != plain.sim.digest) {
    failures.push_back("traced and untraced replays of one seed differ in simulated fields");
  }
  tpftl::Ssd& ssd = *rig.ssd;
  const tpftl::AtStats& st = s.stats;

  Metrics m;
  m["core.hit_ratio"] = {st.hit_ratio(), "ratio"};
  m["core.prd"] = {st.dirty_replacement_probability(), "ratio"};
  m["core.trans_reads_per_kpage"] = {PerKpage(st.trans_reads_total(), st), "1/kpage"};
  m["core.trans_writes_per_kpage"] = {PerKpage(st.trans_writes_total(), st), "1/kpage"};
  const uint64_t migrations = st.gc_data_migrations + st.gc_trans_migrations;
  const uint64_t victims = st.gc_data_blocks + st.gc_trans_blocks;
  m["ftl.gc_migrations_per_kpage"] = {PerKpage(migrations, st), "1/kpage"};
  m["ftl.erases_per_kpage"] = {PerKpage(s.flash.block_erases, st), "1/kpage"};
  m["block_manager.victim_valid_fraction"] = {
      victims > 0 ? static_cast<double>(migrations) /
                        static_cast<double>(victims * ssd.geometry().pages_per_block)
                  : 0.0,
      "fraction"};
  const tpftl::obs::PhaseTimes& phases = ssd.phase_times();
  const double flash_us = phases.TotalUs();
  m["ftl.gc_share"] = {flash_us > 0.0 ? phases.PhaseUs(tpftl::obs::Phase::kGc) / flash_us : 0.0,
                       "fraction"};
  // Share of response time not spent in the request's own flash operations:
  // FIFO queueing on one die, queueing plus die wait on several (where
  // Ssd::queue_us_total reads 0).
  const double response_sum = ssd.response_histogram().sum();
  m["ssd.queue_share"] = {
      response_sum > 0.0 ? std::max(0.0, 1.0 - phases.ServiceUs() / response_sum) : 0.0,
      "fraction"};
  m["ssd.die_busy_max"] = {s.window_span_us > 0.0 ? s.busiest_die_busy_us / s.window_span_us : 0.0,
                           "fraction"};
  m["ssd.dropped"] = {static_cast<double>(s.dropped), "count"};
  m["learned.model_hit_ratio"] = {st.model_hit_ratio(), "ratio"};
  m["learned.probe_reads_per_kpage"] = {PerKpage(st.model_probe_reads, st), "1/kpage"};
  m["learned.retrains_per_kpage"] = {PerKpage(st.model_retrains, st), "1/kpage"};
  m["setup.construct_s"] = {0.5 * (plain_times.construct_s + rig.times.construct_s), "s"};
  m["setup.fill_s"] = {0.5 * (plain_times.fill_s + rig.times.fill_s), "s"};
  m["setup.warmup_s"] = {0.5 * (plain_times.warmup_s + rig.times.warmup_s), "s"};
  m["workload.next_ns"] = {traced.host.next.MeanNs(), "ns"};
  m["ssd.submit_ns"] = {traced.host.submit.MeanNs(), "ns"};
  const double untraced_rps = plain.host.rps_overall;
  const double traced_rps = traced.host.rps_overall;
  m["trace.overhead_fraction"] = {traced_rps > 0.0 ? untraced_rps / traced_rps - 1.0 : 0.0,
                                  "fraction"};

  std::vector<std::string> f = CheckCorrectness(spec, ssd, s);
  failures.insert(failures.end(), f.begin(), f.end());

  // The ladder drives the layers directly (it mutates the FTL, so it runs
  // after the audit).
  const std::map<std::string, double> ladder = RunLadder(spec, ssd, responses);
  for (const auto& [name, ns_per_call] : ladder) {
    m[name] = {ns_per_call, "ns"};
  }
  // Host ns per offered request, explained by ladder costs x op counts of
  // the traced window: generator + FTL page calls + response recording.
  const double offered = static_cast<double>(s.offered);
  const double served = static_cast<double>(s.served);
  const double ftl_ns = ladder.at("ftl.read_page_ns") * static_cast<double>(st.host_page_reads) +
                        ladder.at("ftl.write_page_ns") * static_cast<double>(st.host_page_writes);
  const double predicted = traced.host.next.MeanNs() + ftl_ns / offered +
                           ladder.at("obs.record_ns") * served / offered;
  const double measured = untraced_rps > 0.0 ? 1e9 / untraced_rps : 0.0;
  m["ladder.explained_fraction"] = {measured > 0.0 ? predicted / measured : 0.0, "fraction"};
  m["ladder.residual_ns"] = {measured - predicted, "ns"};
  m["ssd.self_ns"] = {traced.host.submit.MeanNs() - ftl_ns / std::max(served, 1.0), "ns"};

  if (!a.trace_out.empty() && !log.WriteChromeTrace(a.trace_out)) {
    failures.push_back("could not write " + a.trace_out);
  }
  const std::string detail = JsonObject()
                                 .Raw("sim", SimJson(s))
                                 .Number("untraced_window_rps", untraced_rps)
                                 .Number("traced_window_rps", traced_rps)
                                 .Number("timer_overhead_ns", TimerOverheadNs())
                                 .Number("spans", static_cast<double>(log.size()))
                                 .Dump();
  return Emit(a, failures.empty(), s.offered, s.dropped, m, detail, failures);
}

// Saturated closed-loop capacity through the runner, then the frozen rate's
// operating-point checks on this seed: the backlog does not grow (nothing
// reaches the admission bound, and the mean backlog seen by arrivals in the
// second half of the window is within 1.5x that of the first, plus a slack of
// 1% of the bound), and WA over the two halves agrees within 5% (GC is in
// steady state). Any failed check fails the mode.
int RunCalibrate(const Args& a) {
  const WorkloadSpec spec = SpecOf(a, a.seed);
  tpftl::ExperimentConfig config;
  config.workload.name = spec.name;
  config.workload.address_space_bytes = spec.device_bytes;
  config.ftl_kind = spec.ftl;
  config.channels = spec.channels;
  config.dies_per_channel = spec.dies_per_channel;
  tpftl::ClosedLoopConfig loop;
  loop.queue_depth = 16 * spec.channels * spec.dies_per_channel;
  loop.warmup_requests = spec.warmup_requests;
  loop.measured_requests = spec.window_requests;
  tpftl::TenantMixSource source(spec.tenants);
  const tpftl::ClosedLoopReport closed = tpftl::RunClosedLoop(config, source, loop);
  const double capacity = closed.sim_requests_per_sec;

  Rig rig = Setup(spec, /*trace_phases=*/false, nullptr);
  const ReplayResult r = Replay(spec, rig, ReplayOptions{});
  const SimResult& s = r.sim;
  std::vector<std::string> failures = CheckCorrectness(spec, *rig.ssd, s);
  const double wa_drift =
      s.wa_first_half > 0.0 ? std::fabs(s.wa_second_half / s.wa_first_half - 1.0) : 0.0;
  const bool backlog_bounded =
      s.dropped == 0 &&
      s.backlog_second_half_us <= 1.5 * s.backlog_first_half_us + 0.01 * spec.max_queue_us;
  if (!backlog_bounded) {
    failures.push_back("backlog grows at the frozen rate");
  }
  if (wa_drift > 0.05) {
    failures.push_back("WA of the two window halves differs by more than 5%");
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n",
              JsonObject()
                  .Raw("provenance", Provenance(a))
                  .Number("closed_loop_queue_depth", loop.queue_depth)
                  .Number("saturated_capacity_rps", capacity)
                  .Number("suggested_rate_rps_80pct", std::round(0.8 * capacity))
                  .Number("rate_rps", a.rate_rps)
                  .Number("load_vs_capacity", a.rate_rps / capacity)
                  .Raw("sim", SimJson(s))
                  .Number("wa_half_drift", wa_drift)
                  .Bool("backlog_bounded", backlog_bounded)
                  .Bool("correct", failures.empty())
                  .Dump()
                  .c_str());
  return failures.empty() ? 0 : 1;
}

int RunSelfTest() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  const auto hist_of = [](uint64_t n) {
    tpftl::obs::LatencyHistogram h;
    for (uint64_t i = 1; i <= n; ++i) {
      h.Add(static_cast<double>(i));
    }
    return h;
  };
  expect(!TailOf(hist_of(999)).valid, "999 samples support no tail quantile");
  const TailQuantile t1k = TailOf(hist_of(1000));
  expect(t1k.valid && t1k.quantile == 0.99 && t1k.beyond >= 10.0, "1000 samples -> p99");
  const TailQuantile t99k = TailOf(hist_of(99'999));
  expect(t99k.valid && t99k.quantile == 0.999, "99999 samples -> p99.9");
  const TailQuantile t100k = TailOf(hist_of(100'000));
  expect(t100k.valid && t100k.quantile == 0.9999 && t100k.beyond >= 10.0,
         "100000 samples -> p99.99");
  expect(std::fabs(t100k.value_us / 99'990.0 - 1.0) < 0.01, "p99.99 of 1..100000 is ~99990");
  std::printf("{\"selftest\": %s}\n", bad == 0 ? "true" : "false");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  if (args.selftest) {
    return perfbench::RunSelfTest();
  }
  if (args.calibrate) {
    return perfbench::RunCalibrate(args);
  }
  return args.trace == 1 ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
