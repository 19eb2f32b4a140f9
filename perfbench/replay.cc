// Device set-up, the open-loop replay, and the correctness gate.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

// Requests whose Next()/Submit() spans are kept in memory for the trace file
// (every request still counts in the span totals).
constexpr uint64_t kLoggedRequests = 20'000;

// Work queued ahead of an arrival. An arrival whose backlog exceeds the
// workload's admission bound is dropped.
MicroSec BacklogAt(const tpftl::Ssd& ssd, const tpftl::IoRequest& req) {
  const MicroSec effective = std::max(req.arrival_us, ssd.stats_epoch_us());
  return std::max(0.0, ssd.device_free_at() - effective);
}

// Write amplification of the traffic between two stats snapshots.
double WaBetween(const tpftl::AtStats& a, const tpftl::AtStats& b) {
  const uint64_t host = b.host_page_writes - a.host_page_writes;
  if (host == 0) {
    return 1.0;
  }
  const uint64_t extra = (b.trans_writes_total() - a.trans_writes_total()) +
                         (b.gc_data_migrations - a.gc_data_migrations);
  return static_cast<double>(host + extra) / static_cast<double>(host);
}

double BusiestDieBusyUs(const tpftl::Ssd& ssd) {
  const tpftl::NandFlash& flash = ssd.flash();
  if (!flash.multi_die()) {
    return flash.stats().busy_time_us;  // The single die is the whole device.
  }
  double busiest = 0.0;
  for (uint32_t d = 0; d < flash.total_dies(); ++d) {
    busiest = std::max(busiest, flash.die_busy_us(d));
  }
  return busiest;
}

void AppendHex(std::ostringstream& os, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%a;", name, v);
  os << buf;
}

SimResult Snapshot(const WorkloadSpec& spec, const tpftl::Ssd& ssd, MicroSec last_arrival_us) {
  SimResult r;
  r.hist = ssd.response_histogram();
  r.p50_us = r.hist.Quantile(0.5);
  r.tail = TailOf(r.hist);
  const tpftl::obs::LatencyHistogram* victim =
      ssd.metrics().FindHistogram(tpftl::TenantMetricName(spec.victim, "response_us"));
  if (victim != nullptr) {
    r.victim_hist = *victim;
    r.victim_tail = TailOf(r.victim_hist);
  }
  r.stats = ssd.ftl().stats();
  r.flash = ssd.flash().stats();
  r.write_amp = r.stats.write_amplification();
  r.busiest_die_busy_us = BusiestDieBusyUs(ssd);
  r.window_span_us = ssd.device_free_at() - ssd.stats_epoch_us();
  r.final_backlog_us = std::max(0.0, ssd.device_free_at() - last_arrival_us);
  r.digest = SimDigest(ssd);
  return r;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TimerOverheadNs() {
  static const double overhead = [] {
    std::vector<double> deltas;
    deltas.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      const Clock::time_point a = Clock::now();
      const Clock::time_point b = Clock::now();
      deltas.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    return Median(std::move(deltas));
  }();
  return overhead;
}

uint32_t SpanLog::NameId(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

void SpanLog::Add(uint32_t name, uint64_t request, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back(Span{name, request,
                        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count(),
                        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[\n";
  const size_t n = spans_.size();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"request\":%" PRIu64 "}}%s\n",
                  names_[s.name].c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.request, i + 1 < n ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Rig Setup(const WorkloadSpec& spec, bool trace_phases, SpanLog* spans) {
  Rig rig;
  const Clock::time_point t0 = Clock::now();
  rig.ssd = std::make_unique<tpftl::Ssd>(DeviceConfig(spec, trace_phases));
  const Clock::time_point t1 = Clock::now();
  rig.ssd->FillShuffled(kFillChunkPages, spec.fill_seed);
  const Clock::time_point t2 = Clock::now();
  rig.source = std::make_unique<tpftl::TenantMixSource>(spec.tenants);
  tpftl::IoRequest req;
  for (uint64_t i = 0; i < spec.warmup_requests; ++i) {
    rig.source->Next(&req);
    if (BacklogAt(*rig.ssd, req) <= spec.max_queue_us) {
      rig.ssd->Submit(req);
    }
  }
  rig.ssd->ResetStats();
  const Clock::time_point t3 = Clock::now();
  rig.times = SetupTimes{SecondsBetween(t0, t1), SecondsBetween(t1, t2), SecondsBetween(t2, t3)};
  if (spans != nullptr) {
    constexpr uint64_t kNoRequest = ~uint64_t{0};
    spans->Add(spans->NameId("setup.construct"), kNoRequest, t0, t1);
    spans->Add(spans->NameId("setup.fill"), kNoRequest, t1, t2);
    spans->Add(spans->NameId("setup.warmup"), kNoRequest, t2, t3);
  }
  return rig;
}

std::string SimDigest(const tpftl::Ssd& ssd) {
  std::ostringstream os;
  const tpftl::AtStats& s = ssd.ftl().stats();
  const uint64_t at[] = {s.lookups,          s.hits,
                         s.misses,           s.evictions,
                         s.dirty_evictions,  s.batch_writebacks,
                         s.trans_reads_at,   s.trans_writes_at,
                         s.host_page_reads,  s.host_page_writes,
                         s.gc_data_blocks,   s.gc_trans_blocks,
                         s.gc_data_migrations, s.gc_trans_migrations,
                         s.gc_hits,          s.gc_misses,
                         s.trans_reads_gc,   s.trans_writes_gc,
                         s.model_hits,       s.model_misses,
                         s.model_probe_reads, s.model_retrains};
  for (const uint64_t v : at) {
    os << v << ',';
  }
  const tpftl::FlashStats& f = ssd.flash().stats();
  os << f.page_reads << ',' << f.page_writes << ',' << f.block_erases << ';';
  AppendHex(os, "busy", f.busy_time_us);
  AppendHex(os, "free_at", ssd.device_free_at());
  AppendHex(os, "epoch", ssd.stats_epoch_us());
  const tpftl::obs::LatencyHistogram& h = ssd.response_histogram();
  os << "n=" << h.total() << ';';
  AppendHex(os, "sum", h.sum());
  AppendHex(os, "max", h.max());
  AppendHex(os, "p50", h.Quantile(0.5));
  AppendHex(os, "p999", h.Quantile(0.999));
  for (uint32_t d = 0; d < ssd.flash().total_dies(); ++d) {
    AppendHex(os, "die", ssd.flash().die_busy_us(d));
  }
  return os.str();
}

TailQuantile TailOf(const tpftl::obs::LatencyHistogram& hist) {
  // q = 1 - 10^-k has n / 10^k samples beyond it; the rule asks for >= 10.
  struct Level {
    double q;
    uint64_t min_samples;
  };
  constexpr Level kLevels[] = {{0.9999, 100'000}, {0.999, 10'000}, {0.99, 1'000}};
  TailQuantile t;
  t.samples = hist.total();
  for (const Level& level : kLevels) {
    if (t.samples >= level.min_samples) {
      t.valid = true;
      t.quantile = level.q;
      t.value_us = hist.Quantile(level.q);
      t.beyond = static_cast<double>(t.samples) * 10.0 / static_cast<double>(level.min_samples);
      return t;
    }
  }
  return t;
}

ReplayResult Replay(const WorkloadSpec& spec, Rig& rig, const ReplayOptions& options) {
  tpftl::Ssd& ssd = *rig.ssd;
  tpftl::TenantMixSource& source = *rig.source;
  const size_t lanes = spec.tenants.size();
  ReplayResult out;
  std::vector<uint64_t> tenant_offered(lanes, 0);
  std::vector<uint64_t> tenant_dropped(lanes, 0);
  uint64_t served = 0;
  const uint64_t window = spec.window_requests;
  const uint64_t half = window / 2;
  tpftl::AtStats at_half;
  double backlog_sum[2] = {0.0, 0.0};  // Backlog seen by arrivals, per half.
  MicroSec last_arrival = ssd.stats_epoch_us();

  SpanLog* spans = options.spans;
  const double overhead = spans != nullptr ? TimerOverheadNs() : 0.0;
  const uint32_t next_id = spans != nullptr ? spans->NameId("workload.next") : 0;
  const uint32_t submit_id = spans != nullptr ? spans->NameId("ssd.submit") : 0;
  const auto record = [&](SpanStat& stat, uint32_t id, uint64_t i, Clock::time_point a,
                          Clock::time_point b) {
    ++stat.calls;
    stat.total_ns +=
        std::max(0.0, std::chrono::duration<double, std::nano>(b - a).count() - overhead);
    if (i < kLoggedRequests) {
      spans->Add(id, i, a, b);
    }
  };

  const Clock::time_point loop_start = Clock::now();
  tpftl::IoRequest req;
  for (uint64_t i = 0; i < window; ++i) {
    if (i == half) {
      at_half = ssd.ftl().stats();
    }

    if (spans != nullptr) {
      const Clock::time_point a = Clock::now();
      source.Next(&req);
      const Clock::time_point b = Clock::now();
      record(out.host.next, next_id, i, a, b);
    } else {
      source.Next(&req);
    }
    last_arrival = std::max(last_arrival, std::max(req.arrival_us, ssd.stats_epoch_us()));
    ++tenant_offered[req.tenant];
    const MicroSec backlog = BacklogAt(ssd, req);
    backlog_sum[i < half ? 0 : 1] += backlog;
    if (backlog > spec.max_queue_us) {
      ++tenant_dropped[req.tenant];
      continue;
    }
    if (spans != nullptr) {
      const Clock::time_point a = Clock::now();
      const MicroSec response = ssd.Submit(req);
      const Clock::time_point b = Clock::now();
      record(out.host.submit, submit_id, i, a, b);
      if (options.responses != nullptr) {
        options.responses->push_back(response);
      }
    } else {
      ssd.Submit(req);
    }
    ++served;
  }
  out.host.seconds = SecondsBetween(loop_start, Clock::now());
  out.host.rps_overall = static_cast<double>(window) / out.host.seconds;

  out.sim = Snapshot(spec, ssd, last_arrival);
  out.sim.offered = window;
  out.sim.served = served;
  out.sim.dropped = window - served;
  out.sim.tenant_offered = tenant_offered;
  out.sim.tenant_dropped = tenant_dropped;
  out.sim.wa_first_half = WaBetween(tpftl::AtStats{}, at_half);
  out.sim.wa_second_half = WaBetween(at_half, out.sim.stats);
  out.sim.backlog_first_half_us = backlog_sum[0] / static_cast<double>(std::max<uint64_t>(half, 1));
  out.sim.backlog_second_half_us = backlog_sum[1] / static_cast<double>(window - half);
  out.sim.served_fraction = static_cast<double>(served) / static_cast<double>(window);
  out.sim.capacity_rps = out.sim.busiest_die_busy_us > 0.0
                             ? static_cast<double>(served) / out.sim.busiest_die_busy_us * 1e6
                             : 0.0;
  return out;
}

SimResult PoolWindows(const std::vector<SimResult>& windows) {
  SimResult p = windows.front();
  uint64_t host_writes = p.stats.host_page_writes;
  uint64_t extra_writes = p.stats.trans_writes_total() + p.stats.gc_data_migrations;
  for (size_t w = 1; w < windows.size(); ++w) {
    const SimResult& x = windows[w];
    p.offered += x.offered;
    p.served += x.served;
    p.dropped += x.dropped;
    for (size_t t = 0; t < p.tenant_offered.size(); ++t) {
      p.tenant_offered[t] += x.tenant_offered[t];
      p.tenant_dropped[t] += x.tenant_dropped[t];
    }
    p.hist.MergeFrom(x.hist);
    p.victim_hist.MergeFrom(x.victim_hist);
    p.busiest_die_busy_us += x.busiest_die_busy_us;
    p.window_span_us += x.window_span_us;
    p.final_backlog_us = std::max(p.final_backlog_us, x.final_backlog_us);
    p.backlog_first_half_us += x.backlog_first_half_us;
    p.backlog_second_half_us += x.backlog_second_half_us;
    host_writes += x.stats.host_page_writes;
    extra_writes += x.stats.trans_writes_total() + x.stats.gc_data_migrations;
    p.digest += "|" + x.digest;
  }
  p.backlog_first_half_us /= static_cast<double>(windows.size());
  p.backlog_second_half_us /= static_cast<double>(windows.size());
  p.p50_us = p.hist.Quantile(0.5);
  p.tail = TailOf(p.hist);
  p.victim_tail = TailOf(p.victim_hist);
  p.write_amp = host_writes > 0 ? static_cast<double>(host_writes + extra_writes) /
                                      static_cast<double>(host_writes)
                                : 1.0;
  p.capacity_rps = p.busiest_die_busy_us > 0.0
                       ? static_cast<double>(p.served) / p.busiest_die_busy_us * 1e6
                       : 0.0;
  p.served_fraction = static_cast<double>(p.served) / static_cast<double>(p.offered);
  return p;
}

std::vector<std::string> CheckCorrectness(const WorkloadSpec& spec, const tpftl::Ssd& ssd,
                                          const SimResult& sim) {
  std::vector<std::string> failures;
  if (!ssd.ftl().CheckInvariants()) {
    failures.push_back("Ftl::CheckInvariants failed");
  }
  // Every LPN was written by the precondition fill and none is trimmed, so
  // each must resolve to a valid data page whose OOB tag names it.
  const tpftl::NandFlash& flash = ssd.flash();
  uint64_t bad = 0;
  for (tpftl::Lpn lpn = 0; lpn < ssd.logical_pages(); ++lpn) {
    const tpftl::Ppn ppn = ssd.ftl().Probe(lpn);
    if (ppn == tpftl::kInvalidPpn || ppn >= ssd.geometry().total_pages() ||
        flash.StateOf(ppn) != tpftl::PageState::kValid || flash.OobTag(ppn) != lpn ||
        flash.OobKindOf(ppn) != tpftl::OobKind::kData) {
      if (++bad <= 3) {
        failures.push_back("mapping audit: lpn " + std::to_string(lpn) + " -> ppn " +
                           std::to_string(ppn));
      }
    }
  }
  if (bad > 3) {
    failures.push_back("mapping audit: " + std::to_string(bad) + " bad LPNs in total");
  }
  if (sim.served + sim.dropped != sim.offered) {
    failures.push_back("served + dropped != offered");
  }
  uint64_t offered = 0;
  for (size_t t = 0; t < sim.tenant_offered.size(); ++t) {
    offered += sim.tenant_offered[t];
  }
  if (offered != sim.offered) {
    failures.push_back("tenant offered counts do not sum to offered");
  }
  if (sim.offered != spec.window_requests) {
    failures.push_back("window did not complete");
  }
  if (!sim.tail.valid || !sim.victim_tail.valid) {
    failures.push_back("too few samples for any tail quantile");
  }
  return failures;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
