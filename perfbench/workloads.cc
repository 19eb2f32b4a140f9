// The four benchmark workloads. README.md here records why each exists.
//
// Every workload is open loop: arrivals come from a seeded arrival process on
// the simulated clock at an absolute offered rate (frozen in BENCHMARK.json,
// passed in as `rate_rps`), never from the code under test. Streams are
// generated on demand, so nothing is materialized.

#include <cstdio>
#include <cstdlib>

#include "perfbench/perfbench.h"
#include "src/workload/profiles.h"

namespace perfbench {
namespace {

// Effectively endless: the replay decides how many requests it takes.
constexpr uint64_t kEndless = uint64_t{1} << 50;

// Independent sub-seeds (generator, arrivals, fill) from the one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

tpftl::TenantSpec PoissonTenant(const std::string& name, const tpftl::WorkloadConfig& ops,
                                uint64_t seed, double rate_rps) {
  tpftl::TenantSpec t;
  t.name = name;
  t.ops = ops;
  t.ops.num_requests = kEndless;
  t.ops.seed = SubSeed(seed, 1);
  t.arrival.kind = tpftl::ArrivalKind::kPoisson;
  t.arrival.seed = SubSeed(seed, 2);
  t.arrival.rate_rps = rate_rps;
  return t;
}

// The e2e_gc_heavy mix (bench/bench_common.h GcHeavyMix), restated here so
// the benchmark's inputs stay fixed when that bench changes.
tpftl::WorkloadConfig GcHeavyOps() {
  tpftl::WorkloadConfig w;
  w.name = "gc_churn";
  w.address_space_bytes = 64ULL << 20;
  w.write_ratio = 0.8;
  w.zipf_theta = 1.2;
  w.seq_read_fraction = 0.3;
  w.seq_write_fraction = 0.2;
  w.chunk_pages = 32;
  return w;
}

// Financial2's shape (18% writes, 2.4 KB random requests, Zipf 1.55 over
// 512 KiB chunks) on a 4 GiB device.
tpftl::WorkloadConfig LookupOps() {
  tpftl::WorkloadConfig w = tpftl::Financial2Profile();
  w.address_space_bytes = 4ULL << 30;
  return w;
}

WorkloadSpec Lookup(const std::string& name, tpftl::FtlKind ftl, uint64_t seed, double rate_rps) {
  WorkloadSpec s;
  s.name = name;
  s.ftl = ftl;
  s.device_bytes = LookupOps().address_space_bytes;
  s.tenants.push_back(PoissonTenant("host", LookupOps(), seed, rate_rps));
  s.max_queue_us = 100'000.0;
  s.warmup_requests = 150'000;
  s.window_requests = 350'000;
  s.traced_window_requests = 350'000;
  s.windows = ftl == tpftl::FtlKind::kLearned ? 6 : 8;
  return s;
}

// Burst tenant: YCSB-A point ops, on/off with duty 0.5, carrying 3/8 of the
// average offered rate, so an ON period offers 1.375x the average. Victim:
// YCSB-C reads, Poisson, the other 5/8. Each owns a 32 MiB window of a
// 2 channel x 2 die device.
WorkloadSpec TenantBurst(uint64_t seed, double rate_rps) {
  constexpr uint64_t kSpace = 32ULL << 20;
  constexpr double kMeanOnUs = 20'000.0;
  constexpr double kMeanOffUs = 20'000.0;
  constexpr double kDuty = kMeanOnUs / (kMeanOnUs + kMeanOffUs);
  WorkloadSpec s;
  s.name = "tenant_burst";
  s.channels = 2;
  s.dies_per_channel = 2;
  s.device_bytes = 2 * kSpace;

  tpftl::TenantSpec burst = tpftl::YcsbTenant('A', kSpace, kEndless, SubSeed(seed, 1));
  burst.name = "burst";
  burst.arrival.kind = tpftl::ArrivalKind::kOnOff;
  burst.arrival.seed = SubSeed(seed, 2);
  burst.arrival.rate_rps = rate_rps * 3.0 / 8.0 / kDuty;
  burst.arrival.mean_on_us = kMeanOnUs;
  burst.arrival.mean_off_us = kMeanOffUs;
  burst.arrival.off_rate_rps = 0.0;
  s.tenants.push_back(burst);

  tpftl::TenantSpec victim = tpftl::YcsbTenant('C', kSpace, kEndless, SubSeed(seed, 3));
  victim.name = "victim";
  victim.lba_offset_bytes = kSpace;
  victim.arrival.kind = tpftl::ArrivalKind::kPoisson;
  victim.arrival.seed = SubSeed(seed, 4);
  victim.arrival.rate_rps = rate_rps * 5.0 / 8.0;
  s.tenants.push_back(victim);
  s.victim = 1;

  s.max_queue_us = 500'000.0;
  s.warmup_requests = 200'000;
  s.window_requests = 1'000'000;
  s.traced_window_requests = 1'000'000;
  s.windows = 6;
  return s;
}

}  // namespace

uint64_t WindowSeed(uint64_t seed, int k) {
  return k == 0 ? seed : SubSeed(seed, 1000 + static_cast<uint64_t>(k));
}

WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed, double rate_rps) {
  WorkloadSpec s;
  if (name == "gc_churn") {
    s.name = name;
    s.device_bytes = GcHeavyOps().address_space_bytes;
    s.tenants.push_back(PoissonTenant("host", GcHeavyOps(), seed, rate_rps));
    s.max_queue_us = 1'000'000.0;
    s.warmup_requests = 200'000;
    s.window_requests = 800'000;
    s.traced_window_requests = 500'000;
    s.windows = 6;
  } else if (name == "lookup_skew") {
    s = Lookup(name, tpftl::FtlKind::kTpftl, seed, rate_rps);
  } else if (name == "lookup_learned") {
    s = Lookup(name, tpftl::FtlKind::kLearned, seed, rate_rps);
  } else if (name == "tenant_burst") {
    s = TenantBurst(seed, rate_rps);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  s.fill_seed = SubSeed(seed, 5);
  return s;
}

tpftl::SsdConfig DeviceConfig(const WorkloadSpec& spec, bool trace_phases) {
  tpftl::SsdConfig c;
  c.logical_bytes = spec.device_bytes;
  c.channels = spec.channels;
  c.dies_per_channel = spec.dies_per_channel;
  c.ftl_kind = spec.ftl;
  c.trace_phases = trace_phases;
  c.tenant_count = static_cast<uint32_t>(spec.tenants.size());
  return c;
}

}  // namespace perfbench
