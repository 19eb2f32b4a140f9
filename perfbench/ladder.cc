// The layer ladder: host ns per call of each layer, measured by calling the
// layer's public functions directly.
//
// Ssd::Submit hides everything below it, so the traced replay alone cannot
// say where host time goes. The ladder takes the requests that follow the
// measured window in the workload's own stream and drives, in turn: the
// device's FTL (Read/WritePage), and standalone instances of the mapping
// cache, the translation store, the block manager, the NAND arena and the
// learned index, each built with the device's geometry and budgets. Every
// call is timed with steady_clock; the median cost of an empty timer pair is
// subtracted.

#include <algorithm>
#include <span>

#include "perfbench/perfbench.h"
#include "src/core/two_level_cache.h"
#include "src/ftl/block_manager.h"
#include "src/ftl/demand_ftl.h"
#include "src/ftl/learned_ftl.h"
#include "src/ftl/plr.h"
#include "src/ftl/translation_store.h"

namespace perfbench {
namespace {

constexpr uint64_t kLadderRequests = 200'000;

struct PageAccess {
  tpftl::Lpn lpn;
  bool write;
};

// Times one call and adds its cost, net of timer overhead, to a SpanStat.
class Timer {
 public:
  explicit Timer(double overhead_ns) : overhead_ns_(overhead_ns) {}
  template <typename F>
  auto operator()(SpanStat& stat, F&& f) {
    const Clock::time_point a = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Account(stat, a);
    } else {
      auto result = f();
      Account(stat, a);
      return result;
    }
  }

 private:
  void Account(SpanStat& stat, Clock::time_point a) {
    const Clock::time_point b = Clock::now();
    ++stat.calls;
    stat.total_ns +=
        std::max(0.0, std::chrono::duration<double, std::nano>(b - a).count() - overhead_ns_);
  }
  double overhead_ns_;
};

// The `count` requests that follow the first `skip` of the workload stream.
std::vector<tpftl::IoRequest> StreamAfter(const WorkloadSpec& spec, uint64_t skip,
                                          uint64_t count) {
  tpftl::TenantMixSource source(spec.tenants);
  tpftl::IoRequest req;
  for (uint64_t i = 0; i < skip; ++i) {
    source.Next(&req);
  }
  std::vector<tpftl::IoRequest> out(count);
  for (tpftl::IoRequest& r : out) {
    source.Next(&r);
  }
  return out;
}

// Page accesses exactly as Ssd splits requests.
std::vector<PageAccess> Pages(const std::vector<tpftl::IoRequest>& reqs, uint64_t page_size,
                              uint64_t logical_pages) {
  std::vector<PageAccess> out;
  for (const tpftl::IoRequest& r : reqs) {
    const tpftl::Lpn first = r.FirstLpn(page_size) % logical_pages;
    const uint64_t n = std::min(r.PageCount(page_size), logical_pages);
    for (uint64_t i = 0; i < n; ++i) {
      out.push_back({(first + i) % logical_pages, r.is_write()});
    }
  }
  return out;
}

void LadderFtl(tpftl::Ftl& ftl, const std::vector<tpftl::IoRequest>& reqs, uint64_t page_size,
               uint64_t logical_pages, Timer& timer, std::map<std::string, double>& out) {
  SpanStat read;
  SpanStat write;
  for (const tpftl::IoRequest& r : reqs) {
    ftl.BeginRequest(r);
    const tpftl::Lpn first = r.FirstLpn(page_size) % logical_pages;
    const uint64_t n = std::min(r.PageCount(page_size), logical_pages);
    for (uint64_t i = 0; i < n; ++i) {
      const tpftl::Lpn lpn = (first + i) % logical_pages;
      if (r.is_write()) {
        timer(write, [&] { return ftl.WritePage(lpn); });
      } else {
        timer(read, [&] { return ftl.ReadPage(lpn); });
      }
    }
  }
  out["ftl.read_page_ns"] = read.MeanNs();
  out["ftl.write_page_ns"] = write.MeanNs();
}

void LadderCache(const tpftl::Ssd& ssd, const std::vector<PageAccess>& pages, Timer& timer,
                 std::map<std::string, double>& out) {
  const auto* demand = dynamic_cast<const tpftl::DemandFtl*>(&ssd.ftl());
  tpftl::TwoLevelCacheOptions options;
  options.budget_bytes = demand != nullptr ? demand->entry_cache_budget_bytes() : ssd.cache_bytes();
  options.entries_per_page = ssd.geometry().entries_per_translation_page();
  tpftl::TwoLevelCache cache(options);
  SpanStat lookup;
  SpanStat insert;
  const size_t warm = pages.size() / 2;  // First half warms the cache untimed.
  for (size_t i = 0; i < pages.size(); ++i) {
    const PageAccess& p = pages[i];
    const auto miss_path = [&] {
      while (!cache.HasSpaceFor(p.lpn)) {
        const std::optional<tpftl::TwoLevelCache::Victim> v = cache.PickVictim(true);
        if (!v.has_value()) {
          return false;
        }
        cache.Evict(v->vtpn, v->slot);
      }
      return cache.Insert(p.lpn, p.lpn, p.write);
    };
    if (i < warm) {
      if (!cache.Lookup(p.lpn).has_value()) {
        miss_path();
      }
      continue;
    }
    if (!timer(lookup, [&] { return cache.Lookup(p.lpn); }).has_value()) {
      timer(insert, miss_path);
    }
  }
  out["core.lookup_ns"] = lookup.MeanNs();
  out["core.insert_evict_ns"] = insert.MeanNs();
}

void LadderTranslationStore(const tpftl::FlashGeometry& geometry, uint64_t logical_pages,
                            const std::vector<PageAccess>& pages, Timer& timer,
                            std::map<std::string, double>& out) {
  tpftl::NandFlash flash(geometry);
  tpftl::BlockManager bm(&flash, 8);
  tpftl::TranslationStore store(&bm, logical_pages);
  store.Format();
  SpanStat rewrite;
  for (const PageAccess& p : pages) {
    if (!p.write) {
      continue;
    }
    const tpftl::MappingUpdate update{p.lpn, p.lpn};
    timer(rewrite, [&] {
      return store.RewriteTranslationPage(store.VtpnOf(p.lpn), std::span(&update, 1), false);
    });
    // Translation-pool GC, as DemandFtl runs it for translation victims.
    while (bm.NeedsGc() && bm.HasReclaimableCandidate()) {
      const tpftl::BlockId victim = bm.PickVictim(tpftl::BlockPool::kTranslation);
      if (victim == tpftl::kInvalidBlock) {
        break;
      }
      for (uint64_t off = 0; off < geometry.pages_per_block; ++off) {
        const tpftl::Ppn ppn = geometry.PpnOf(victim, off);
        if (flash.StateOf(ppn) == tpftl::PageState::kValid) {
          store.MigrateTranslationPage(ppn);
        }
      }
      bm.EraseAndFree(victim);
    }
  }
  out["translation_store.rewrite_ns"] = rewrite.MeanNs();
}

// A page-mapped store without translation pages on a fresh device of the
// same geometry: block-manager program/invalidate/victim costs, NAND reads,
// and the LPN->PPN map the learned-index rung trains on.
void LadderBlockManager(const tpftl::FlashGeometry& geometry, uint64_t logical_pages,
                        const std::vector<PageAccess>& pages, uint64_t fill_seed, Timer& timer,
                        std::map<std::string, double>& out, std::vector<tpftl::Ppn>* map) {
  tpftl::NandFlash flash(geometry);
  tpftl::BlockManager bm(&flash, 8);
  map->assign(logical_pages, tpftl::kInvalidPpn);
  const auto collect = [&](SpanStat& pick) {
    while (bm.NeedsGc() && bm.HasReclaimableCandidate()) {
      const tpftl::BlockId victim = timer(pick, [&] { return bm.PickVictim(); });
      if (victim == tpftl::kInvalidBlock) {
        break;
      }
      for (uint64_t off = 0; off < geometry.pages_per_block; ++off) {
        const tpftl::Ppn src = geometry.PpnOf(victim, off);
        if (flash.StateOf(src) == tpftl::PageState::kValid) {
          const tpftl::Lpn lpn = flash.OobTag(src);
          tpftl::Ppn dst = tpftl::kInvalidPpn;
          bm.Program(tpftl::BlockPool::kData, lpn, &dst);
          bm.Invalidate(src);
          (*map)[lpn] = dst;
        }
      }
      bm.EraseAndFree(victim);
    }
  };
  // Fill in chunk-shuffled order, like the device's precondition.
  std::vector<uint64_t> chunks((logical_pages + kFillChunkPages - 1) / kFillChunkPages);
  for (uint64_t c = 0; c < chunks.size(); ++c) {
    chunks[c] = c;
  }
  tpftl::Rng rng(fill_seed);
  for (uint64_t c = chunks.size(); c > 1; --c) {
    std::swap(chunks[c - 1], chunks[rng.Below(c)]);
  }
  SpanStat fill_pick;
  for (const uint64_t c : chunks) {
    const tpftl::Lpn end = std::min((c + 1) * kFillChunkPages, logical_pages);
    for (tpftl::Lpn lpn = c * kFillChunkPages; lpn < end; ++lpn) {
      bm.Program(tpftl::BlockPool::kData, lpn, &(*map)[lpn]);
    }
    collect(fill_pick);
  }
  SpanStat program;
  SpanStat invalidate;
  SpanStat pick;
  SpanStat read;
  uint64_t writes = 0;
  for (const PageAccess& p : pages) {
    tpftl::Ppn& slot = (*map)[p.lpn];
    if (!p.write) {
      timer(read, [&] { return flash.ReadPage(slot); });
      continue;
    }
    timer(invalidate, [&] { bm.Invalidate(slot); });
    timer(program, [&] { return bm.Program(tpftl::BlockPool::kData, p.lpn, &slot); });
    collect(pick);
    // Selection is side-effect free; sample it where GC is rare too.
    if (++writes % 64 == 0) {
      timer(pick, [&] { return bm.PickVictim(); });
    }
  }
  out["block_manager.program_ns"] = program.MeanNs();
  out["block_manager.invalidate_ns"] = invalidate.MeanNs();
  out["block_manager.pick_victim_ns"] = pick.MeanNs();
  out["flash.read_ns"] = read.MeanNs();
}

// Raw NAND program/erase on a fresh arena: each write programs the next page
// of the block its LPN's chunk maps to; a full block is invalidated and
// erased.
void LadderFlash(const tpftl::FlashGeometry& geometry, const std::vector<PageAccess>& pages,
                 Timer& timer, std::map<std::string, double>& out) {
  tpftl::NandFlash flash(geometry);
  SpanStat program;
  SpanStat erase;
  const auto erase_block = [&](tpftl::BlockId b) {
    for (uint64_t off = 0; off < geometry.pages_per_block; ++off) {
      const tpftl::Ppn ppn = geometry.PpnOf(b, off);
      if (flash.StateOf(ppn) == tpftl::PageState::kValid) {
        flash.InvalidatePage(ppn);
      }
    }
    timer(erase, [&] { return flash.EraseBlock(b); });
  };
  for (const PageAccess& p : pages) {
    if (!p.write) {
      continue;
    }
    const tpftl::BlockId b = (p.lpn / geometry.pages_per_block) % geometry.total_blocks;
    if (!flash.block(b).HasFreePage()) {
      erase_block(b);
    }
    tpftl::Ppn ppn = tpftl::kInvalidPpn;
    timer(program, [&] { return flash.ProgramPage(b, p.lpn, &ppn); });
  }
  // Guarantee erase samples where the stream never fills a block.
  for (tpftl::BlockId b = 0; b < geometry.total_blocks && erase.calls < 256; ++b) {
    if (flash.block(b).write_cursor() > 0) {
      erase_block(b);
    }
  }
  out["flash.program_ns"] = program.MeanNs();
  out["flash.erase_ns"] = erase.MeanNs();
}

// LearnedIndex with LearnedFTL's segment budget: a read whose LPN no segment
// covers harvests segments from the 128 mapped entries ahead of it (as
// LearnedFTL does on a read miss).
void LadderLearned(const tpftl::Ssd& ssd, const std::vector<PageAccess>& pages,
                   const std::vector<tpftl::Ppn>& map, Timer& timer,
                   std::map<std::string, double>& out) {
  const auto* demand = dynamic_cast<const tpftl::DemandFtl*>(&ssd.ftl());
  const uint64_t entry_budget =
      demand != nullptr ? demand->entry_cache_budget_bytes() : ssd.cache_bytes();
  const tpftl::LearnedFtlOptions options;
  tpftl::LearnedIndex index(
      static_cast<uint64_t>(static_cast<double>(entry_budget) * options.model_budget_fraction));
  const uint64_t epp = ssd.geometry().entries_per_translation_page();
  SpanStat lookup;
  SpanStat insert;
  std::vector<tpftl::PlrPoint> run;
  for (const PageAccess& p : pages) {
    if (p.write) {
      continue;
    }
    if (timer(lookup, [&] { return index.Lookup(p.lpn); }) != nullptr) {
      continue;
    }
    const tpftl::Lpn end =
        std::min<tpftl::Lpn>({p.lpn + options.harvest_window, (p.lpn / epp + 1) * epp,
                              static_cast<tpftl::Lpn>(map.size())});
    const auto flush = [&] {
      for (const tpftl::PlrSegment& seg :
           tpftl::TrainPlr(run, options.error_bound, options.min_run_points)) {
        timer(insert, [&] { index.Insert(seg); });
      }
      run.clear();
    };
    for (tpftl::Lpn l = p.lpn; l < end; ++l) {
      if (!run.empty() && map[l] <= run.back().ppn) {
        flush();
      }
      run.push_back({l, map[l]});
    }
    flush();
  }
  out["learned.index_lookup_ns"] = lookup.MeanNs();
  out["learned.index_insert_ns"] = insert.MeanNs();
}

}  // namespace

std::map<std::string, double> RunLadder(const WorkloadSpec& spec, tpftl::Ssd& ssd,
                                        const std::vector<double>& responses) {
  std::map<std::string, double> out;
  Timer timer(TimerOverheadNs());
  const tpftl::FlashGeometry geometry = ssd.geometry();
  const uint64_t page_size = geometry.page_size_bytes;
  const std::vector<tpftl::IoRequest> reqs =
      StreamAfter(spec, spec.warmup_requests + spec.window_requests, kLadderRequests);
  const std::vector<PageAccess> pages = Pages(reqs, page_size, ssd.logical_pages());

  LadderCache(ssd, pages, timer, out);
  LadderTranslationStore(geometry, ssd.logical_pages(), pages, timer, out);
  std::vector<tpftl::Ppn> map;
  LadderBlockManager(geometry, ssd.logical_pages(), pages, spec.fill_seed, timer, out, &map);
  LadderLearned(ssd, pages, map, timer, out);
  map = {};
  LadderFlash(geometry, pages, timer, out);

  tpftl::obs::LatencyHistogram hist;
  const Clock::time_point a = Clock::now();
  for (const double v : responses) {
    hist.Add(v);
  }
  const Clock::time_point b = Clock::now();
  out["obs.record_ns"] = responses.empty() || hist.total() != responses.size()
                             ? 0.0
                             : SecondsBetween(a, b) * 1e9 / static_cast<double>(responses.size());

  // Last: the FTL rung mutates the device.
  LadderFtl(ssd.ftl(), reqs, page_size, ssd.logical_pages(), timer, out);
  return out;
}

}  // namespace perfbench
