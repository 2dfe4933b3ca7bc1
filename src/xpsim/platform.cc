#include "xpsim/platform.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace xp::hw {

namespace {

// Iterate the cache-line-granular segments of a byte range.
// fn(line_off, seg_off, seg_len): seg_off is the absolute namespace
// offset of the segment, line_off its containing line's start.
template <typename Fn>
void for_each_line_segment(std::uint64_t off, std::size_t len, Fn&& fn) {
  std::uint64_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::uint64_t line_off = pos & ~std::uint64_t{63};
    const std::size_t in_line = static_cast<std::size_t>(pos - line_off);
    const std::size_t n = std::min(remaining, std::size_t{64} - in_line);
    fn(line_off, pos, n);
    pos += n;
    remaining -= n;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PmemNamespace
// ---------------------------------------------------------------------------

PmemNamespace::PmemNamespace(Platform& platform, NamespaceOptions opts,
                             std::uint64_t base)
    : platform_(platform),
      opts_(std::move(opts)),
      base_(base),
      decoder_(
          (opts_.device == Device::kXp && !opts_.interleaved)
              ? 1
              : platform.timing().channels_per_socket,
          opts_.device == Device::kXp ? platform.timing().interleave_chunk
                                      : 256),
      image_(opts_.size) {}

DimmAddr PmemNamespace::decode(std::uint64_t off) const {
  if (decoder_.channels() == 1) return DimmAddr{opts_.dimm, off};
  return decoder_.decode(off);
}

void PmemNamespace::load(ThreadCtx& ctx, std::uint64_t off,
                         std::span<std::uint8_t> out) {
  assert(off + out.size() <= opts_.size);
  platform_.do_load(ctx, *this, off, out);
}

void PmemNamespace::store(ThreadCtx& ctx, std::uint64_t off,
                          std::span<const std::uint8_t> data) {
  assert(off + data.size() <= opts_.size);
  if (!platform_.frozen()) {
    notify_store(off, data.size());
    // With a DRAM read cache attached the invalidation just performed is
    // a cross-thread visibility edge — let the schedule explorer preempt
    // here. Observer-free stores announce nothing.
    if (observer_ != nullptr)
      ctx.sched_point(sim::SchedPoint::kCacheInvalidate);
  }
  platform_.do_store(ctx, *this, off, data);
}

void PmemNamespace::ntstore(ThreadCtx& ctx, std::uint64_t off,
                            std::span<const std::uint8_t> data) {
  assert(off + data.size() <= opts_.size);
  if (!platform_.frozen()) {
    notify_store(off, data.size());
    if (observer_ != nullptr)
      ctx.sched_point(sim::SchedPoint::kCacheInvalidate);
  }
  platform_.do_ntstore(ctx, *this, off, data);
}

void PmemNamespace::clwb(ThreadCtx& ctx, std::uint64_t off, std::size_t len) {
  platform_.do_flush(ctx, *this, off, len, Platform::FlushKind::kClwb);
}

void PmemNamespace::clflushopt(ThreadCtx& ctx, std::uint64_t off,
                               std::size_t len) {
  platform_.do_flush(ctx, *this, off, len, Platform::FlushKind::kClflushopt);
}

void PmemNamespace::clflush(ThreadCtx& ctx, std::uint64_t off,
                            std::size_t len) {
  platform_.do_flush(ctx, *this, off, len, Platform::FlushKind::kClflush);
}

void PmemNamespace::sfence(ThreadCtx& ctx) {
  // Fence retirement is the durability edge every persistence protocol
  // hinges on — announce it before the frozen check, so threads that
  // outlive a crash under the schedule explorer are unwound at their next
  // fence instead of running on against a dead machine.
  ctx.sched_point(sim::SchedPoint::kFence);
  if (platform_.frozen()) return;
  ctx.drain();
  ctx.advance_by(platform_.timing().fence_overhead);
  platform_.note_persist_event(PersistEventKind::kSfence, ctx.now());
  if (TelemetrySink* sink = platform_.telemetry()) sink->tick(ctx.now());
}

void PmemNamespace::mfence(ThreadCtx& ctx) { sfence(ctx); }

void PmemNamespace::persist(ThreadCtx& ctx, std::uint64_t off,
                            std::size_t len) {
  clwb(ctx, off, len);
  sfence(ctx);
}

void PmemNamespace::store_flush(ThreadCtx& ctx, std::uint64_t off,
                                std::span<const std::uint8_t> data) {
  store(ctx, off, data);
  clwb(ctx, off, data.size());
}

void PmemNamespace::store_persist(ThreadCtx& ctx, std::uint64_t off,
                                  std::span<const std::uint8_t> data) {
  store_flush(ctx, off, data);
  sfence(ctx);
}

void PmemNamespace::ntstore_persist(ThreadCtx& ctx, std::uint64_t off,
                                    std::span<const std::uint8_t> data) {
  ntstore(ctx, off, data);
  sfence(ctx);
}

void PmemNamespace::peek(std::uint64_t off,
                         std::span<std::uint8_t> out) const {
  image_.read(off, out);
}

void PmemNamespace::poke(std::uint64_t off,
                         std::span<const std::uint8_t> in) {
  notify_store(off, in.size());
  image_.write(off, in);
}

XpCounters PmemNamespace::xp_counters() const {
  XpCounters sum;
  if (opts_.device != Device::kXp) return sum;
  if (opts_.interleaved) {
    for (unsigned ch = 0; ch < platform_.timing().channels_per_socket; ++ch)
      sum += platform_.sockets_[opts_.socket].xp[ch]->counters();
  } else {
    sum += platform_.sockets_[opts_.socket].xp[opts_.dimm]->counters();
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Platform
// ---------------------------------------------------------------------------

Platform::Platform(Timing timing, std::uint64_t seed) : timing_(timing) {
  caches_.reserve(timing_.sockets);
  cache_counters_.resize(timing_.sockets);
  sockets_.resize(timing_.sockets);
  for (unsigned s = 0; s < timing_.sockets; ++s) {
    caches_.push_back(
        std::make_unique<CacheModel>(timing_.llc_lines, seed + s * 977));
    for (unsigned ch = 0; ch < timing_.channels_per_socket; ++ch) {
      sockets_[s].xp.push_back(std::make_unique<XpDimm>(timing_));
      sockets_[s].dram.push_back(std::make_unique<DramDimm>(timing_));
      sockets_[s].mm.push_back(std::make_unique<MemoryModeChannel>(
          timing_, *sockets_[s].dram.back(), *sockets_[s].xp.back()));
    }
  }
  upi_ = std::make_unique<UpiLink>(timing_);
}

Platform::~Platform() = default;

PmemNamespace& Platform::add_namespace(NamespaceOptions opts) {
  assert(opts.socket < timing_.sockets);
  // 1 GB-align bases so cache-line addresses never straddle namespaces.
  constexpr std::uint64_t kAlign = std::uint64_t{1} << 30;
  next_base_ = (next_base_ + kAlign - 1) / kAlign * kAlign;
  namespaces_.push_back(
      std::make_unique<PmemNamespace>(*this, opts, next_base_));
  next_base_ += (opts.size + kAlign - 1) / kAlign * kAlign;
  return *namespaces_.back();
}

PmemNamespace& Platform::optane(std::uint64_t size, unsigned socket) {
  return add_namespace({.device = Device::kXp,
                        .socket = socket,
                        .interleaved = true,
                        .size = size,
                        .name = "optane"});
}

PmemNamespace& Platform::optane_ni(std::uint64_t size, unsigned socket,
                                   unsigned dimm) {
  return add_namespace({.device = Device::kXp,
                        .socket = socket,
                        .interleaved = false,
                        .dimm = dimm,
                        .size = size,
                        .name = "optane-ni"});
}

PmemNamespace& Platform::dram(std::uint64_t size, unsigned socket) {
  return add_namespace({.device = Device::kDram,
                        .socket = socket,
                        .size = size,
                        .name = "dram"});
}

PmemNamespace& Platform::pmep(std::uint64_t size, unsigned socket) {
  return add_namespace({.device = Device::kDram,
                        .socket = socket,
                        .size = size,
                        .emulation = pmep_knobs(),
                        .name = "pmep"});
}

PmemNamespace& Platform::optane_memory_mode(std::uint64_t size,
                                            unsigned socket) {
  return add_namespace({.device = Device::kXp,
                        .socket = socket,
                        .interleaved = true,
                        .size = size,
                        .memory_mode = true,
                        .name = "optane-memory-mode"});
}

std::size_t Platform::crash() {
  std::size_t lost_total = 0;
  if (timing_.eadr) {
    // eADR: the caches are inside the persistence domain; reserve energy
    // flushes every dirty line before the machine dies.
    writeback_all_caches();
  }
  for (auto& cache : caches_) {
    std::size_t lost = 0;
    cache->drop_all(&lost);
    lost_total += lost;
  }
  // Memory-Mode namespaces are volatile: their contents are gone too.
  for (auto& ns : namespaces_) {
    if (ns->opts_.memory_mode) ns->image_.clear();
  }
  return lost_total;
}

void Platform::crash_after(std::uint64_t n) {
  assert(n >= 1);
  assert(!frozen_);
  crash_at_ = persist_events_ + n;
  crash_fired_ = false;
}

void Platform::clear_crash_trigger() {
  crash_at_ = 0;
  frozen_ = false;
}

void Platform::note_persist_event(PersistEventKind kind, Time t) {
  ++persist_events_;
  if (telemetry_) telemetry_->persist_event(kind, t, persist_events_);
  if (crash_at_ != 0 && persist_events_ >= crash_at_) {
    crash_at_ = 0;
    crash_fired_ = true;
    if (telemetry_) telemetry_->crash_fired(t, persist_events_);
    crash();
    frozen_ = true;
    throw CrashPointHit{};
  }
}

// ---------------------------------------------------------------------------
// Media fault model
// ---------------------------------------------------------------------------

XpCounters& Platform::fault_counters(PmemNamespace& ns, std::uint64_t xpline) {
  const DimmAddr da = ns.decode(xpline);
  return sockets_[ns.socket()].xp[da.channel]->counters();
}

void Platform::poison_line(PmemNamespace& ns, std::uint64_t off) {
  do_poison(ns, off & ~(kXpLineBytes - 1));
}

bool Platform::line_poisoned(const PmemNamespace& ns,
                             std::uint64_t off) const {
  return ns.poison_.count(off & ~(kXpLineBytes - 1)) != 0;
}

void Platform::mark_ecc_transient(PmemNamespace& ns, std::uint64_t off) {
  assert(ns.device() == Device::kXp && !ns.opts_.memory_mode);
  media_faults_enabled_ = true;
  ns.ecc_transient_.insert(off & ~(kXpLineBytes - 1));
}

void Platform::arm_read_fault(std::uint64_t n) {
  assert(n >= 1);
  assert(!frozen_);
  media_faults_enabled_ = true;
  read_fault_at_ = device_reads_ + n;
  media_fault_fired_ = false;
}

void Platform::clear_media_fault() {
  read_fault_at_ = 0;
  media_fault_fired_ = false;
  frozen_ = false;
}

void Platform::set_wear_fail_migrations(std::uint64_t m) {
  wear_fail_migrations_ = m;
  if (m != 0) media_faults_enabled_ = true;
}

void Platform::do_poison(PmemNamespace& ns, std::uint64_t xpline) {
  assert(ns.device() == Device::kXp && !ns.opts_.memory_mode);
  media_faults_enabled_ = true;
  if (!ns.poison_.insert(xpline).second) return;
  // Deterministic clobber of the line's durable bytes (SplitMix64 keyed
  // by physical line address), so untimed peeks see garbage rather than
  // stale-but-plausible data — an uncorrectable line has no data.
  std::array<std::uint8_t, kXpLineBytes> junk;
  std::uint64_t x = (ns.base_ + xpline) ^ 0x9e3779b97f4a7c15ULL;
  for (std::size_t w = 0; w < kXpLineBytes; w += 8) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::memcpy(junk.data() + w, &z, 8);
  }
  ns.image_write(xpline, junk);
  ns.notify_store(xpline, kXpLineBytes);
  // Discard cached copies of the line's four 64 B sub-lines so later
  // reads must refetch from media and take the fault (dirty copies are
  // lost — the media under them failed).
  for (auto& cache : caches_)
    for (std::uint64_t sub = 0; sub < kXpLineBytes; sub += 64)
      cache->erase(ns.base_ + xpline + sub);
  ++fault_counters(ns, xpline).lines_poisoned;
  if (telemetry_)
    telemetry_->media_fault(MediaFaultKind::kPoisoned, 0, ns.socket(),
                            ns.decode(xpline).channel, xpline);
}

void Platform::clear_poison_by_write(PmemNamespace& ns, std::uint64_t xpline,
                                     Time t) {
  auto it = ns.poison_.find(xpline);
  if (it == ns.poison_.end()) return;
  ns.poison_.erase(it);
  ++fault_counters(ns, xpline).poison_cleared;
  if (telemetry_)
    telemetry_->media_fault(MediaFaultKind::kClearedByWrite, t, ns.socket(),
                            ns.decode(xpline).channel, xpline);
}

void Platform::media_fault_check(ThreadCtx& ctx, PmemNamespace& ns,
                                 std::uint64_t line_off, Time done) {
  const std::uint64_t xpline = line_off & ~(kXpLineBytes - 1);
  if (read_fault_at_ != 0 && device_reads_ >= read_fault_at_) {
    read_fault_at_ = 0;
    fire_media_error(ctx, ns, xpline, done, /*injected=*/true);
  }
  if (ns.poison_.count(xpline) != 0)
    fire_media_error(ctx, ns, xpline, done, /*injected=*/false);
  if (auto it = ns.ecc_transient_.find(xpline);
      it != ns.ecc_transient_.end()) {
    ns.ecc_transient_.erase(it);
    ++fault_counters(ns, xpline).ecc_corrected;
    if (telemetry_)
      telemetry_->media_fault(MediaFaultKind::kCorrected, done, ns.socket(),
                              ns.decode(xpline).channel, xpline);
  }
}

void Platform::fire_media_error(ThreadCtx& ctx, PmemNamespace& ns,
                                std::uint64_t xpline, Time done,
                                bool injected) {
  const unsigned channel = ns.decode(xpline).channel;
  if (injected) {
    do_poison(ns, xpline);
    media_fault_fired_ = true;
  }
  ++fault_counters(ns, xpline).uncorrectable_reads;
  if (telemetry_)
    telemetry_->media_fault(MediaFaultKind::kUncorrectable, done,
                            ns.socket(), channel, xpline);
  // Complete the in-flight access before unwinding so the thread's clock
  // state stays coherent for whoever catches the error.
  ctx.complete_access(done);
  if (injected) {
    // The faulting process dies at the MCE: model it exactly like a power
    // failure, then freeze so RAII cleanup in the unwinding workload
    // cannot touch the durable image.
    crash();
    frozen_ = true;
  }
  throw MediaError(ns.name(), xpline, ns.socket(), channel);
}

std::vector<std::uint64_t> Platform::ars(PmemNamespace& ns, std::uint64_t off,
                                         std::uint64_t len) {
  std::vector<std::uint64_t> bad;
  const std::uint64_t lo = off & ~(kXpLineBytes - 1);
  for (auto it = ns.poison_.lower_bound(lo);
       it != ns.poison_.end() && *it < off + len; ++it)
    bad.push_back(*it);
  for (const std::uint64_t line : bad) {
    ++fault_counters(ns, line).lines_scrubbed;
    if (telemetry_)
      telemetry_->media_fault(MediaFaultKind::kScrubFound, 0, ns.socket(),
                              ns.decode(line).channel, line);
  }
  return bad;
}

void Platform::attach_telemetry(TelemetrySink* sink) {
  telemetry_ = sink;
  for (unsigned s = 0; s < timing_.sockets; ++s)
    for (unsigned ch = 0; ch < timing_.channels_per_socket; ++ch)
      sockets_[s].xp[ch]->set_telemetry(sink, s, ch);
}

void Platform::reset_timing() {
  for (auto& socket : sockets_) {
    for (auto& dimm : socket.xp) dimm->reset_timing();
    for (auto& dimm : socket.dram) dimm->reset_timing();
  }
  upi_->reset_timing();
}

void Platform::writeback_all_caches() {
  for (auto& cache : caches_) {
    cache->writeback_all(
        [this](std::uint64_t paddr_line, const CacheModel::LineData& data) {
          PmemNamespace* ns = namespace_of(paddr_line);
          if (ns != nullptr) ns->image_write(paddr_line - ns->base_, data);
        });
  }
}

PmemNamespace* Platform::namespace_of(std::uint64_t paddr) {
  for (auto& ns : namespaces_) {
    if (paddr >= ns->base_ && paddr < ns->base_ + ns->size()) return ns.get();
  }
  return nullptr;
}

void Platform::coherence_flush(unsigned requesting_socket,
                               std::uint64_t paddr_line, Time t) {
  for (unsigned s = 0; s < timing_.sockets; ++s) {
    if (s == requesting_socket) continue;
    CacheModel::Line* line = caches_[s]->lookup(paddr_line);
    if (line != nullptr && line->dirty) {
      PmemNamespace* ns = namespace_of(paddr_line);
      if (ns != nullptr) ns->image_write(paddr_line - ns->base_, line->data);
      line->dirty = false;
      note_persist_event(PersistEventKind::kCoherenceFlush, t);
    }
  }
}

Time Platform::device_read_line(ThreadCtx& ctx, PmemNamespace& ns,
                                std::uint64_t line_off, Time t) {
  t += timing_.mesh;
  const bool remote = ctx.socket() != ns.socket();
  if (remote) {
    // Read command crosses on the outbound lane (may queue behind
    // lane-holding remote writes — the mixed-traffic pathology).
    t = upi_->outbound(t + upi_->command_latency(), timing_.ddrt_cmd);
  }
  const DimmAddr da = ns.decode(line_off);
  Time done;
  if (ns.opts_.memory_mode) {
    done = sockets_[ns.socket()].mm[da.channel]->read64(t, da.addr,
                                                        ctx.id());
  } else if (ns.device() == Device::kXp) {
    done = sockets_[ns.socket()].xp[da.channel]->read64(t, da.addr, ctx.id());
  } else {
    done = sockets_[ns.socket()].dram[da.channel]->read64(t, da.addr);
  }
  if (remote) done = upi_->inbound(done, upi_->data64());
  done += ns.opts_.emulation.extra_load_latency;
  return done;
}

Time Platform::device_write64(ThreadCtx& ctx, PmemNamespace& ns,
                              std::uint64_t line_off, Time t) {
  t += timing_.mesh;
  const bool remote = ctx.socket() != ns.socket();
  if (remote) {
    t = upi_->outbound(t + upi_->command_latency(), upi_->data64());
  }
  const DimmAddr da = ns.decode(line_off);
  Time ack;
  Time admit_wait = 0;
  if (ns.opts_.memory_mode) {
    ack = sockets_[ns.socket()].mm[da.channel]->write64(t, da.addr,
                                                        ctx.id());
  } else if (ns.device() == Device::kXp) {
    ack = sockets_[ns.socket()].xp[da.channel]->write64(
        t, da.addr, ctx.write_stream(), &admit_wait);
  } else {
    ack = sockets_[ns.socket()].dram[da.channel]->write64(
        t, da.addr, ns.opts_.emulation.write_slowdown, &admit_wait);
  }
  (void)admit_wait;
  if (wear_fail_migrations_ != 0 && timing_.wear_threshold != 0 &&
      ns.device() == Device::kXp && !ns.opts_.memory_mode) {
    // Wear-out coupling: once the line's AIT migration count has crossed
    // the threshold, the media fails under this write and the line goes
    // uncorrectable (the just-written data is part of what is lost).
    Media& media = sockets_[ns.socket()].xp[da.channel]->media();
    const std::uint64_t media_line = da.addr / timing_.xpline;
    if (media.wear_of(media_line) / timing_.wear_threshold >=
        wear_fail_migrations_)
      do_poison(ns, line_off & ~(kXpLineBytes - 1));
  }
  if (remote && ack > t + timing_.upi_hold_floor) {
    // The outbound lane stays busy until the target iMC accepts the
    // data, beyond the pipelined floor. DRAM acks in nanoseconds (no
    // hold); a write-saturated XP DIMM backs up into the link, which is
    // what collapses multi-threaded mixed remote traffic (Figs 18/19).
    const Time excess = ack - t - timing_.upi_hold_floor;
    upi_->hold_outbound(
        t + static_cast<Time>(static_cast<double>(excess) *
                              timing_.upi_write_hold));
  }
  return ack;
}

Time Platform::writeback_line(ThreadCtx& ctx, std::uint64_t paddr_line,
                              const CacheModel::LineData& data, Time t) {
  PmemNamespace* home = namespace_of(paddr_line);
  if (home == nullptr) return t;
  const std::uint64_t off = paddr_line - home->base_;
  home->image_write(off, data);
  const Time ack = device_write64(ctx, *home, off, t);
  note_persist_event(PersistEventKind::kWriteback, ack);
  return ack;
}

void Platform::do_load(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                       std::span<std::uint8_t> out) {
  if (frozen_) {
    // Post-crash: the machine is dead. Reads during unwinding (e.g. an
    // aborting transaction's rollback scan) see zeros and touch nothing.
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  std::size_t out_pos = 0;
  for_each_line_segment(off, out.size(), [&](std::uint64_t line_off,
                                             std::uint64_t seg_off,
                                             std::size_t n) {
    const std::uint64_t paddr_line = ns.base_ + line_off;
    const std::size_t in_line = static_cast<std::size_t>(seg_off - line_off);
    CacheModel& cache = *caches_[ctx.socket()];
    CacheCounters& cc = cache_counters_[ctx.socket()];

    const Time t0 = ctx.begin_access(timing_.issue_gap);
    Time done;
    if (const CacheModel::Line* line = cache.lookup(paddr_line)) {
      std::memcpy(out.data() + out_pos, line->data.data() + in_line, n);
      done = t0 + timing_.cache_hit;
      ++cc.load_hits;
    } else {
      ++cc.load_misses;
      coherence_flush(ctx.socket(), paddr_line, t0);
      done = device_read_line(ctx, ns, line_off, t0);
      if (ns.device() == Device::kXp && !ns.opts_.memory_mode) {
        ++device_reads_;
        if (media_faults_enabled_)
          media_fault_check(ctx, ns, line_off, done);  // may throw
      }
      CacheModel::LineData d;
      ns.image_.read(line_off, std::span<std::uint8_t>(d));
      std::memcpy(out.data() + out_pos, d.data() + in_line, n);
      auto victim = cache.insert(paddr_line, d, /*dirty=*/false, cc);
      if (victim && victim->dirty) {
        ++cc.writebacks;
        writeback_line(ctx, victim->line_addr, victim->data, done);
      }
    }
    ctx.complete_access(done);
    out_pos += n;
  });
  if (telemetry_) telemetry_->tick(ctx.now());
}

void Platform::do_store(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                        std::span<const std::uint8_t> data) {
  if (frozen_) return;
  std::size_t in_pos = 0;
  for_each_line_segment(off, data.size(), [&](std::uint64_t line_off,
                                              std::uint64_t seg_off,
                                              std::size_t n) {
    const std::uint64_t paddr_line = ns.base_ + line_off;
    const std::size_t in_line = static_cast<std::size_t>(seg_off - line_off);
    CacheModel& cache = *caches_[ctx.socket()];
    CacheCounters& cc = cache_counters_[ctx.socket()];

    const Time t0 = ctx.begin_access(timing_.issue_gap);
    Time done;
    if (CacheModel::Line* line = cache.lookup(paddr_line)) {
      std::memcpy(line->data.data() + in_line, data.data() + in_pos, n);
      line->dirty = true;
      done = t0 + timing_.store_hit;
      ++cc.store_hits;
    } else {
      // Read-for-ownership: fill the line, then modify it in cache.
      ++cc.store_misses;
      coherence_flush(ctx.socket(), paddr_line, t0);
      const Time fill = device_read_line(ctx, ns, line_off, t0);
      if (ns.device() == Device::kXp && !ns.opts_.memory_mode) {
        ++device_reads_;
        if (media_faults_enabled_)
          media_fault_check(ctx, ns, line_off, fill);  // may throw
      }
      CacheModel::LineData d;
      ns.image_.read(line_off, std::span<std::uint8_t>(d));
      std::memcpy(d.data() + in_line, data.data() + in_pos, n);
      auto victim = cache.insert(paddr_line, d, /*dirty=*/true, cc);
      Time wb_ack = 0;
      if (victim && victim->dirty) {
        ++cc.writebacks;
        wb_ack = writeback_line(ctx, victim->line_addr, victim->data, t0);
      }
      done = std::max(fill, wb_ack);
    }
    ctx.complete_access(done);
    in_pos += n;
  });
  if (telemetry_) telemetry_->tick(ctx.now());
}

void Platform::do_ntstore(ThreadCtx& ctx, PmemNamespace& ns,
                          std::uint64_t off,
                          std::span<const std::uint8_t> data) {
  if (frozen_) return;
  std::size_t in_pos = 0;
  for_each_line_segment(off, data.size(), [&](std::uint64_t line_off,
                                              std::uint64_t seg_off,
                                              std::size_t n) {
    const std::uint64_t paddr_line = ns.base_ + line_off;
    CacheModel& cache = *caches_[ctx.socket()];

    const Time t0 = ctx.begin_access(timing_.issue_gap);
    // Non-temporal stores bypass and invalidate the cache hierarchy.
    coherence_flush(ctx.socket(), paddr_line, t0);
    if (auto victim = cache.erase(paddr_line)) {
      // A dirty cached copy existed: its bytes reach the image first, then
      // the non-temporal data overwrites the target segment.
      ns.image_write(line_off, victim->data);
    }
    ns.image_write(seg_off, data.subspan(in_pos, n));
    const Time done =
        device_write64(ctx, ns, line_off, t0 + timing_.ntstore_wc_flush);
    ctx.complete_access(done);
    in_pos += n;
    if (media_faults_enabled_) {
      // A full-XPLine overwrite re-establishes ECC: when this segment
      // completes a 256 B line wholly covered by the ntstore — every
      // sub-line already in the ADR domain — its poison clears.
      const std::uint64_t xpline = line_off & ~(kXpLineBytes - 1);
      if (xpline >= off && seg_off + n == xpline + kXpLineBytes)
        clear_poison_by_write(ns, xpline, done);
    }
    note_persist_event(PersistEventKind::kNtStoreDrain, done);
  });
  if (telemetry_) telemetry_->tick(ctx.now());
}

void Platform::do_flush(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                        std::size_t len, FlushKind kind) {
  if (frozen_ || len == 0) return;
  const std::uint64_t first = off & ~std::uint64_t{63};
  const std::uint64_t last = (off + len - 1) & ~std::uint64_t{63};
  CacheModel& cache = *caches_[ctx.socket()];
  CacheCounters& cc = cache_counters_[ctx.socket()];
  for (std::uint64_t line_off = first; line_off <= last; line_off += 64) {
    const std::uint64_t paddr_line = ns.base_ + line_off;
    const Time t0 = ctx.begin_access(timing_.issue_gap);
    ++cc.explicit_flushes;
    Time done = t0 + sim::ns(2);
    bool entered_wpq = false;
    CacheModel::Line* line = cache.lookup(paddr_line);
    if (line != nullptr && line->dirty) {
      ns.image_write(line_off, line->data);
      // Clean or drop the line before the device write, which may
      // discard it: a wear-out there poisons the XPLine and drops its
      // cached sub-lines. Nothing else in that write reads a cache.
      if (kind == FlushKind::kClwb)
        line->dirty = false;
      else
        cache.erase(paddr_line);
      done = device_write64(ctx, ns, line_off, t0);
      entered_wpq = true;
    } else if (line != nullptr && kind != FlushKind::kClwb) {
      cache.erase(paddr_line);
    }
    ctx.complete_access(done);
    if (entered_wpq) note_persist_event(PersistEventKind::kWpqEntry, done);
    if (kind == FlushKind::kClflush) ctx.drain();  // serialized legacy flush
  }
  if (telemetry_) telemetry_->tick(ctx.now());
}

}  // namespace xp::hw
