// The whole simulated machine, and the persistent-memory programming API.
//
// Platform models the paper's testbed: two sockets, each with a CPU cache,
// six memory channels, and one XP DIMM + one DRAM DIMM per channel,
// connected by a UPI link. Software (LATTester, the file systems, the KV
// stores) runs as simulated threads (sim::ThreadCtx) and accesses memory
// through PmemNamespace, which both moves real bytes and charges simulated
// time.
//
// Persistence semantics follow the hardware contract exactly (§2.1):
//  * plain stores land in the (volatile) CPU cache;
//  * clwb/clflush/clflushopt/ntstore move data into the iMC's WPQ, which
//    is inside the ADR domain and therefore durable;
//  * sfence waits for prior flushes/ntstores to reach the WPQ;
//  * Platform::crash() drops all dirty cache lines — anything not flushed
//    is gone, anything flushed survives. Tests exploit this for
//    crash-consistency checking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simtime.h"
#include "xpsim/cache.h"
#include "xpsim/counters.h"
#include "xpsim/dram_dimm.h"
#include "xpsim/interleave.h"
#include "xpsim/memory_mode.h"
#include "xpsim/sparse_image.h"
#include "xpsim/telemetry_sink.h"
#include "xpsim/timing.h"
#include "xpsim/upi.h"
#include "xpsim/xpdimm.h"

namespace xp::hw {

using sim::ThreadCtx;
using sim::Time;

enum class Device { kXp, kDram };

struct NamespaceOptions {
  Device device = Device::kXp;
  unsigned socket = 0;
  bool interleaved = true;  // XP only: stripe over all 6 DIMMs vs. 1 DIMM
  unsigned dimm = 0;        // target DIMM for non-interleaved namespaces
  std::uint64_t size = std::uint64_t{1} << 30;
  // Memory Mode (paper §2.1.2): the XP DIMMs serve as *volatile* far
  // memory behind the channel's DRAM cache. Contents do not survive
  // crash(); persistence instructions are accepted but meaningless.
  bool memory_mode = false;
  EmulationKnobs emulation{};
  // Timing-only namespace: stores are not materialized in the backing
  // image (loads return zeros). Used by bandwidth benches so multi-GB
  // sweep regions don't consume host memory. Never use together with
  // data-integrity checks.
  bool discard_data = false;
  std::string name = "pmem";
};

class Platform;

// Thrown (by the data path) when a crash point armed with
// Platform::crash_after() fires: the machine has already crashed — dirty
// cache lines are gone — and the platform is frozen, so the workload must
// unwind. Catch it at the harness level (crashmc::explore does); never
// inside store code.
struct CrashPointHit {};

// Thrown by a timed read (cache-line fill or RFO) that hits an
// uncorrectable — poisoned — 256 B XPLine: the simulator's analogue of
// the machine check / SIGBUS a poisoned DAX mapping raises on real
// Optane. Reads of pre-existing poison throw with the platform still
// live, so recovery code can catch, scrub and continue; a campaign-armed
// injection (Platform::arm_read_fault) additionally crashes and freezes
// the platform before throwing, modeling the faulting process dying at
// the MCE.
struct MediaError : std::runtime_error {
  MediaError(const std::string& ns_name, std::uint64_t off, unsigned sock,
             unsigned chan)
      : std::runtime_error("uncorrectable media error: " + ns_name + "+" +
                           std::to_string(off)),
        nspace(ns_name),
        line_off(off),
        socket(sock),
        channel(chan) {}

  std::string nspace;
  std::uint64_t line_off;  // 256 B-aligned namespace offset
  unsigned socket;
  unsigned channel;
};

// Observer of writes into a namespace, notified of every byte range that
// changes the namespace's contents through any path — timed stores,
// non-temporal stores, untimed pokes, and media-fault clobbers. The
// software read-cache layer (pmem::ReadCache) uses this to drop stale
// DRAM copies. A namespace holds at most one observer; every notify site
// is a single null-pointer branch, so a namespace with no observer pays
// one predictable branch per write and nothing else. Observers must be
// timing-neutral: they may bookkeep but never touch simulated clocks or
// device state.
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;
  virtual void on_store(std::uint64_t off, std::size_t len) = 0;
};

// A byte-addressable persistent (or pseudo-persistent) region, the unit of
// App-Direct provisioning (an fsdax namespace in Linux terms).
class PmemNamespace {
 public:
  PmemNamespace(Platform& platform, NamespaceOptions opts,
                std::uint64_t base);

  // ---- Timed data path (the public programming interface) ---------------
  void load(ThreadCtx& ctx, std::uint64_t off, std::span<std::uint8_t> out);
  void store(ThreadCtx& ctx, std::uint64_t off,
             std::span<const std::uint8_t> data);
  void ntstore(ThreadCtx& ctx, std::uint64_t off,
               std::span<const std::uint8_t> data);
  void clwb(ThreadCtx& ctx, std::uint64_t off, std::size_t len);
  void clflushopt(ThreadCtx& ctx, std::uint64_t off, std::size_t len);
  void clflush(ThreadCtx& ctx, std::uint64_t off, std::size_t len);
  void sfence(ThreadCtx& ctx);
  void mfence(ThreadCtx& ctx);

  // Convenience compositions used throughout the upper layers.
  // persist(): clwb the range, then sfence (PMDK's pmem_persist).
  void persist(ThreadCtx& ctx, std::uint64_t off, std::size_t len);
  // store + clwb, no fence (caller batches the sfence).
  void store_flush(ThreadCtx& ctx, std::uint64_t off,
                   std::span<const std::uint8_t> data);
  // store + clwb + sfence.
  void store_persist(ThreadCtx& ctx, std::uint64_t off,
                     std::span<const std::uint8_t> data);
  // ntstore + sfence.
  void ntstore_persist(ThreadCtx& ctx, std::uint64_t off,
                       std::span<const std::uint8_t> data);

  template <typename T>
  T load_pod(ThreadCtx& ctx, std::uint64_t off) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    load(ctx, off, std::span<std::uint8_t>(
                       reinterpret_cast<std::uint8_t*>(&v), sizeof(T)));
    return v;
  }
  template <typename T>
  void store_pod(ThreadCtx& ctx, std::uint64_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    store(ctx, off, std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)));
  }

  // ---- Untimed debug/test access (bypasses cache AND durability) --------
  // peek() reads the *durable* image — what would survive a crash.
  void peek(std::uint64_t off, std::span<std::uint8_t> out) const;
  void poke(std::uint64_t off, std::span<const std::uint8_t> in);
  template <typename T>
  T peek_pod(std::uint64_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    peek(off, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v),
                                      sizeof(T)));
    return v;
  }

  // ---- Introspection -----------------------------------------------------
  std::uint64_t size() const { return opts_.size; }
  unsigned socket() const { return opts_.socket; }
  Device device() const { return opts_.device; }
  bool interleaved() const { return opts_.interleaved; }
  const std::string& name() const { return opts_.name; }
  std::uint64_t base() const { return base_; }
  Platform& platform() { return platform_; }

  // Aggregated DIMM hardware counters for the DIMMs this namespace spans.
  XpCounters xp_counters() const;

  // Maps a namespace offset to (channel, DIMM-local address).
  DimmAddr decode(std::uint64_t off) const;

  // Attach a write observer (see StoreObserver above). At most one; the
  // previous one is detached. Null detaches.
  void set_store_observer(StoreObserver* o) { observer_ = o; }
  StoreObserver* store_observer() const { return observer_; }

 private:
  friend class Platform;

  void notify_store(std::uint64_t off, std::size_t len) {
    if (observer_) observer_->on_store(off, len);
  }

  void image_write(std::uint64_t off, std::span<const std::uint8_t> in) {
    if (!opts_.discard_data) image_.write(off, in);
  }

  Platform& platform_;
  NamespaceOptions opts_;
  std::uint64_t base_;  // position in the global physical address space
  InterleaveDecoder decoder_;
  SparseImage image_;
  // Media error state, keyed by 256 B-aligned namespace offset (valid
  // because the interleave chunk is a multiple of the XPLine size, so one
  // namespace XPLine maps to exactly one DIMM XPLine). Empty unless a
  // FaultInjector has planted faults.
  std::set<std::uint64_t> poison_;         // uncorrectable lines
  std::set<std::uint64_t> ecc_transient_;  // one-shot correctable events
  StoreObserver* observer_ = nullptr;
};

class Platform {
 public:
  explicit Platform(Timing timing = {}, std::uint64_t seed = 42);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const Timing& timing() const { return timing_; }

  PmemNamespace& add_namespace(NamespaceOptions opts);

  // Canonical configurations from the paper (§2.3). `socket` defaults to
  // the local socket; "remote" in the paper means the *thread* runs on the
  // other socket, which the caller controls via ThreadCtx::socket.
  PmemNamespace& optane(std::uint64_t size, unsigned socket = 0);
  PmemNamespace& optane_ni(std::uint64_t size, unsigned socket = 0,
                           unsigned dimm = 0);
  PmemNamespace& dram(std::uint64_t size, unsigned socket = 0);
  PmemNamespace& pmep(std::uint64_t size, unsigned socket = 0);
  // XP DIMMs in Memory Mode (volatile, DRAM-cached far memory).
  PmemNamespace& optane_memory_mode(std::uint64_t size, unsigned socket = 0);

  // Power failure: every dirty CPU-cache line is lost; the ADR domain
  // (WPQ + XPBuffer) has already reached the durable image. Returns the
  // number of dirty lines that were lost.
  std::size_t crash();

  // Orderly flush of all caches (not available on real hardware at this
  // granularity; used by tests and shutdown paths).
  void writeback_all_caches();

  // Write every dirty line still in the XP write-combining buffers to
  // media at time `t`, so the media counters cover a whole run: a short
  // run whose working set fits in the 16 KB buffers would otherwise
  // report almost no media writes and a flattering EWR.
  void flush_xp_buffers(Time t) {
    for (auto& socket : sockets_)
      for (auto& dimm : socket.xp)
        dimm->buffer().flush_all(t, dimm->counters());
  }

  // ---- Crash-point instrumentation (src/crashmc) -------------------------
  // Every durability-relevant event is counted: a dirty line entering the
  // WPQ (clwb/clflush/clflushopt of a dirty line, a natural eviction
  // write-back, a coherence ownership flush), a non-temporal store
  // draining to the iMC (per 64 B line), and an sfence retiring. The
  // counter is timing-neutral, so instrumented runs stay byte-identical
  // to uninstrumented ones.
  std::uint64_t persist_events() const { return persist_events_; }

  // Arm a crash trigger: when `n` more persist events have occurred
  // (n >= 1, counted from now), the platform crashes exactly as crash()
  // does, freezes — every subsequent timed data-path operation becomes a
  // no-op, so RAII cleanup in the unwinding workload cannot touch the
  // durable image — and throws CrashPointHit. Deterministic workloads
  // therefore crash at exactly the same machine state for the same `n`.
  void crash_after(std::uint64_t n);

  // Disarm and unfreeze after a fired (or abandoned) trigger; the durable
  // image is left exactly as the crash produced it, ready for recovery.
  void clear_crash_trigger();

  bool crash_fired() const { return crash_fired_; }
  bool frozen() const { return frozen_; }

  // ---- Media fault model (src/xpsim/fault.h) -----------------------------
  // Inert until a FaultInjector plants a fault or arms a trigger: with no
  // faults in use, every timed read takes one disabled branch and all
  // error counters stay zero, so fault-free runs are bit-identical to the
  // pre-fault-subsystem simulator.
  static constexpr std::uint64_t kXpLineBytes = 256;

  // Timed device reads (cache fills + RFOs) served by App-Direct XP
  // namespaces, counted unconditionally — the read-site numbering that
  // arm_read_fault() uses, mirroring persist_events()/crash_after().
  std::uint64_t device_reads() const { return device_reads_; }

  // Mark the XPLine containing `off` uncorrectable: its durable bytes are
  // clobbered deterministically, cached copies of the line are discarded,
  // and every later timed read of it throws MediaError until a full-line
  // ntstore rewrites it.
  void poison_line(PmemNamespace& ns, std::uint64_t off);
  bool line_poisoned(const PmemNamespace& ns, std::uint64_t off) const;

  // Plant a one-shot ECC-corrected transient on the XPLine containing
  // `off`: the next read succeeds but counts an ecc_corrected event.
  void mark_ecc_transient(PmemNamespace& ns, std::uint64_t off);

  // Campaign trigger: the n-th device read from now (n >= 1) poisons the
  // XPLine it touches, crashes and freezes the platform (the faulting
  // process dies at the MCE), and throws MediaError.
  void arm_read_fault(std::uint64_t n);
  bool media_fault_fired() const { return media_fault_fired_; }

  // Disarm and unfreeze after a fired (or abandoned) injection; the
  // poison stays, ready for recovery. Analogue of clear_crash_trigger().
  void clear_media_fault();

  // Wear-out coupling: an XPLine whose AIT wear-migration count has
  // reached `m` goes uncorrectable on its next write. 0 disables.
  void set_wear_fail_migrations(std::uint64_t m);

  // Address Range Scrub: report the 256 B-aligned offsets of every
  // poisoned XPLine inside [off, off+len) of `ns`, sorted ascending.
  // Untimed firmware maintenance — no simulated clock is charged; counts
  // lines_scrubbed and emits kScrubFound telemetry per bad line.
  std::vector<std::uint64_t> ars(PmemNamespace& ns, std::uint64_t off,
                                 std::uint64_t len);
  // The one damage lookup over an ars() result: whether [off, off+len),
  // widened like ars() to start at the XPLine holding `off`, touches a
  // line of `bad`. Binary search; no side effects.
  static bool touches_bad_line(std::span<const std::uint64_t> bad,
                               std::uint64_t off, std::uint64_t len) {
    const auto it =
        std::lower_bound(bad.begin(), bad.end(), off & ~(kXpLineBytes - 1));
    return it != bad.end() && *it < off + len;
  }

  // Start a new measurement epoch: forget every queue/bank/link
  // reservation so freshly spawned ThreadCtx clocks (which start at 0)
  // don't wait behind stale far-future reservations from a previous run.
  // Data contents, caches, wear and counters are untouched. Call this
  // before every independent sim::Scheduler run on a reused Platform.
  void reset_timing();

  // Adopt every namespace image's debug single-owner latch for the
  // calling host thread (see SparseImage::rebind_owner). The schedmc
  // interleaver calls this on each run-token handoff so its strictly
  // serialized host threads pass the latch instead of tripping it; any
  // access without holding the token still fails fast. Release: no-op.
  void adopt_host_owner() {
    for (auto& ns : namespaces_) ns->image_.rebind_owner();
  }

  // ---- Telemetry (src/telemetry) -----------------------------------------
  // Attach a sink to receive structured events from every device and a
  // tick per data-path call (see telemetry_sink.h). At most one sink; the
  // previous one is detached. Sinks are timing-neutral, so attaching one
  // never changes simulated results. Null detaches.
  void attach_telemetry(TelemetrySink* sink);
  TelemetrySink* telemetry() const { return telemetry_; }

  CacheModel& cache(unsigned socket) { return *caches_[socket]; }
  const CacheCounters& cache_counters(unsigned socket) const {
    return cache_counters_[socket];
  }
  XpDimm& xp_dimm(unsigned socket, unsigned channel) {
    return *sockets_[socket].xp[channel];
  }
  const XpDimm& xp_dimm(unsigned socket, unsigned channel) const {
    return *sockets_[socket].xp[channel];
  }
  DramDimm& dram_dimm(unsigned socket, unsigned channel) {
    return *sockets_[socket].dram[channel];
  }
  const DramDimm& dram_dimm(unsigned socket, unsigned channel) const {
    return *sockets_[socket].dram[channel];
  }
  UpiLink& upi() { return *upi_; }
  MemoryModeChannel& memory_mode_channel(unsigned socket, unsigned channel) {
    return *sockets_[socket].mm[channel];
  }

  friend class PmemNamespace;

 private:
  struct SocketHw {
    std::vector<std::unique_ptr<XpDimm>> xp;
    std::vector<std::unique_ptr<DramDimm>> dram;
    std::vector<std::unique_ptr<MemoryModeChannel>> mm;
  };

  // ---- internal timed paths (per 64 B line) ------------------------------
  // Read one cache line's worth of data from the device into `out`
  // (durable image content). Returns data-arrival completion time.
  Time device_read_line(ThreadCtx& ctx, PmemNamespace& ns,
                        std::uint64_t line_off, Time t);
  // Send one 64 B write to the device (enters ADR). Returns persist-ack.
  Time device_write64(ThreadCtx& ctx, PmemNamespace& ns,
                      std::uint64_t line_off, Time t);

  // Write back a victim cache line to its home namespace (applies data to
  // the durable image). Returns persist-ack time.
  Time writeback_line(ThreadCtx& ctx, std::uint64_t paddr_line,
                      const CacheModel::LineData& data, Time t);

  // If any *other* socket caches this line dirty, flush it to the image
  // (simplified MESI ownership transfer). `t` is the requester's clock,
  // used only to timestamp the telemetry event (the flush itself is
  // data-movement only).
  void coherence_flush(unsigned requesting_socket, std::uint64_t paddr_line,
                       Time t);

  PmemNamespace* namespace_of(std::uint64_t paddr);

  // One cache-line-granular step of load/store; used by PmemNamespace.
  void do_load(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
               std::span<std::uint8_t> out);
  void do_store(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                std::span<const std::uint8_t> data);
  void do_ntstore(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                  std::span<const std::uint8_t> data);
  enum class FlushKind { kClwb, kClflushopt, kClflush };
  void do_flush(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                std::size_t len, FlushKind kind);

  // Record one durability-relevant event; fires the armed crash trigger
  // (crash + freeze + throw CrashPointHit) when the count is reached.
  // `kind` and `t` only feed the telemetry sink — the count itself (and
  // therefore every crash point) is independent of them.
  void note_persist_event(PersistEventKind kind, Time t);

  // ---- media fault internals (fault paths only) --------------------------
  // Counters of the DIMM owning `xpline` of `ns`.
  XpCounters& fault_counters(PmemNamespace& ns, std::uint64_t xpline);
  // poison_line() after alignment; idempotent.
  void do_poison(PmemNamespace& ns, std::uint64_t xpline);
  // Clear poison because a full-XPLine write just reached the ADR domain.
  void clear_poison_by_write(PmemNamespace& ns, std::uint64_t xpline, Time t);
  // Per-device-read fault gate, called with an access in flight; on a
  // fault it completes the access, then throws MediaError (after crash +
  // freeze if the armed trigger fired).
  void media_fault_check(ThreadCtx& ctx, PmemNamespace& ns,
                         std::uint64_t line_off, Time done);
  [[noreturn]] void fire_media_error(ThreadCtx& ctx, PmemNamespace& ns,
                                     std::uint64_t xpline, Time done,
                                     bool injected);

  Timing timing_;
  std::vector<std::unique_ptr<CacheModel>> caches_;  // one per socket
  std::vector<CacheCounters> cache_counters_;
  std::vector<SocketHw> sockets_;
  std::unique_ptr<UpiLink> upi_;
  std::vector<std::unique_ptr<PmemNamespace>> namespaces_;
  std::uint64_t next_base_ = 0;

  std::uint64_t persist_events_ = 0;
  std::uint64_t crash_at_ = 0;  // 0 = disarmed
  bool frozen_ = false;
  bool crash_fired_ = false;
  TelemetrySink* telemetry_ = nullptr;

  std::uint64_t device_reads_ = 0;
  std::uint64_t read_fault_at_ = 0;  // 0 = disarmed
  std::uint64_t wear_fail_migrations_ = 0;
  bool media_faults_enabled_ = false;
  bool media_fault_fired_ = false;
};

}  // namespace xp::hw
