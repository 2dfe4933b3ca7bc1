// perfbench: the repository benchmark's workloads, driven through the
// simulator's public APIs only.
//
// Three lsmkv traffic mixes run behind a 4-shard workload::ShardedStore
// (one non-interleaved DIMM per shard) as closed loops of 8 simulated
// clients on the engine's cooperative scheduler; a device-calibration run
// drives lat::run over the paper's Fig 2 and Fig 4 reference points. Every
// store keeps the library's default StoreTuning/ShardOptions: the
// benchmark sets only sizes (records, value length, shards, clients and
// Timing::llc_lines), never a §5 fast-path knob.
//
// Everything in a KvSim or a DeviceRun's simulated fields is a pure
// function of the workload and the seed and repeats bit for bit; host
// costs (setup_s, host_s) do not.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.h"
#include "workload/engine.h"
#include "workload/shard.h"
#include "xpsim/telemetry_sink.h"

namespace perfbench {

enum class Workload { kKvUpdate, kKvRead, kKvScan, kDeviceCalib };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

// num / den, or 0 when den is 0 (a layer a workload does not use).
double ratio(double num, double den);

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);
// CPU time of the calling thread. Host costs (setup_s, host_s) are taken
// on it: unlike wall time it does not count the time the thread waits
// for a core on a shared host.
double cpu_seconds();

// CPU seconds of a fixed host-only kernel shaped like the simulator's hot
// loop (random hash-map lookups over a working set larger than the L2).
// It runs no simulator code, so its time tracks only the host's speed.
double reference_cpu_s();
// reference_cpu_s() on an otherwise idle 4-core x86 host: host seconds
// are reported at this speed.
inline constexpr double kReferenceCpuS = 0.03;
// `cpu_s` CPU seconds in seconds at reference host speed, given the
// reference kernel's timings taken around them (their median). A host
// slowed down by other load (a busy SMT sibling, shared caches) slows the
// kernel too, so this cancels most of that noise; no simulator change can
// move the kernel.
double at_reference_speed(double cpu_s, const std::vector<double>& ref_s);

// ---- KV mixes ---------------------------------------------------------------

struct KvConfig {
  xp::workload::Spec spec;  // YCSB mix, records, ops, value length, seed
  unsigned shards = 4;
  unsigned clients = 8;
  std::size_t llc_lines = 512;  // 32 KiB, as bench_ycsb
  std::uint64_t shard_bytes = std::uint64_t{64} << 20;
};

// The fixed-length mix of a KV workload (kv-update, kv-read, kv-scan).
KvConfig kv_config(Workload w, std::uint64_t seed);

// How far the preloaded dataset (key + value bytes) overflows each cache
// in front of the media.
struct Regime {
  double dataset_bytes = 0;
  double over_llc = 0;         // ÷ LLC bytes
  double over_xpbuffer = 0;    // ÷ XPBuffer bytes of the shards' DIMMs
  double over_read_cache = 0;  // ÷ DRAM read cache a default-on read path
                               //   would hold across the shards (2 MiB)
};
Regime regime(const KvConfig& cfg);

// kv-read's floor: a cache cannot win there by holding the dataset.
inline constexpr double kMinOverLlc = 64;
inline constexpr double kMinOverXpBuffer = 8;
inline constexpr double kMinOverReadCache = 4;
bool regime_ok(const Regime& r);

// Spans of one StoreIface entry point, taken by TracedStore.
struct CallStats {
  std::vector<xp::sim::Time> sim;  // simulated latency of each call (ps)
  double host_s = 0;               // host time inside the calls
  std::uint64_t rows = 0;          // rows returned (scans)

  std::uint64_t calls() const { return sim.size(); }
  double sim_us_per_call() const;
  double host_us_per_call() const;
};

// A StoreIface decorator that takes a simulated-time span and a
// steady_clock span around every typed call and every background turn.
// It only reads clocks, so a decorated run is simulated-time and
// telemetry identical to a bare one.
class TracedStore final : public xp::workload::StoreIface {
 public:
  struct Spans {
    CallStats get, put, scan, bg;  // put covers puts, deletes and batches
  };

  explicit TracedStore(xp::workload::StoreIface& inner) : inner_(inner) {}

  const Spans& spans() const { return spans_; }

  const char* name() const override { return inner_.name(); }
  xp::workload::StoreKind kind() const override { return inner_.kind(); }
  void create(xp::sim::ThreadCtx& ctx) override { inner_.create(ctx); }
  bool open(xp::sim::ThreadCtx& ctx) override { return inner_.open(ctx); }
  void put(xp::sim::ThreadCtx& ctx, std::string_view key,
           std::string_view value) override {
    inner_.put(ctx, key, value);
  }
  bool get(xp::sim::ThreadCtx& ctx, std::string_view key,
           std::string* value) override {
    return inner_.get(ctx, key, value);
  }
  bool del(xp::sim::ThreadCtx& ctx, std::string_view key) override {
    return inner_.del(ctx, key);
  }
  bool del_reports_found() const override {
    return inner_.del_reports_found();
  }
  bool supports_scan() const override { return inner_.supports_scan(); }
  std::vector<std::pair<std::string, std::string>> scan(
      xp::sim::ThreadCtx& ctx, std::string_view start,
      std::size_t n) override {
    return inner_.scan(ctx, start, n);
  }
  void apply_batch(xp::sim::ThreadCtx& ctx,
                   std::span<const xp::workload::BatchOp> ops) override {
    inner_.apply_batch(ctx, ops);
  }
  void flush_pending(xp::sim::ThreadCtx& ctx) override {
    inner_.flush_pending(ctx);
  }
  bool background_turn(xp::sim::ThreadCtx& ctx) override;
  xp::Status check(xp::sim::ThreadCtx& ctx) override {
    return inner_.check(ctx);
  }
  xp::workload::OpResult try_put(xp::sim::ThreadCtx& ctx,
                                 std::string_view key,
                                 std::string_view value) override;
  xp::workload::OpResult try_get(xp::sim::ThreadCtx& ctx,
                                 std::string_view key,
                                 std::string* value) override;
  xp::workload::OpResult try_del(xp::sim::ThreadCtx& ctx,
                                 std::string_view key,
                                 bool* found = nullptr) override;
  xp::workload::OpResult try_scan(
      xp::sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
      std::vector<std::pair<std::string, std::string>>* out) override;
  xp::workload::OpResult try_apply_batch(
      xp::sim::ThreadCtx& ctx,
      std::span<const xp::workload::BatchOp> ops) override;
  xp::hw::Platform* platform_of() const override {
    return inner_.platform_of();
  }
  xp::Status repair_media(xp::sim::ThreadCtx& ctx) override {
    return inner_.repair_media(ctx);
  }

 private:
  template <typename F>
  auto span(CallStats& c, xp::sim::ThreadCtx& ctx, F&& f);

  xp::workload::StoreIface& inner_;
  Spans spans_;
};

using PersistCounts = std::array<std::uint64_t, xp::hw::kPersistEventKinds>;

// Simulated outcome of one KV run.
struct KvSim {
  xp::workload::Result res;
  xp::sim::Time drain = 0;  // background debt retired after the last client
  std::uint64_t drain_turns = 0;
  bool drained = false;     // the debt ran out within the turn cap
  xp::telemetry::Delta delta;  // counters over the measured phase + drain

  // Ops per simulated second, charging the debt drain.
  double sim_kops() const;
  // Media write bytes ÷ user key+value bytes written.
  double media_write_amp(const xp::workload::Spec& spec) const;
};

// True when every simulated quantity of the two runs is identical.
bool same_sim(const KvSim& a, const KvSim& b);

struct KvRun {
  KvSim sim;
  // Host CPU seconds, and the reference kernel's timings before set-up,
  // between set-up and the run, and after it.
  double setup_s = 0;     // platform, namespaces, create, load
  double host_s = 0;      // workload::run + debt drain
  std::array<double, 3> ref_s{};
  double run_host_s = 0;  // workload::run, steady_clock s like the spans
  xp::Status check;       // store check() after the drain
  // Traced runs only.
  std::optional<TracedStore::Spans> spans;
  PersistCounts persist{};
};

// One KV run from a fresh platform. `traced` wraps the store in a
// TracedStore, attaches a telemetry::Session and turns on the engine's
// read oracle (EngineOptions::validate_reads).
KvRun run_kv(const KvConfig& cfg, bool traced);

// Ops that ended in any status other than Ok/NotFound, plus read-oracle
// corruptions.
std::uint64_t failed_ops(const xp::workload::Result& r);

// ---- device calibration -----------------------------------------------------

// One of the paper's published Optane numbers and the model's value.
struct CalPoint {
  const char* name;  // metric-name fragment, e.g. "fig2_read_seq"
  const char* unit;  // "ns" or "GB/s"
  double paper;
  bool target;  // timing.h is calibrated to it; false: held back
  double sim = 0;
  double err_pct() const;
};

struct DeviceRun {
  std::vector<CalPoint> points;
  // Host CPU seconds, and the reference kernel's timings before and after
  // the run.
  double setup_s = 0;  // platform and namespace construction
  double host_s = 0;   // inside lat::run
  std::array<double, 2> ref_s{};
  std::uint64_t accesses = 0;  // accesses completed in the measured windows
  xp::sim::Time window = 0;    // sum of the measured windows
  xp::hw::XpCounters xp;       // summed over every point's platform
  xp::hw::CacheCounters cache;
  PersistCounts persist{};     // traced runs only

  double sim_kops() const;  // accesses per simulated second
  double media_write_amp() const;  // media ÷ iMC write bytes
};

// Mean of |sim - paper| / paper over the points (all of them, the
// calibration targets only, or the held-back ones only); 0 with none.
enum class Subset { kAll, kTargets, kHeldBack };
double model_err_pct(const std::vector<CalPoint>& points,
                     Subset s = Subset::kAll);

bool same_sim(const DeviceRun& a, const DeviceRun& b);

// The reference table, in run order, with sim = 0.
std::vector<CalPoint> reference_points();

// Fig 2 idle latencies (lat::idle_latency's methodology) and Fig 4 peaks,
// each point on a fresh platform except the four Fig 2 kernels, which
// share one as fig02_idle_latency does. `traced` attaches a
// telemetry::Session.
DeviceRun run_device(std::uint64_t seed, bool traced);

// ---- statistics -------------------------------------------------------------

// Nearest-rank percentile of exact samples.
struct Percentile {
  double q = 0;          // 0.5, 0.99 or 0.999
  double us = 0;
  std::uint64_t n = 0;   // samples
  bool valid = false;
};
Percentile p50(std::vector<xp::sim::Time> v);
// The highest of p99.9 and p99 with at least ten samples beyond it.
Percentile tail(std::vector<xp::sim::Time> v);

double median(std::vector<double> v);

}  // namespace perfbench
