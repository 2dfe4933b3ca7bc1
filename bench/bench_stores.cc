// Store-level write-combining sweep: measures what the shared
// LineBatcher layer (src/pmemlib/linebatch.h) buys each store, with the
// optimizations off (stock behavior) and on, across value sizes and
// thread counts. Writes BENCH_stores.json:
//
//  * lsmkv  — per-record WAL appends vs group commit (§5.1/§5.2):
//             simulated write throughput and the WAL's EWR. The
//             per-record path fences a 4-byte terminator per put and
//             measures heavily iMC-amplified; group commit writes one
//             full-line burst + one terminator patch per group.
//  * novafs — per-entry log appends vs batched multi-entry bursts for
//             multi-segment writes and rename.
//  * pmemkv — fig19 overwrite workload with NUMA-local placement
//             (§5.4) off/on.
//
// Every row records simulated throughput, interval EWR (XP write-
// combining buffers are drained into the media counters before the
// final snapshot so buffered residue cannot flatter the ratio), and
// per-DIMM EWR from telemetry::Snapshot deltas. All metrics are
// simulated quantities, so the output file is bit-reproducible; the
// sweep runs once serially and once with --jobs N and fails if the two
// result vectors differ (the sweep engine's determinism contract).
//
// Usage: bench_stores [--mini] [--jobs N] [--out FILE] [--host-cores N]
// (default FILE: BENCH_stores.json in the working directory).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "lsmkv/db.h"
#include "novafs/novafs.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "sim/scheduler.h"
#include "sweep/sweep.h"
#include "telemetry/registry.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;

// ---------------------------------------------------------------------
// Configuration grid. One discriminated Cfg type keeps a single grid,
// one runner, and one determinism comparison for all three stores.

enum class Store { kLsmkv, kNovafs, kPmemkv, kStree };

struct Cfg {
  Store store = Store::kLsmkv;
  bool optimized = false;  // the LineBatcher-backed path for this store
  // read grid (§5.1): point reads with line-granular read combining and
  // the DRAM read cache, measured in the small-LLC regime the paper's
  // read guidelines target (working set > LLC and > XPBuffer, < DRAM).
  bool read = false;           // run the read benchmark for this store
  std::size_t cache_lines = 4096;  // ReadCache capacity (0 = no cache)
  int rounds = 3;              // repeat-read rounds over the working set
  // lsmkv
  kv::WalMode wal = kv::WalMode::kFlex;
  std::size_t group_size = 32;
  std::size_t vlen = 24;
  unsigned threads = 1;
  int records = 8000;
  // novafs
  const char* fs_op = "write";  // "write" (multi-segment) or "rename"
  int fs_ops = 400;
  // pmemkv
  pmemkv::Placement placement = pmemkv::Placement::kFixed;
  unsigned server_socket = 1;  // kFixed pool lives on socket 0: remote
  sim::Time window = sim::us(500);
};

struct Row {
  std::string store;
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  double gbps = 0;
  double kops = 0;
  double ewr = 0;
  std::uint64_t imc_write_bytes = 0;
  std::uint64_t media_write_bytes = 0;
  double err = 0;  // media read bytes / iMC read bytes (0/0 -> 1)
  std::uint64_t imc_read_bytes = 0;
  std::uint64_t media_read_bytes = 0;
  std::vector<std::optional<double>> dimm_ewr;  // socket-major; idle: empty

  bool operator==(const Row&) const = default;

  void json(std::FILE* f) const {
    std::fprintf(f,
                 "{\"store\": \"%s\", \"name\": \"%s\", "
                 "\"ops\": %llu, \"bytes\": %llu, \"gbps\": %.4f, "
                 "\"kops\": %.2f, \"ewr\": %.4f, "
                 "\"imc_write_bytes\": %llu, \"media_write_bytes\": %llu, "
                 "\"err\": %.4f, "
                 "\"imc_read_bytes\": %llu, \"media_read_bytes\": %llu, "
                 "\"dimm_ewr\": ",
                 store.c_str(), name.c_str(),
                 static_cast<unsigned long long>(ops),
                 static_cast<unsigned long long>(bytes), gbps, kops, ewr,
                 static_cast<unsigned long long>(imc_write_bytes),
                 static_cast<unsigned long long>(media_write_bytes),
                 std::isfinite(err) ? err : -1.0,
                 static_cast<unsigned long long>(imc_read_bytes),
                 static_cast<unsigned long long>(media_read_bytes));
    benchutil::json_numbers(f, dimm_ewr);
    std::fprintf(f, "}");
  }
};

void fill_counters(Row& r, const telemetry::Delta& d, sim::Time elapsed) {
  const hw::XpCounters xc = d.xp_total();
  r.ewr = xc.ewr();
  r.imc_write_bytes = xc.imc_write_bytes;
  r.media_write_bytes = xc.media_write_bytes;
  r.err = xc.err();
  r.imc_read_bytes = xc.imc_read_bytes;
  r.media_read_bytes = xc.media_read_bytes;
  r.gbps = sim::gbps(r.bytes, elapsed);
  r.kops = static_cast<double>(r.ops) / sim::to_s(elapsed) / 1e3;
  for (unsigned s = 0; s < d.sockets(); ++s)
    for (unsigned c = 0; c < d.channels(); ++c) {
      const hw::XpCounters& dc = d.xp[s][c].counters;
      r.dimm_ewr.push_back(dc.media_write_bytes == 0
                               ? std::nullopt
                               : std::optional(dc.ewr()));
    }
}

// A measured window on one thread: `body` runs on `t`, its writes
// drain to the media, and `r` takes the window's counters and time.
template <typename Fn>
void window(hw::Platform& platform, sim::ThreadCtx& t, Row& r, Fn&& body) {
  const auto s0 = telemetry::Snapshot::capture(platform);
  const sim::Time t0 = t.now();
  body();
  t.drain();
  platform.flush_xp_buffers(t.now());
  fill_counters(r, telemetry::Snapshot::capture(platform) - s0,
                t.now() - t0);
}

// The read runners' window: a new timing epoch, and the setup's writes
// retire before the window opens.
template <typename Fn>
void read_window(hw::Platform& platform, sim::ThreadCtx& t, Row& r,
                 Fn&& body) {
  platform.reset_timing();
  t.drain();
  platform.flush_xp_buffers(t.now());
  window(platform, t, r, body);
}

// ---------------------------------------------------------------------
// lsmkv: N writer threads share one Db; sync after every put. With
// group commit on, puts are acknowledged at group boundaries and the
// group leader persists one contiguous burst for the whole batch.

Row run_lsmkv(const Cfg& c) {
  Row r;
  r.store = "lsmkv";
  char name[96];
  std::snprintf(name, sizeof name, "%s-%s-v%zu-t%u",
                c.wal == kv::WalMode::kPosix ? "posix" : "flex",
                c.optimized ? "group" : "per-record", c.vlen, c.threads);
  r.name = name;

  hw::Platform platform;
  auto& ns = platform.optane(256ull << 20);
  kv::DbOptions o;
  o.wal = c.wal;
  o.wal_group_commit = c.optimized;
  o.wal_group_size = c.group_size;
  o.memtable_bytes = 32 << 20;  // keep flushes out of the window
  kv::Db db(ns, o);
  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
  db.create(setup);
  platform.reset_timing();

  const auto s0 = telemetry::Snapshot::capture(platform);
  const std::string value(c.vlen, 'v');
  const int per_thread = c.records / static_cast<int>(c.threads);
  sim::Scheduler sched;
  sim::Time t_end = 0;
  for (unsigned t = 0; t < c.threads; ++t) {
    sched.spawn({.id = t, .socket = 0, .mlp = 8, .seed = t + 1},
                [&, t, i = 0](sim::ThreadCtx& ctx) mutable {
                  if (i >= per_thread) {
                    if (ctx.now() > t_end) t_end = ctx.now();
                    return false;
                  }
                  char key[16];
                  std::snprintf(key, sizeof key, "k%02u%06d", t, i);
                  db.put(ctx, key, value);
                  r.bytes += 9 + c.vlen;
                  ++r.ops;
                  ++i;
                  return true;
                });
  }
  sched.run();
  db.commit_pending(setup);
  setup.drain();
  if (setup.now() > t_end) t_end = setup.now();
  platform.flush_xp_buffers(t_end);
  fill_counters(r, telemetry::Snapshot::capture(platform) - s0, t_end);
  return r;
}

// ---------------------------------------------------------------------
// novafs: multi-entry log operations. "write" issues page-size writes
// at a half-page offset with datalog on, so every call splits into two
// embedded sub-page entries; "rename" moves files between names (two
// dirent entries). With batching on, each operation commits all of its
// entries as one burst.

Row run_novafs(const Cfg& c) {
  Row r;
  r.store = "novafs";
  r.name = std::string(c.fs_op) +
           (c.optimized ? "-batched" : "-per-entry");

  hw::Platform platform;
  auto& ns = platform.optane(512ull << 20);
  nova::NovaOptions o;
  o.datalog = true;
  o.batch_log_appends = c.optimized;
  nova::NovaFs fs(ns, o);
  sim::ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  fs.format(ctx);

  if (std::strcmp(c.fs_op, "write") == 0) {
    const int ino = fs.create(ctx, "bench.dat");
    platform.reset_timing();
    // Each write straddles a page boundary mid-page: always exactly two
    // embedded sub-page entries, small enough that both (plus the batch
    // terminator) coalesce into one log page.
    const std::vector<std::uint8_t> buf(3072, 0xab);
    window(platform, ctx, r, [&] {
      for (int i = 0; i < c.fs_ops; ++i) {
        fs.write(ctx, ino, 2560 + static_cast<std::uint64_t>(i) * 4096, buf);
        r.bytes += buf.size();
        ++r.ops;
      }
    });
    return r;
  }

  // rename ping-pong over a small population of files.
  const int kFiles = 32;
  for (int i = 0; i < kFiles; ++i) {
    char fname[16];
    std::snprintf(fname, sizeof fname, "a%03d", i);
    fs.create(ctx, fname);
  }
  platform.reset_timing();
  window(platform, ctx, r, [&] {
    for (int i = 0; i < c.fs_ops; ++i) {
      const int f = i % kFiles;
      char from[16], to[16];
      std::snprintf(from, sizeof from, "%c%03d",
                    (i / kFiles) % 2 ? 'b' : 'a', f);
      std::snprintf(to, sizeof to, "%c%03d", (i / kFiles) % 2 ? 'a' : 'b',
                    f);
      fs.rename(ctx, from, to);
      ++r.ops;
    }
  });
  return r;
}

// ---------------------------------------------------------------------
// pmemkv: the fig19 overwrite workload (read + in-place 512 B value
// update). Stock configuration: pool fixed on socket 0 while the
// serving threads run on socket 1 (the paper's migration scenario).
// Optimized: NUMA-local placement.

Row run_pmemkv(const Cfg& c) {
  Row r;
  r.store = "pmemkv";
  char name[96];
  std::snprintf(name, sizeof name, "overwrite-%s-t%u",
                c.placement == pmemkv::Placement::kNumaLocal ? "local"
                                                             : "remote",
                c.threads);
  r.name = name;

  hw::Platform platform;
  benchutil::CmapOverwrite overwrite(
      platform,
      platform.optane(1024ull << 20, pmemkv::placement_socket(
                                         c.placement, c.server_socket)));
  const auto s0 = telemetry::Snapshot::capture(platform);
  r.ops = overwrite.run(c.server_socket, c.threads, c.window);
  r.bytes = r.ops * 1024;
  platform.flush_xp_buffers(c.window);
  fill_counters(r, telemetry::Snapshot::capture(platform) - s0, c.window);
  return r;
}

// ---------------------------------------------------------------------
// Read grid (§5.1). Every read benchmark shrinks the LLC below the
// working set: with the default 32 MB cache each repeat read is a CPU-
// cache hit and no read-path configuration could show media traffic.
// Working sets are sized past the aggregate XPBuffer capacity
// (6 DIMMs x 16 KB) so the uncombined path pays media reads each round.

// lsmkv point gets: per-probe uncombined binary search vs combined
// fetches + DRAM-resident filters/offsets + line cache.
Row run_lsmkv_read(const Cfg& c) {
  Row r;
  r.store = "lsmkv";
  char name[96];
  std::snprintf(name, sizeof name, "get-%s-cache%zu",
                c.optimized ? "combined" : "stock",
                c.optimized ? c.cache_lines : 0);
  r.name = name;

  hw::Platform platform(benchutil::small_llc_timing(), /*seed=*/1);
  auto& ns = platform.optane(256ull << 20);
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  kv::DbOptions o;
  o.memtable_bytes = 16 << 10;  // force SSTables: reads hit the media
  o.read_combine = c.optimized;
  o.read_cache_lines = c.optimized ? c.cache_lines : 0;
  kv::Db db(ns, o);
  db.create(t);
  auto key_of = [](int i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "key%06d", i);
    return std::string(buf);
  };
  const std::size_t vlen = 100;
  for (int i = 0; i < c.records; ++i)
    db.put(t, key_of(i), std::string(vlen, 'v'));
  db.flush(t);

  read_window(platform, t, r, [&] {
    std::string v;
    for (int round = 0; round < c.rounds; ++round)
      for (int i = 0; i < c.records; i += 2)
        if (db.get(t, key_of(i), &v)) {
          r.bytes += vlen;
          ++r.ops;
        }
  });
  // The read-path headline is measured on one L1 run: a compaction policy
  // that leaves this setup another layout fails here, not by moving the
  // speedup ratio.
  if (const std::uint32_t runs = db.l1_runs(t); runs != 1) {
    std::fprintf(stderr, "lsmkv read setup: %u L1 runs, want 1\n", runs);
    std::_Exit(1);
  }
  return r;
}

// novafs: combined log replay on mount plus repeat whole-file reads.
Row run_novafs_read(const Cfg& c) {
  Row r;
  r.store = "novafs";
  r.name = std::string("read-") + (c.optimized ? "combined" : "stock");

  hw::Platform platform(benchutil::small_llc_timing(), /*seed=*/1);
  auto& ns = platform.optane(128ull << 20);
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  nova::NovaOptions wo;
  wo.datalog = true;  // write phase identical in both configurations
  nova::NovaFs fs(ns, wo);
  fs.format(t);
  const int fd = fs.create(t, "bench.dat");
  std::vector<std::uint8_t> buf(200, 0xab);
  for (int i = 0; i < c.fs_ops; ++i)
    fs.write(t, fd, (static_cast<std::uint64_t>(i) * 613) % (64 << 10), buf);

  nova::NovaOptions ro = wo;
  ro.read_combine = c.optimized;
  ro.read_cache_lines = c.optimized ? c.cache_lines : 0;
  nova::NovaFs fs2(ns, ro);
  read_window(platform, t, r, [&] {
    fs2.mount(t);
    const int fd2 = fs2.open(t, "bench.dat");
    std::vector<std::uint8_t> out(64 << 10);
    for (int round = 0; round < c.rounds; ++round) {
      r.bytes += fs2.read(t, fd2, 0, out);
      ++r.ops;
    }
  });
  return r;
}

// pmemkv point gets over a super-XPBuffer key population: stree's
// whole-leaf staging with a line cache, cmap's plain chain walk.
Row run_pmemkv_read(const Cfg& c) {
  Row r;
  const bool stree = c.store == Store::kStree;
  r.store = stree ? "stree" : "cmap";
  r.name = stree ? "get-combined-cache" + std::to_string(c.cache_lines)
                 : "get-stock-cache0";

  hw::Platform platform(benchutil::small_llc_timing(), /*seed=*/1);
  auto& ns = platform.optane(256ull << 20);
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  pmem::Pool pool(ns);
  pool.create(t, 64);
  const int keys = c.records;
  const std::size_t vlen = 64;
  auto bench = [&](auto& map) {
    map.create(t);
    for (int i = 0; i < keys; ++i)
      map.put(t, "key" + std::to_string(i), std::string(vlen, 'x'));
    read_window(platform, t, r, [&] {
      std::string v;
      for (int round = 0; round < c.rounds; ++round)
        for (int i = 0; i < keys; ++i)
          if (map.get(t, "key" + std::to_string(i), &v)) {
            r.bytes += vlen;
            ++r.ops;
          }
    });
  };
  if (stree) {
    pmemkv::STreeOptions o;
    o.read_cache_lines = c.cache_lines;
    pmemkv::STree tree(pool, o);
    bench(tree);
  } else {
    pmemkv::CMap map(pool);
    bench(map);
  }
  return r;
}

Row run_point(const Cfg& c) {
  if (c.read) {
    switch (c.store) {
      case Store::kLsmkv:
        return run_lsmkv_read(c);
      case Store::kNovafs:
        return run_novafs_read(c);
      case Store::kPmemkv:
      case Store::kStree:
        return run_pmemkv_read(c);
    }
  }
  switch (c.store) {
    case Store::kLsmkv:
      return run_lsmkv(c);
    case Store::kNovafs:
      return run_novafs(c);
    case Store::kPmemkv:
      return run_pmemkv(c);
    case Store::kStree:
      break;  // stree only appears in the read grid
  }
  return {};
}

// ERR normalized to user-requested bytes: media read traffic per byte
// the application actually asked for. (The raw media/iMC ratio is
// floored near 1.0 for line-aligned combined fetches; what the §5.1
// guidelines lower is media traffic per useful byte.)
double user_err(const Row* r) {
  if (r == nullptr || r->bytes == 0) return 0;
  return static_cast<double>(r->media_read_bytes) /
         static_cast<double>(r->bytes);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      benchutil::StoreArgs::parse(argc, argv, "BENCH_stores.json");

  benchutil::banner("bench_stores",
                    "store-level write combining: off vs on, per store");
  benchutil::note("host cores %u, jobs %u%s", args.host_cores, args.jobs,
                  args.mini ? ", mini" : "");

  sweep::Grid<Cfg> grid;
  // lsmkv: both WAL modes, small and page-ish values, thread scaling.
  const int nrec = args.mini ? 2000 : 8000;
  for (kv::WalMode wal : {kv::WalMode::kFlex, kv::WalMode::kPosix})
    for (std::size_t vlen : args.mini ? std::vector<std::size_t>{24}
                                 : std::vector<std::size_t>{24, 256})
      for (unsigned threads : args.mini ? std::vector<unsigned>{1, 8}
                                   : std::vector<unsigned>{1, 4, 8})
        for (bool opt : {false, true})
          grid.add({.store = Store::kLsmkv, .optimized = opt, .wal = wal,
                    .vlen = vlen, .threads = threads, .records = nrec});
  // novafs: multi-segment writes and renames.
  const int fs_ops = args.mini ? 100 : 400;
  for (const char* op : {"write", "rename"})
    for (bool opt : {false, true})
      grid.add({.store = Store::kNovafs, .optimized = opt, .fs_op = op,
                .fs_ops = fs_ops});
  // pmemkv: stock (remote pool) vs NUMA-local placement at the collapse
  // thread count.
  const unsigned kv_threads = args.mini ? 4 : 8;
  grid.add({.store = Store::kPmemkv, .threads = kv_threads});
  grid.add({.store = Store::kPmemkv, .threads = kv_threads,
            .placement = pmemkv::Placement::kNumaLocal});

  // Read grid (§5.1): stock vs combined+cached point reads for lsmkv
  // and novafs, each pmemkv store's one read path, plus a read-
  // amplification sweep over the lsmkv cache capacity.
  // Identical in mini and full runs — the read benches are single-
  // threaded and cheap, and the CI headline floor (>= 2x point gets)
  // gates the same regime either way.
  const int read_recs = 2000;
  const int read_rounds = 3;
  for (bool opt : {false, true})
    grid.add({.store = Store::kLsmkv, .optimized = opt, .read = true,
              .rounds = read_rounds, .records = read_recs});
  for (std::size_t cl : {std::size_t{0}, std::size_t{512},
                         std::size_t{16384}})
    grid.add({.store = Store::kLsmkv, .optimized = true, .read = true,
              .cache_lines = cl, .rounds = read_rounds,
              .records = read_recs});
  for (bool opt : {false, true})
    grid.add({.store = Store::kNovafs, .optimized = opt, .read = true,
              .rounds = read_rounds, .fs_ops = 400});
  const int kv_read_keys = 1500;
  for (Store st : {Store::kPmemkv, Store::kStree})
    grid.add({.store = st, .read = true, .rounds = read_rounds + 1,
              .records = kv_read_keys});

  const auto [rows, identical] =
      benchutil::run_serial_then_parallel(grid, args.jobs, run_point);

  benchutil::row("%-28s %10s %10s %8s", "point", "GB/s", "kops/s", "EWR");
  for (const Row& r : rows)
    benchutil::row("%-28s %10.3f %10.1f %8.3f",
                   (r.store + "/" + r.name).c_str(), r.gbps, r.kops, r.ewr);
  benchutil::row("");
  benchutil::row("determinism (--jobs 1 vs --jobs %u): %s", args.jobs,
                 identical ? "identical" : "MISMATCH");

  // Headline ratios the acceptance criteria key on: small-value group
  // commit vs per-record appends at the highest thread count.
  const Row* base =
      benchutil::find_row(rows, "lsmkv", "flex-per-record-v24-t8");
  const Row* group = benchutil::find_row(rows, "lsmkv", "flex-group-v24-t8");
  const double speedup = benchutil::ratio(group, base, &Row::gbps);
  if (base != nullptr && group != nullptr)
    benchutil::row("lsmkv small-value group commit: %.2fx throughput, "
                   "EWR %.3f -> %.3f",
                   speedup, base->ewr, group->ewr);

  // Read-path headline: stock vs combined+cached point gets. Same op
  // count both sides, so the kops ratio is the point-get speedup.
  const Row* rd_off = benchutil::find_row(rows, "lsmkv", "get-stock-cache0");
  const Row* rd_on =
      benchutil::find_row(rows, "lsmkv", "get-combined-cache4096");
  const double read_speedup = benchutil::ratio(rd_on, rd_off, &Row::kops);
  if (rd_off != nullptr && rd_on != nullptr)
    benchutil::row("lsmkv point gets (read path on): %.2fx throughput, "
                   "ERR/user-byte %.3f -> %.3f",
                   read_speedup, user_err(rd_off), user_err(rd_on));

  // One instrumented run's summary rides along: per-DIMM timelines for
  // the group-commit WAL under telemetry, with a coarse sample interval
  // to keep the file small.
  hw::Platform tel_platform;
  const std::string summary = benchutil::telemetry_summary(tel_platform, [&] {
    auto& ns = tel_platform.optane(256ull << 20);
    kv::DbOptions o;
    o.wal = kv::WalMode::kFlex;
    o.wal_group_commit = true;
    kv::Db db(ns, o);
    sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
    db.create(t);
    const std::string value(24, 'v');
    for (int i = 0; i < (args.mini ? 500 : 2000); ++i) {
      char key[16];
      std::snprintf(key, sizeof key, "k%06d", i);
      db.put(t, key, value);
    }
    db.commit_pending(t);
    t.drain();
  });

  if (!benchutil::write_json(
          args, "stores", identical,
          {{"lsmkv_group_speedup", speedup, 3},
           {"lsmkv_baseline_ewr", base != nullptr ? base->ewr : 0, 4},
           {"lsmkv_group_ewr", group != nullptr ? group->ewr : 0, 4},
           {"lsmkv_read_speedup", read_speedup, 3},
           {"lsmkv_read_err_stock", user_err(rd_off), 4},
           {"lsmkv_read_err_combined", user_err(rd_on), 4}},
          rows, summary))
    return 1;
  return identical ? 0 : 1;
}
