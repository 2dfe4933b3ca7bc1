// Differential fuzz oracle: seeded randomized op sequences run against
// every store family (through StoreIface) and, in lockstep, against an
// in-memory std::map reference model. Any divergence — a get returning
// the wrong value/existence, a del misreporting, a scan out of order or
// with stale data, a post-reopen mismatch — fails with the (seed, ops)
// pair, after shrinking to the smallest failing prefix so the repro is
// as short as possible. Sequences are pure functions of the seed, so a
// reported pair replays exactly.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/shard.h"
#include "workload/store_iface.h"
#include "workload/ycsb.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

struct DiffCfg {
  const char* label;
  workload::StoreKind kind;
  workload::StoreTuning tuning{};
  unsigned shards = 1;  // > 1: run through the sharded frontend
  unsigned replicas = 1;
};

// gtest's default printer byte-dumps the struct, including the address
// in `label`, so the registered test names would change with every
// (ASLR-randomized) run; print the label instead.
void PrintTo(const DiffCfg& cfg, std::ostream* os) { *os << cfg.label; }

// 48 keys, all <= 16 bytes (stree caps at 31): small enough that every
// op sequence revisits keys and exercises overwrite/delete/reinsert.
constexpr unsigned kKeys = 48;

std::string pick_key(workload::XorShift& rng) {
  return workload::key_name(rng.uniform(kKeys));
}

std::string pick_value(workload::XorShift& rng, std::uint64_t version) {
  return workload::make_value(rng.uniform(kKeys), version,
                              1 + rng.uniform(120));
}

// Runs `nops` ops of the seeded sequence against a fresh store and the
// model, through the typed try_* surface: any status other than Ok (or
// NotFound where the model agrees) is a divergence. Returns "" on
// agreement, else a description of the first divergence. The op stream
// depends only on (seed), so running a prefix replays the same ops.
std::string run_sequence(const DiffCfg& cfg, std::uint64_t seed,
                         unsigned nops) {
  hw::Platform platform;
  const auto ns = workload::ShardedStore::make_namespaces(
      platform, cfg.shards, 48ull << 20);
  workload::ShardOptions so;
  so.kind = cfg.kind;
  so.tuning = cfg.tuning;
  so.replicas = cfg.replicas;
  auto make = [&] {
    return std::make_unique<workload::ShardedStore>(ns, so);
  };
  auto store = make();

  sim::ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 8, .seed = 7});
  store->create(ctx);

  std::map<std::string, std::string> model;
  workload::XorShift rng(workload::mix64(seed) | 1);
  std::string got;
  auto fail = [&](unsigned op, const std::string& what) {
    return "op " + std::to_string(op) + " [" + cfg.label +
           " seed=" + std::to_string(seed) + "]: " + what;
  };
  // "" when a write was acknowledged, else what went wrong.
  auto unacked = [](const workload::OpResult& r, const std::string& what) {
    return r.ok() ? std::string()
                  : what + " returned " + workload::op_status_name(r.status);
  };
  // "" when the store's answer for `k` (status, existence, value) matches
  // the model, else the divergence.
  auto probe = [&](workload::StoreIface& s, sim::ThreadCtx& c,
                   const std::string& k) -> std::string {
    const workload::OpResult r = s.try_get(c, k, &got);
    if (!r.ok() && r.status != workload::OpStatus::kNotFound)
      return unacked(r, "get(" + k + ")");
    const auto it = model.find(k);
    if (r.ok() != (it != model.end()))
      return "get(" + k + ") found=" + std::to_string(r.ok()) + " want " +
             std::to_string(!r.ok());
    if (r.ok() && got != it->second)
      return "get(" + k + ") value mismatch: got " + got + " want " +
             it->second;
    return "";
  };

  for (unsigned op = 0; op < nops; ++op) {
    const std::uint64_t r = rng.uniform(100);
    std::string err;
    if (r < 35) {  // put
      const std::string k = pick_key(rng);
      const std::string v = pick_value(rng, op);
      err = unacked(store->try_put(ctx, k, v), "put(" + k + ")");
      model[k] = v;
    } else if (r < 55) {  // get
      const std::string k = pick_key(rng);
      store->flush_pending(ctx);  // group commits must not hide writes
      err = probe(*store, ctx, k);
    } else if (r < 70) {  // del
      const std::string k = pick_key(rng);
      bool found = false;
      const auto dr = store->try_del(ctx, k, &found);
      const bool want = model.erase(k) > 0;
      if (dr.status != workload::OpStatus::kNotFound)
        err = unacked(dr, "del(" + k + ")");
      if (store->del_reports_found() && found != want)
        err = "del(" + k + ") found=" + std::to_string(found) + " want " +
              std::to_string(want);
    } else if (r < 80) {  // scan
      const std::string start = pick_key(rng);
      const std::size_t n = 1 + rng.uniform(12);
      if (store->supports_scan()) {
        store->flush_pending(ctx);
        std::vector<std::pair<std::string, std::string>> rows;
        if (err = unacked(store->try_scan(ctx, start, n, &rows),
                          "scan(" + start + ")");
            !err.empty())
          return fail(op, err);
        auto it = model.lower_bound(start);
        std::size_t i = 0;
        for (; i < rows.size(); ++i, ++it) {
          if (it == model.end())
            return fail(op, "scan(" + start + ") returned extra row " +
                                rows[i].first);
          if (rows[i].first != it->first || rows[i].second != it->second)
            return fail(op, "scan(" + start + ") row " + std::to_string(i) +
                                ": got " + rows[i].first + " want " +
                                it->first);
        }
        if (rows.size() < n && it != model.end())
          return fail(op, "scan(" + start + ") stopped early: " +
                              std::to_string(rows.size()) + " rows, model has " +
                              it->first + " next");
      }
    } else if (r < 90) {  // read-modify-write
      const std::string k = pick_key(rng);
      store->flush_pending(ctx);
      if (err = probe(*store, ctx, k); err.empty()) {
        const std::string v = pick_value(rng, op);
        err = unacked(store->try_put(ctx, k, v), "rmw-put(" + k + ")");
        model[k] = v;
      }
    } else {  // batched dispatch: 2-5 ops committed as one group
      const std::size_t n = 2 + rng.uniform(4);
      std::vector<workload::BatchOp> batch;
      for (std::size_t i = 0; i < n; ++i) {
        workload::BatchOp b;
        b.key = pick_key(rng);
        b.del = rng.uniform(4) == 0;
        if (!b.del) b.value = pick_value(rng, op);
        batch.push_back(std::move(b));
      }
      err = unacked(store->try_apply_batch(ctx, batch), "batch");
      for (const auto& b : batch) {
        if (b.del)
          model.erase(b.key);
        else
          model[b.key] = b.value;
      }
    }
    if (!err.empty()) return fail(op, err);
    // Donate deferred-compaction turns so background mode is exercised
    // mid-sequence, not just via the stall gate.
    if (cfg.tuning.background_compaction && op % 32 == 31)
      store->background_turn(ctx);
    if (op % 64 == 63) {
      const Status s = store->check(ctx);
      if (!s.ok()) return fail(op, "check failed: " + s.message());
    }
  }

  // Full-state sweep over the whole key space.
  store->flush_pending(ctx);
  for (unsigned i = 0; i < kKeys; ++i)
    if (std::string e = probe(*store, ctx, workload::key_name(i)); !e.empty())
      return fail(nops, "final " + e);
  {
    const Status s = store->check(ctx);
    if (!s.ok()) return fail(nops, "final check failed: " + s.message());
  }

  // Reopen from persistent state with a fresh frontend and re-sweep:
  // recovery must reconstruct exactly the model's view.
  store.reset();
  auto again = make();
  sim::ThreadCtx ctx2({.id = 1, .socket = 0, .mlp = 8, .seed = 9});
  if (!again->open(ctx2)) return fail(nops, "reopen failed");
  for (unsigned i = 0; i < kKeys; ++i)
    if (std::string e = probe(*again, ctx2, workload::key_name(i));
        !e.empty())
      return fail(nops, "post-reopen " + e);
  {
    const Status s = again->check(ctx2);
    if (!s.ok()) return fail(nops, "post-reopen check: " + s.message());
  }
  return "";
}

// On failure, shrink: binary-search the smallest failing prefix of the
// (deterministic) sequence so the reported repro is minimal.
void run_and_shrink(const DiffCfg& cfg, std::uint64_t seed, unsigned nops) {
  const std::string err = run_sequence(cfg, seed, nops);
  if (err.empty()) return;
  unsigned lo = 0, hi = nops;  // invariant: prefix `hi` fails
  std::string at_hi = err;
  while (lo + 1 < hi) {
    const unsigned mid = lo + (hi - lo) / 2;
    const std::string e = run_sequence(cfg, seed, mid);
    if (e.empty()) {
      lo = mid;
    } else {
      hi = mid;
      at_hi = e;
    }
  }
  FAIL() << "differential divergence, shrunk to " << hi << "/" << nops
         << " ops: " << at_hi
         << "\nreplay: run_sequence({" << cfg.label << "}, " << seed << ", "
         << hi << ")";
}

workload::StoreTuning knobs_on() {
  workload::StoreTuning t;
  t.write_combine = true;
  t.read_path = true;
  t.read_cache_lines = 512;
  return t;
}

workload::StoreTuning lsmkv_full() {
  workload::StoreTuning t = knobs_on();
  t.background_compaction = true;
  t.memtable_bytes = 4 << 10;  // force flush/compaction churn mid-run
  return t;
}

class Differential : public testing::TestWithParam<DiffCfg> {};

TEST_P(Differential, StoreMatchesModel) {
  for (std::uint64_t seed : {1ull, 42ull}) run_and_shrink(GetParam(), seed, 320);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, Differential,
    testing::Values(
        DiffCfg{"lsmkv-stock", workload::StoreKind::kLsmkv},
        DiffCfg{"lsmkv-knobs", workload::StoreKind::kLsmkv, knobs_on()},
        DiffCfg{"lsmkv-bg", workload::StoreKind::kLsmkv, lsmkv_full()},
        DiffCfg{"lsmkv-sharded", workload::StoreKind::kLsmkv, lsmkv_full(), 3},
        DiffCfg{"lsmkv-replicated", workload::StoreKind::kLsmkv, lsmkv_full(),
                3, 2},
        DiffCfg{"cmap-stock", workload::StoreKind::kCmap},
        DiffCfg{"cmap-knobs", workload::StoreKind::kCmap, knobs_on()},
        DiffCfg{"stree-stock", workload::StoreKind::kStree},
        DiffCfg{"stree-knobs", workload::StoreKind::kStree, knobs_on()},
        DiffCfg{"stree-sharded", workload::StoreKind::kStree, knobs_on(), 2},
        DiffCfg{"stree-replicated", workload::StoreKind::kStree, knobs_on(), 3,
                2},
        DiffCfg{"nova-stock", workload::StoreKind::kNova},
        DiffCfg{"nova-knobs", workload::StoreKind::kNova, knobs_on()}),
    [](const testing::TestParamInfo<DiffCfg>& info) {
      std::string n = info.param.label;
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

}  // namespace
}  // namespace xp
