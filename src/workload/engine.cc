#include "workload/engine.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xp::workload {

namespace {

// Host-side read-validation oracle (EngineOptions::validate_reads): the
// set of value hashes ever issued for each key id. A read hit outside
// the set is a silent corruption. Preloaded version-0 values are
// recognized structurally so load() needn't be replayed into it.
struct ReadOracle {
  std::size_t value_len = 0;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>> seen;

  void record(std::uint64_t id, std::string_view v) {
    seen[id].insert(fnv1a64(v));
  }
  bool plausible(std::uint64_t id, std::uint64_t preloaded,
                 std::string_view v) const {
    if (id < preloaded && v == make_value(id, 0, value_len)) return true;
    const auto it = seen.find(id);
    return it != seen.end() && it->second.count(fnv1a64(v)) != 0;
  }
};

struct PerThread {
  explicit PerThread(const Spec& spec, unsigned t, std::uint64_t base)
      : rng(mix64(spec.seed * 0x9e3779b97f4a7c15ULL + base) + t + 1),
        zipf(spec.records, spec.zipf_theta) {}

  XorShift rng;
  Zipfian zipf;
  std::uint64_t remaining = 0;
  std::uint64_t seq = 0;  // ops issued by this thread
  std::uint64_t checksum = 0;
  std::vector<BatchOp> batch;
  sim::Histogram hist;
};

}  // namespace

std::uint64_t load(StoreIface& store, const Spec& spec, sim::ThreadCtx& ctx) {
  std::uint64_t unacked = 0;
  for (std::uint64_t id = 0; id < spec.records; ++id)
    if (!store.try_put(ctx, key_name(id), make_value(id, 0, spec.value_len))
             .ok())
      ++unacked;
  store.flush_pending(ctx);
  return unacked;
}

Result run(StoreIface& store, const Spec& spec, const EngineOptions& opts) {
  const unsigned T = opts.threads ? opts.threads : 1;
  std::vector<PerThread> per;
  per.reserve(T);
  for (unsigned t = 0; t < T; ++t) {
    per.emplace_back(spec, t, opts.base_seed);
    per[t].remaining = spec.ops / T + (t < spec.ops % T ? 1 : 0);
  }

  // Shared across workers; mutation order is fixed by the deterministic
  // scheduler, so these do not break reproducibility.
  std::uint64_t live_records = spec.records;  // preloaded + inserted
  unsigned done_workers = 0;

  Result res;
  sim::Scheduler sched;
  std::vector<const sim::ThreadCtx*> worker_ctx;

  ReadOracle oracle;
  oracle.value_len = spec.value_len;

  // Fold one typed outcome into the result counters. kNotFound is a
  // clean miss, not an error.
  auto absorb = [&res](const OpResult& r) {
    res.retries += r.retries;
    if (r.failover) ++res.failovers;
    if (r.status != OpStatus::kOk && r.status != OpStatus::kNotFound)
      ++res.typed_errors;
  };
  // Typed errors digest a status-distinct sentinel so runs differing
  // only in error outcomes have different checksums.
  auto err_token = [](const OpResult& r) -> std::uint64_t {
    return 0xbadbad00u + static_cast<unsigned>(r.status);
  };

  auto key_id = [&](PerThread& pt) -> std::uint64_t {
    switch (spec.dist) {
      case Spec::Dist::kUniform:
        return pt.rng.uniform(spec.records);
      case Spec::Dist::kLatest: {
        pt.zipf.grow(live_records);
        const std::uint64_t rank = pt.zipf.next(pt.rng);
        return live_records - 1 - rank;
      }
      case Spec::Dist::kZipfian:
      default:
        return scramble(pt.zipf.next(pt.rng), spec.records);
    }
  };

  for (unsigned t = 0; t < T; ++t) {
    sim::ThreadCtx::Options topts;
    topts.id = t + 1;
    topts.socket = opts.socket;
    topts.seed = spec.seed + t + 1;
    auto& ctx_ref = sched.spawn(topts, [&, t](sim::ThreadCtx& ctx) -> bool {
      PerThread& pt = per[t];
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      const sim::Time t0 = ctx.now();
      const OpKind op = pick_op(spec, pt.rng);
      std::uint64_t h = mix64((std::uint64_t{t} << 32) | pt.seq);

      // A hit outside the issued-value set is silent corruption.
      auto validate = [&](std::uint64_t id, std::string_view v) {
        if (opts.validate_reads && !oracle.plausible(id, spec.records, v))
          ++res.corruptions;
      };
      // Point read shared by kRead, the scan degrade, and the rmw head.
      auto point_read = [&](std::uint64_t id) -> OpResult {
        std::string v;
        const OpResult r = store.try_get(ctx, key_name(id), &v);
        absorb(r);
        if (r.ok()) {
          h = mix64(h ^ fnv1a64(v));
          validate(id, v);
        } else if (r.status == OpStatus::kNotFound) {
          h = mix64(h ^ 0xdead);
        } else {
          h = mix64(h ^ err_token(r));
        }
        return r;
      };

      auto write = [&](std::uint64_t id, bool is_insert) {
        const std::string key = key_name(id);
        std::string value = make_value(id, pt.seq + 1, spec.value_len);
        if (opts.dispatch_batch > 0) {
          // Batched writes are recorded optimistically at enqueue: a
          // kUnavailable batch is partial per shard group, so holding
          // these hashes back would flag genuinely-applied values as
          // corrupt.
          if (opts.validate_reads) oracle.record(id, value);
          pt.batch.push_back({key, std::move(value), false});
          if (pt.batch.size() >= opts.dispatch_batch) {
            absorb(store.try_apply_batch(ctx, pt.batch));
            pt.batch.clear();
          }
        } else {
          const OpResult r = store.try_put(ctx, key, value);
          absorb(r);
          // Only acknowledged values are plausible: a kUnavailable put
          // was applied to no copy, so a later read matching it IS a
          // corruption and must not pass validation.
          if (opts.validate_reads && r.status != OpStatus::kUnavailable)
            oracle.record(id, value);
        }
        if (is_insert) ++res.inserts; else ++res.updates;
        h = mix64(h ^ id);
      };

      switch (op) {
        case OpKind::kRead: {
          ++res.reads;
          if (point_read(key_id(pt)).ok()) ++res.read_hits;
          break;
        }
        case OpKind::kUpdate:
          write(key_id(pt), /*is_insert=*/false);
          break;
        case OpKind::kInsert:
          write(live_records++, /*is_insert=*/true);
          break;
        case OpKind::kScan: {
          const std::uint64_t id = key_id(pt);
          const std::size_t n = 1 + pt.rng.uniform(spec.scan_len);
          ++res.scans;
          if (store.supports_scan()) {
            std::vector<std::pair<std::string, std::string>> rows;
            const OpResult r = store.try_scan(ctx, key_name(id), n, &rows);
            absorb(r);
            if (r.ok()) {
              res.scanned_items += rows.size();
              for (const auto& [k, v] : rows)
                h = mix64(h ^ fnv1a64(k) ^ fnv1a64(v));
            } else {
              h = mix64(h ^ err_token(r));
            }
          } else {
            // Hash-ordered store: degrade to a point read.
            point_read(id);
          }
          break;
        }
        case OpKind::kRmw: {
          const std::uint64_t id = key_id(pt);
          point_read(id);
          const std::string nv = make_value(id, pt.seq + 1, spec.value_len);
          const OpResult r = store.try_put(ctx, key_name(id), nv);
          absorb(r);
          if (opts.validate_reads && r.status != OpStatus::kUnavailable)
            oracle.record(id, nv);
          ++res.rmws;
          break;
        }
      }

      ++res.ops;
      ++pt.seq;
      pt.hist.record(ctx.now() - t0);
      pt.checksum ^= h;
      if (--pt.remaining == 0) {
        if (!pt.batch.empty()) {
          absorb(store.try_apply_batch(ctx, pt.batch));
          pt.batch.clear();
        }
        // The last worker out drains any cross-thread group buffer so
        // every acknowledged op is durable when run() returns.
        if (++done_workers == T) store.flush_pending(ctx);
        return false;
      }
      return true;
    });
    worker_ctx.push_back(&ctx_ref);
  }

  if (opts.background_thread) {
    sim::ThreadCtx::Options topts;
    topts.id = T + 1;
    topts.socket = opts.socket;
    topts.seed = spec.seed + T + 1;
    sched.spawn(topts, [&](sim::ThreadCtx& ctx) -> bool {
      if (done_workers == T) return false;
      if (store.background_turn(ctx))
        ++res.background_turns;
      else
        ctx.advance_by(opts.background_poll);  // idle poll
      return true;
    });
  }

  sched.run();

  sim::Histogram hist;
  for (unsigned t = 0; t < T; ++t) {
    hist.merge(per[t].hist);
    res.checksum ^= mix64(per[t].checksum + t + 1);
    if (worker_ctx[t]->now() > res.elapsed) res.elapsed = worker_ctx[t]->now();
  }
  res.p50 = hist.percentile(0.50);
  res.p99 = hist.percentile(0.99);
  return res;
}

}  // namespace xp::workload
