#include "schedmc/targets.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "novafs/novafs.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"
#include "sim/rng.h"
#include "workload/store_desc.h"
#include "xpsim/platform.h"

namespace xp::schedmc {

using sim::SchedLock;
using sim::SchedLockGuard;

namespace {

sim::ThreadCtx::Options worker_opts(const TargetOptions& o, unsigned t) {
  return {.id = t, .socket = 0, .mlp = 8, .seed = o.workload_seed * 97 + t + 1};
}

// Setup/recovery/state-reading contexts run outside the interleaver (no
// hook), with ids above every worker so histories stay unambiguous.
sim::ThreadCtx service_ctx(unsigned id = 32) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

// Per-(thread, run) RNG stream: pure function of the options, so a
// replayed schedule re-executes the identical op sequence.
sim::Rng body_rng(const TargetOptions& o, unsigned t) {
  return sim::Rng(o.workload_seed * 1315423911ULL + t * 2654435761ULL + 1);
}

bool elide(const TargetOptions& o) {
  return o.fault == TestFault::kElideRmwLock;
}

// recover()'s failure exit: sets *error.
bool fail(std::string* error, std::string what) {
  *error = std::move(what);
  return false;
}

// The frame every target here shares: a fresh platform per run, a
// History, and one worker thread per TargetOptions::threads running
// body(ctx, t).
class WorkerTarget : public Target {
 public:
  explicit WorkerTarget(const TargetOptions& o) : opts_(o) {}

  hw::Platform& platform() override { return *platform_; }
  History& history() override { return history_; }

  std::vector<ThreadSpec> specs() override {
    std::vector<ThreadSpec> v;
    for (unsigned t = 0; t < opts_.threads; ++t)
      v.push_back({worker_opts(opts_, t),
                   [this, t](sim::ThreadCtx& ctx) { body(ctx, t); }});
    return v;
  }

 protected:
  virtual void body(sim::ThreadCtx& ctx, unsigned t) = 0;

  // The counter RMW on "ctr": read(&v), then write(id, v + 1), both in
  // one critical(fn) section — or, with kElideRmwLock, in two: the lock
  // is dropped between the read and the write (the seeded lost update).
  template <typename Critical, typename Read, typename Write>
  void bump_counter(sim::ThreadCtx& ctx, unsigned t, Critical critical,
                    Read read, Write write) {
    const std::size_t id = history_.invoke(t, OpKind::kRmw, "ctr");
    std::string v;
    bool found = false;
    auto update = [&] {
      const std::string nv = std::to_string((found ? std::stoll(v) : 0) + 1);
      history_.stage_write(id, found, found ? v : std::string(), nv);
      write(id, nv);
    };
    if (elide(opts_)) {
      critical([&] { found = read(&v); });
      ctx.sched_point(sim::SchedPoint::kHandoff);
      critical(update);
    } else {
      critical([&] {
        found = read(&v);
        update();
      });
    }
  }

  TargetOptions opts_;
  std::unique_ptr<hw::Platform> platform_;
  History history_;
};

// ------------------------------------------------------------- pmemlib --

// Four 8-byte counters in the root object, each guarded by its own
// SchedLock; threads pick a slot and increment it through an undo-log
// transaction (lane = thread id). No allocator churn: the pool free list
// is shared state the Tx layer does not lock, and this workload models
// an implementation that partitions data, not the allocator.
class PmemlibTarget final : public WorkerTarget {
 public:
  using WorkerTarget::WorkerTarget;

  const char* name() const override { return "pmemlib"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    pool_ = std::make_unique<pmem::Pool>(*ns_);
    sim::ThreadCtx ctx = service_ctx();
    pool_->create(ctx, kSlots * 8);
    root_ = pool_->root(ctx);
    for (unsigned s = 0; s < kSlots; ++s)
      pmem::store_persist_pod(ctx, *ns_, root_ + s * 8, std::uint64_t{0});
    platform_->reset_timing();
    history_.clear();
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_slots(ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    pmem::Pool pool(*ns_);
    if (!pool.open(ctx)) return fail(error, "pool.open() found no valid pool");
    if (Status st = pool.check(ctx); !st.ok())
      return fail(error, st.to_string());
    *out = read_slots(ctx);
    return true;
  }

  std::map<std::string, std::string> initial_state() override {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kSlots; ++i) s[key(i)] = "0";
    return s;
  }

 private:
  static constexpr unsigned kSlots = 4;

  static std::string key(unsigned slot) { return "s" + std::to_string(slot); }

  std::map<std::string, std::string> read_slots(sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kSlots; ++i)
      s[key(i)] = std::to_string(
          ns_->load_pod<std::uint64_t>(ctx, root_ + i * 8));
    return s;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned slot = static_cast<unsigned>(rng.uniform(kSlots));
      if (rng.uniform(4) == 0)
        read_slot(ctx, t, slot);
      else
        bump_slot(ctx, t, slot);
    }
  }

  void read_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    ctx.sched_point(sim::SchedPoint::kOpBegin);
    const bool locked = !elide(opts_);
    if (locked) locks_[slot].lock(ctx);
    const std::size_t id = history_.invoke(t, OpKind::kGet, key(slot));
    const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + slot * 8);
    history_.respond(id, true, std::to_string(v));
    history_.mark_must_include(id);
    if (locked) locks_[slot].unlock(ctx);
  }

  void bump_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    ctx.sched_point(sim::SchedPoint::kOpBegin);
    const std::uint64_t off = root_ + slot * 8;
    const bool locked = !elide(opts_);
    if (locked) locks_[slot].lock(ctx);
    const auto old = ns_->load_pod<std::uint64_t>(ctx, off);
    const std::uint64_t nv = old + 1;
    const std::size_t id = history_.invoke(t, OpKind::kRmw, key(slot));
    history_.stage_write(id, true, std::to_string(old), std::to_string(nv));
    {
      pmem::Tx tx(*pool_, ctx);
      tx.store(off, std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&nv), 8));
      tx.commit();
    }
    history_.respond(id, true, std::to_string(old));
    history_.mark_must_include(id);
    if (locked) locks_[slot].unlock(ctx);
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<pmem::Pool> pool_;
  std::uint64_t root_ = 0;
  SchedLock locks_[kSlots];
};

// -------------------------------------------------------------- novafs --

// Files as map entries: a file's content (fixed-length writes at offset
// 0) is its value, create is a put of "". One fs-wide lock — the
// directory log, page allocator, and read staging are all shared.
class NovafsTarget final : public WorkerTarget {
 public:
  using WorkerTarget::WorkerTarget;

  const char* name() const override { return "novafs"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    fs_ = std::make_unique<nova::NovaFs>(*ns_, fs_options());
    sim::ThreadCtx ctx = service_ctx();
    fs_->format(ctx);
    platform_->reset_timing();
    history_.clear();
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*fs_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    nova::NovaFs fs(*ns_, fs_options());
    if (!fs.mount(ctx)) return fail(error, "mount() failed");
    if (Status st = fs.fsck(ctx); !st.ok()) return fail(error, st.to_string());
    *out = read_all(fs, ctx);
    return true;
  }

 private:
  static constexpr unsigned kNames = 4;
  static constexpr std::size_t kLen = 32;  // every write is full-content

  static std::string fname(unsigned i) { return "f" + std::to_string(i); }

  nova::NovaOptions fs_options() const {
    nova::NovaOptions o;
    o.datalog = true;
    o.merge_threshold = 4;
    o.clean_threshold = 8;
    o.log_checksum = true;
    o.batch_log_appends = true;  // atomic rename
    return o;
  }

  // The whole content of `name`; false if it does not exist.
  static bool read_file(nova::NovaFs& fs, sim::ThreadCtx& ctx,
                        const std::string& name, std::string* content) {
    const int ino = fs.open(ctx, name);
    if (ino < 0) return false;
    content->assign(fs.size(ctx, ino), '\0');
    if (!content->empty())
      fs.read(ctx, ino, 0,
              {reinterpret_cast<std::uint8_t*>(content->data()),
               content->size()});
    return true;
  }

  std::map<std::string, std::string> read_all(nova::NovaFs& fs,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kNames; ++i)
      if (std::string c; read_file(fs, ctx, fname(i), &c)) s[fname(i)] = c;
    return s;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r = static_cast<unsigned>(rng.uniform(8));
      const unsigned fi = static_cast<unsigned>(rng.uniform(kNames));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      SchedLockGuard g(fs_lock_, ctx);
      if (r < 3) {
        write_file(ctx, t, fi, static_cast<char>('a' + (t * 7 + op) % 26));
      } else if (r < 4) {
        const std::size_t id = history_.invoke(t, OpKind::kDel, fname(fi));
        history_.stage_write(id);
        const bool ok = fs_->unlink(ctx, fname(fi));
        history_.respond(id, ok);
        history_.mark_must_include(id);
      } else if (r < 5) {
        const unsigned to = (fi + 1 + static_cast<unsigned>(rng.uniform(
                                          kNames - 1))) % kNames;
        const std::size_t id = history_.invoke(t, OpKind::kRename, fname(fi),
                                               std::string(), fname(to));
        history_.stage_write(id);
        const bool ok = fs_->rename(ctx, fname(fi), fname(to));
        history_.respond(id, ok);
        history_.mark_must_include(id);
      } else {
        const std::size_t id = history_.invoke(t, OpKind::kGet, fname(fi));
        std::string content;
        const bool found = read_file(*fs_, ctx, fname(fi), &content);
        history_.respond(id, found, content);
        history_.mark_must_include(id);
      }
    }
  }

  void write_file(sim::ThreadCtx& ctx, unsigned t, unsigned fi, char fill) {
    int ino = fs_->open(ctx, fname(fi));
    if (ino < 0) {
      const std::size_t id = history_.invoke(t, OpKind::kPut, fname(fi));
      history_.stage_write(id);
      fs_->create(ctx, fname(fi));
      history_.respond(id);
      history_.mark_must_include(id);
      return;
    }
    const std::string content(kLen, fill);
    const std::size_t id = history_.invoke(t, OpKind::kPut, fname(fi), content);
    history_.stage_write(id);
    fs_->write(ctx, ino, 0,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(content.data()),
                   content.size()));
    history_.respond(id);
    history_.mark_must_include(id);
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<nova::NovaFs> fs_;
  SchedLock fs_lock_;
};

// ------------------------------------------------------------------ kv --

// The op mix a KvTarget's worker threads draw from, as weights out of
// their sum. A batch is one try_apply_batch of 2-3 writes; an RMW
// increments the counter key "ctr".
struct KvMix {
  const char* name;
  workload::StoreDesc store;
  unsigned put = 4, get = 2, del = 2, batch = 0, rmw = 0;
};

// Any StoreIface configuration under the interleaver, driven through the
// typed try_* calls. One SchedLock per physical store: a single-key op
// takes its owning store's lock, a batch every involved store's lock in
// ascending order (no deadlock by construction), each held across the
// call. When the store defers compaction, reset() pre-populates enough
// data to leave merge debt pending and one extra thread donates
// background turns under every lock, so exploration interleaves real
// merges with foreground traffic.
//
// Durability: a store that commits at return acknowledges each op
// durable when it returns. Under lsmkv group commit (leader/follower),
// workload::unacked_writes() reports the records still buffered: a write
// joins the open window while any are left, and when none are, every op
// in the window becomes must-include. A read taken while writes are
// pending may have observed unsynced data (the dirty-read durability
// anomaly of group commit), so it joins the window too. The window is
// store-wide, which models one group-commit domain: a frontend over
// group-committing shards would need one window per shard. A frontend
// commits a batch as one crash-atomic WAL group per shard (draining the
// shard's buffered records first), so history groups are one id per
// (batch, shard), never one spanning shards. Schedule targets run K=1
// frontends: a key's one copy lives on the store its lock guards.
class KvTarget final : public WorkerTarget {
 public:
  KvTarget(KvMix mix, const TargetOptions& o)
      : WorkerTarget(o), mix_(std::move(mix)),
        locks_(mix_.store.domains()) {}

  const char* name() const override { return mix_.name; }

  void reset() override {
    store_.reset();  // its read cache unhooks from the old namespaces
    platform_ = std::make_unique<hw::Platform>();
    ns_ = mix_.store.make_namespaces(*platform_);
    store_ = mix_.store.build(ns_);
    sim::ThreadCtx ctx = service_ctx();
    store_->create(ctx);
    filler_.clear();
    if (mix_.store.defers_compaction()) {
      // Enough 400 B fillers to flush each shard's memtable past the L0
      // trigger several times: merges are scheduled, not yet run.
      for (unsigned i = 0; i < kFillers; ++i) {
        std::string k = "f";
        k += std::to_string(i);
        const std::string v(400, 'a' + static_cast<char>(i % 26));
        store_->try_put(ctx, k, v);
        filler_[k] = v;
      }
    }
    platform_->reset_timing();
    history_.clear();
    window_.clear();
    next_group_ = 1;
  }

  std::vector<ThreadSpec> specs() override {
    std::vector<ThreadSpec> v = WorkerTarget::specs();
    if (mix_.store.defers_compaction())
      v.push_back({worker_opts(opts_, opts_.threads),
                   [this](sim::ThreadCtx& ctx) {
                     std::vector<unsigned> all(locks_.size());
                     for (unsigned s = 0; s < all.size(); ++s) all[s] = s;
                     for (unsigned turn = 0; turn < 3 * all.size(); ++turn) {
                       ctx.sched_point(sim::SchedPoint::kOpBegin);
                       locked(ctx, all, [&] { store_->background_turn(ctx); });
                     }
                   }});
    return v;
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*store_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    const auto store = mix_.store.build(ns_);
    if (!store->open(ctx)) return fail(error, "open() failed");
    if (Status st = store->check(ctx); !st.ok())
      return fail(error, st.to_string());
    *out = read_all(*store, ctx);
    return true;
  }

  std::map<std::string, std::string> initial_state() override {
    return filler_;
  }

 private:
  static constexpr unsigned kFillers = 48;

  unsigned owner(std::string_view key) const {
    return mix_.store.domain_of(key);
  }

  // Durability of op `id`, just answered under its store's lock (see the
  // class comment).
  void settle(std::size_t id) {
    if (workload::unacked_writes(*store_) == 0) {
      for (const std::size_t w : window_) history_.mark_must_include(w);
      window_.clear();
      history_.mark_must_include(id);
      return;
    }
    if (window_.empty()) window_group_ = next_group_++;
    history_.set_group(id, window_group_);
    window_.push_back(id);
  }

  // Runs fn holding locks_[s] for every s in `stores` (ascending), each
  // in its own guard scope so a release that aborts the run unwinds the
  // rest cleanly.
  template <typename Fn>
  void locked(sim::ThreadCtx& ctx, std::span<const unsigned> stores,
              Fn&& fn) {
    if (stores.empty()) return fn();
    SchedLockGuard g(locks_[stores.front()], ctx);
    locked(ctx, stores.subspan(1), fn);
  }
  template <typename Fn>
  void locked(sim::ThreadCtx& ctx, unsigned store, Fn&& fn) {
    locked(ctx, std::span<const unsigned>(&store, 1), fn);
  }

  std::map<std::string, std::string> read_all(workload::StoreIface& s,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> out;
    auto probe = [&](const std::string& k) {
      std::string v;
      if (s.try_get(ctx, k, &v).ok()) out[k] = v;
    };
    for (unsigned i = 0; i < mix_.store.keys; ++i)
      probe(workload::StoreDesc::key(i));
    probe("ctr");
    for (const auto& [k, v] : filler_) probe(k);
    return out;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    const unsigned total =
        mix_.put + mix_.get + mix_.del + mix_.batch + mix_.rmw;
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      unsigned r = static_cast<unsigned>(rng.uniform(total));
      const std::string k = workload::StoreDesc::key(
          static_cast<unsigned>(rng.uniform(mix_.store.keys)));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      if (r < mix_.put) {
        const std::string val = mix_.store.shape_value(
            "v" + std::to_string(t) + "_" + std::to_string(op), rng);
        locked(ctx, owner(k), [&] {
          const std::size_t id = history_.invoke(t, OpKind::kPut, k, val);
          history_.stage_write(id);
          store_->try_put(ctx, k, val);
          history_.respond(id);
          settle(id);
        });
      } else if ((r -= mix_.put) < mix_.get) {
        locked(ctx, owner(k), [&] {
          const std::size_t id = history_.invoke(t, OpKind::kGet, k);
          std::string v;
          const bool found = store_->try_get(ctx, k, &v).ok();
          history_.respond(id, found, v);
          settle(id);
        });
      } else if ((r -= mix_.get) < mix_.del) {
        locked(ctx, owner(k), [&] {
          const std::size_t id = history_.invoke(t, OpKind::kDel, k);
          history_.stage_write(id);
          const bool found = store_->try_del(ctx, k).ok();
          if (store_->del_reports_found())
            history_.respond(id, found);
          else
            history_.respond(id);  // a blind tombstone: nothing to check
          settle(id);
        });
      } else if ((r -= mix_.del) < mix_.batch) {
        batch(ctx, t, op, rng);
      } else {
        bump_counter(
            ctx, t, [&](auto&& fn) { locked(ctx, owner("ctr"), fn); },
            [&](std::string* v) { return store_->try_get(ctx, "ctr", v).ok(); },
            [&](std::size_t id, const std::string& nv) {
              store_->try_put(ctx, "ctr", nv);
              history_.respond(id);
              settle(id);
            });
      }
    }
  }

  void batch(sim::ThreadCtx& ctx, unsigned t, unsigned op, sim::Rng& rng) {
    const unsigned n = 2 + static_cast<unsigned>(rng.uniform(2));
    std::vector<workload::BatchOp> ops;
    std::vector<unsigned> stores;
    for (unsigned i = 0; i < n; ++i) {
      workload::BatchOp b;
      b.key = workload::StoreDesc::key(
          static_cast<unsigned>(rng.uniform(mix_.store.keys)));
      b.del = rng.uniform(5) == 0;
      if (!b.del)
        b.value = "b" + std::to_string(t) + "_" + std::to_string(op) + "_" +
                  std::to_string(i);
      stores.push_back(owner(b.key));
      ops.push_back(std::move(b));
    }
    std::sort(stores.begin(), stores.end());
    stores.erase(std::unique(stores.begin(), stores.end()), stores.end());
    locked(ctx, stores, [&] {
      std::map<unsigned, std::uint64_t> group;
      for (const unsigned s : stores) group[s] = next_group_++;
      std::vector<std::size_t> ids;
      for (const auto& b : ops) {
        const std::size_t id = history_.invoke(
            t, b.del ? OpKind::kDel : OpKind::kPut, b.key, b.value);
        history_.stage_write(id);
        history_.set_group(id, group[owner(b.key)]);
        ids.push_back(id);
      }
      store_->try_apply_batch(ctx, ops);
      for (const std::size_t id : ids) {
        history_.respond(id);
        history_.mark_must_include(id);
      }
    });
  }

  KvMix mix_;
  std::vector<hw::PmemNamespace*> ns_;
  std::unique_ptr<workload::StoreIface> store_;
  std::vector<SchedLock> locks_;
  std::map<std::string, std::string> filler_;
  std::uint64_t next_group_ = 1;
  std::vector<std::size_t> window_;  // ops of the open group-commit window
  std::uint64_t window_group_ = 0;
};

}  // namespace

std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts) {
  return std::make_unique<PmemlibTarget>(opts);
}
std::unique_ptr<Target> make_lsmkv_target(const TargetOptions& opts) {
  kv::DbOptions o;  // FLEX WAL
  o.wal_checksum = true;
  o.wal_group_commit = true;
  o.wal_group_size = 3;
  o.memtable_bytes = 2 << 10;
  o.l0_compaction_trigger = 2;
  o.wal_capacity = 1 << 20;
  KvMix mix{"lsmkv", {}, /*put=*/3, /*get=*/2, /*del=*/1, /*batch=*/0,
            /*rmw=*/2};
  mix.store.options = o;
  mix.store.keys = 5;
  return std::make_unique<KvTarget>(std::move(mix), opts);
}
std::unique_ptr<Target> make_novafs_target(const TargetOptions& opts) {
  return std::make_unique<NovafsTarget>(opts);
}
std::unique_ptr<Target> make_cmap_target(const TargetOptions& opts) {
  KvMix mix{"cmap", {}};
  mix.store.options = pmemkv::CMapOptions{};
  mix.store.keys = 6;
  // 8-byte values take the in-place update path, 24-byte the
  // transactional one.
  mix.store.value_min = 8;
  mix.store.value_step = 16;
  mix.store.value_choices = 2;
  return std::make_unique<KvTarget>(std::move(mix), opts);
}

std::unique_ptr<Target> make_stree_target(const TargetOptions& opts) {
  // Enough keys that a 3-thread run splits a leaf mid-schedule.
  KvMix mix{"stree", {}, /*put=*/5, /*get=*/2, /*del=*/1};
  mix.store.options = pmemkv::STreeOptions{};
  mix.store.keys = 12;
  return std::make_unique<KvTarget>(std::move(mix), opts);
}

std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts) {
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning.memtable_bytes = 2 << 10;
  so.tuning.background_compaction = true;
  KvMix mix{"sharded-lsmkv", {}, /*put=*/3, /*get=*/2, /*del=*/1,
            /*batch=*/2, /*rmw=*/2};
  mix.store.options = so;
  mix.store.shards = 2;
  mix.store.ns_bytes = 16ull << 20;
  mix.store.keys = 6;
  return std::make_unique<KvTarget>(std::move(mix), opts);
}

std::vector<std::unique_ptr<Target>> all_targets(const TargetOptions& opts) {
  std::vector<std::unique_ptr<Target>> v;
  v.push_back(make_pmemlib_target(opts));
  v.push_back(make_lsmkv_target(opts));
  v.push_back(make_novafs_target(opts));
  v.push_back(make_cmap_target(opts));
  v.push_back(make_stree_target(opts));
  v.push_back(make_sharded_target(opts));
  return v;
}

}  // namespace xp::schedmc
