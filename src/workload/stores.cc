// StoreIface adapters for the four store families. Each translates the
// shared StoreTuning knobs into the store's own options and forwards
// ops 1:1, adding no simulated time of its own.
#include "workload/store_iface.h"

#include <cassert>

#include "lsmkv/db.h"
#include "novafs/novafs.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "pmemlib/pool.h"

namespace xp::workload {

const char* store_kind_name(StoreKind k) {
  switch (k) {
    case StoreKind::kLsmkv: return "lsmkv";
    case StoreKind::kCmap: return "cmap";
    case StoreKind::kStree: return "stree";
    case StoreKind::kNova: return "nova";
  }
  return "?";
}

const char* op_status_name(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kNotFound: return "not_found";
    case OpStatus::kMediaError: return "media_error";
    case OpStatus::kUnavailable: return "unavailable";
    case OpStatus::kDataLoss: return "data_loss";
  }
  return "?";
}

void StoreIface::apply_batch(sim::ThreadCtx& ctx,
                             std::span<const BatchOp> ops) {
  for (const BatchOp& op : ops) {
    if (op.del)
      del(ctx, op.key);
    else
      put(ctx, op.key, op.value);
  }
  flush_pending(ctx);
}

namespace {

// Shared translation for the default try_* wrappers: run `fn`, contain a
// thrown hw::MediaError as a typed status — unless the platform froze
// (armed read-fault campaign: the machine check was fatal), in which
// case the exception keeps propagating like the process death it models.
template <typename Fn>
OpResult contain_media(const StoreIface& store, Fn&& fn) {
  OpResult r;
  try {
    fn(r);
  } catch (const hw::MediaError&) {
    const hw::Platform* p = store.platform_of();
    if (p != nullptr && p->frozen()) throw;
    r.status = OpStatus::kMediaError;
  }
  return r;
}

}  // namespace

OpResult StoreIface::try_put(sim::ThreadCtx& ctx, std::string_view key,
                             std::string_view value) {
  return contain_media(*this, [&](OpResult&) { put(ctx, key, value); });
}

OpResult StoreIface::try_get(sim::ThreadCtx& ctx, std::string_view key,
                             std::string* value) {
  return contain_media(*this, [&](OpResult& r) {
    if (!get(ctx, key, value)) r.status = OpStatus::kNotFound;
  });
}

OpResult StoreIface::try_del(sim::ThreadCtx& ctx, std::string_view key,
                             bool* found) {
  return contain_media(*this, [&](OpResult& r) {
    const bool f = del(ctx, key);
    if (found != nullptr) *found = f;
    if (!f && del_reports_found()) r.status = OpStatus::kNotFound;
  });
}

OpResult StoreIface::try_scan(
    sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
    std::vector<std::pair<std::string, std::string>>* out) {
  return contain_media(*this, [&](OpResult&) { *out = scan(ctx, start, n); });
}

OpResult StoreIface::try_apply_batch(sim::ThreadCtx& ctx,
                                     std::span<const BatchOp> ops) {
  return contain_media(*this, [&](OpResult&) { apply_batch(ctx, ops); });
}

namespace {

// Consistent after repair: DataLoss when open()/repair() had to drop
// damaged data, else Ok.
Status repaired(bool damaged) {
  return damaged ? Status::DataLoss("repair dropped damaged data")
                 : Status::Ok();
}

class LsmkvStore final : public StoreIface {
 public:
  LsmkvStore(hw::PmemNamespace& ns, const kv::DbOptions& o)
      : ns_(ns), db_(ns, o) {}

  const char* name() const override { return "lsmkv"; }
  StoreKind kind() const override { return StoreKind::kLsmkv; }
  void create(sim::ThreadCtx& ctx) override { db_.create(ctx); }
  bool open(sim::ThreadCtx& ctx) override {
    half_open_ = true;  // stays set if open() throws
    const bool ok = db_.open(ctx);
    half_open_ = false;
    return ok;
  }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    db_.put(ctx, k, v);
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return db_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    db_.del(ctx, k);  // blind tombstone: existence is not reported
    return true;
  }
  bool del_reports_found() const override { return false; }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    return db_.scan(ctx, start, n);
  }
  void apply_batch(sim::ThreadCtx& ctx,
                   std::span<const BatchOp> ops) override {
    std::vector<kv::WalRecord> recs;
    recs.reserve(ops.size());
    for (const BatchOp& op : ops) recs.push_back({op.key, op.value, op.del});
    db_.put_batch(ctx, recs);
  }
  void flush_pending(sim::ThreadCtx& ctx) override { db_.commit_pending(ctx); }
  bool background_turn(sim::ThreadCtx& ctx) override {
    return db_.background_work(ctx);
  }
  Status check(sim::ThreadCtx& ctx) override { return db_.check(ctx); }
  hw::Platform* platform_of() const override { return &ns_.platform(); }
  Status repair_media(sim::ThreadCtx& ctx) override {
    // open() threw past its manifest/header fallbacks: nothing to salvage.
    if (half_open_) return Status::MediaFault("open() did not complete");
    db_.repair(ctx);  // RecoveryInfo-driven salvage: quarantine bad SSTs
    if (Status st = db_.check(ctx); !st.ok()) return st;
    return repaired(db_.recovery().damaged() ||
                    db_.pool().recovery().damaged());
  }

 private:
  hw::PmemNamespace& ns_;
  kv::Db db_;
  bool half_open_ = false;
};

class CMapStore final : public StoreIface {
 public:
  CMapStore(hw::PmemNamespace& ns, const pmemkv::CMapOptions& o)
      : ns_(ns), pool_(ns), map_(pool_, o) {}

  const char* name() const override { return "cmap"; }
  StoreKind kind() const override { return StoreKind::kCmap; }
  void create(sim::ThreadCtx& ctx) override {
    pool_.create(ctx, 64);
    map_.create(ctx);
  }
  bool open(sim::ThreadCtx& ctx) override {
    half_open_ = true;  // stays set if open() throws
    const bool ok = pool_.open(ctx);
    if (ok) map_.open(ctx);
    half_open_ = false;
    return ok;
  }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    map_.put(ctx, k, v);
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return map_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return map_.remove(ctx, k);
  }
  bool supports_scan() const override { return false; }  // hash-ordered
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx&, std::string_view, std::size_t) override {
    return {};
  }
  Status check(sim::ThreadCtx& ctx) override {
    if (Status st = pool_.check(ctx); !st.ok()) return st;
    return map_.check(ctx);
  }
  hw::Platform* platform_of() const override { return &ns_.platform(); }
  Status repair_media(sim::ThreadCtx& ctx) override {
    // open() threw: the root pointer to the bucket table is unreadable.
    if (half_open_) return Status::MediaFault("open() did not complete");
    map_.repair(ctx);   // cut/splice damaged chains, then scrub
    pool_.repair(ctx);  // revalidate the free list over the scrubbed lines
    if (Status st = check(ctx); !st.ok()) return st;
    return repaired(map_.recovery().damaged() || pool_.recovery().damaged());
  }

 private:
  hw::PmemNamespace& ns_;
  pmem::Pool pool_;
  pmemkv::CMap map_;
  bool half_open_ = false;
};

class STreeStore final : public StoreIface {
 public:
  STreeStore(hw::PmemNamespace& ns, const pmemkv::STreeOptions& o)
      : ns_(ns), pool_(ns), tree_(pool_, o) {}

  const char* name() const override { return "stree"; }
  StoreKind kind() const override { return StoreKind::kStree; }
  void create(sim::ThreadCtx& ctx) override {
    pool_.create(ctx, 64);
    tree_.create(ctx);
  }
  bool open(sim::ThreadCtx& ctx) override {
    if (!pool_.open(ctx)) return false;
    tree_.open(ctx);
    return true;
  }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    const bool ok = tree_.put(ctx, k, v);
    assert(ok && "stree keys are capped at 31 bytes");
    (void)ok;
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return tree_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return tree_.remove(ctx, k);
  }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    return tree_.scan(ctx, start, n);
  }
  Status check(sim::ThreadCtx& ctx) override {
    if (Status st = pool_.check(ctx); !st.ok()) return st;
    return tree_.check(ctx);
  }
  hw::Platform* platform_of() const override { return &ns_.platform(); }
  // Also salvages a tree whose open() threw mid-index: repair() re-walks
  // the leaf chain from the durable image.
  Status repair_media(sim::ThreadCtx& ctx) override {
    tree_.repair(ctx);  // drop damaged leaves/slots, scrub, rebuild index
    pool_.repair(ctx);  // revalidate the free list over the scrubbed lines
    if (Status st = check(ctx); !st.ok()) return st;
    return repaired(tree_.recovery().damaged() ||
                    pool_.recovery().damaged());
  }

 private:
  hw::PmemNamespace& ns_;
  pmem::Pool pool_;
  pmemkv::STree tree_;
};

// KV over novafs: one file per key, value = file contents. Ordered scan
// walks the DRAM name index.
class NovaStore final : public StoreIface {
 public:
  NovaStore(hw::PmemNamespace& ns, const nova::NovaOptions& o)
      : ns_(ns), fs_(ns, o) {}

  const char* name() const override { return "nova"; }
  StoreKind kind() const override { return StoreKind::kNova; }
  void create(sim::ThreadCtx& ctx) override { fs_.format(ctx); }
  bool open(sim::ThreadCtx& ctx) override { return fs_.mount(ctx); }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    const std::string name(k);
    int ino = fs_.open(ctx, name);
    if (ino < 0) ino = fs_.create(ctx, name);
    assert(ino >= 0);
    fs_.write(ctx, ino, 0,
              {reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
    // An overwrite by a shorter value must not leave the old tail.
    if (fs_.size(ctx, ino) != v.size()) fs_.truncate(ctx, ino, v.size());
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    const int ino = fs_.open(ctx, std::string(k));
    if (ino < 0) return false;
    v->resize(fs_.size(ctx, ino));
    const std::size_t n = fs_.read(
        ctx, ino, 0,
        {reinterpret_cast<std::uint8_t*>(v->data()), v->size()});
    v->resize(n);
    return true;
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return fs_.unlink(ctx, std::string(k));
  }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = fs_.names().lower_bound(std::string(start));
         it != fs_.names().end() && out.size() < n; ++it) {
      std::string v;
      if (get(ctx, it->first, &v)) out.emplace_back(it->first, std::move(v));
    }
    return out;
  }
  Status check(sim::ThreadCtx& ctx) override { return fs_.fsck(ctx); }
  hw::Platform* platform_of() const override { return &ns_.platform(); }

 private:
  hw::PmemNamespace& ns_;
  nova::NovaFs fs_;
};

}  // namespace

std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const kv::DbOptions& opts) {
  return std::make_unique<LsmkvStore>(ns, opts);
}
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const pmemkv::CMapOptions& opts) {
  return std::make_unique<CMapStore>(ns, opts);
}
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const pmemkv::STreeOptions& opts) {
  return std::make_unique<STreeStore>(ns, opts);
}
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const nova::NovaOptions& opts) {
  return std::make_unique<NovaStore>(ns, opts);
}

std::unique_ptr<StoreIface> make_store(StoreKind kind, hw::PmemNamespace& ns,
                                       const StoreTuning& t) {
  const std::size_t cache_lines = t.read_path ? t.read_cache_lines : 0;
  switch (kind) {
    case StoreKind::kLsmkv: {
      kv::DbOptions o;
      // Shard namespaces are tens of MiB, not the 256 MiB single-store
      // benches use; a WAL a few times the memtable is plenty (it is
      // truncated at every flush).
      o.wal_capacity = 4 << 20;
      o.memtable_bytes = t.memtable_bytes;
      o.wal_group_commit = t.write_combine;
      o.wal_group_size = t.wal_group_size;
      o.sst_residency = t.read_path;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      o.background_compaction = t.background_compaction;
      return make_store(ns, o);
    }
    case StoreKind::kCmap: {
      pmemkv::CMapOptions o;
      o.max_writers_per_dimm = t.writers_per_dimm;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return make_store(ns, o);
    }
    case StoreKind::kStree: {
      pmemkv::STreeOptions o;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return make_store(ns, o);
    }
    case StoreKind::kNova: {
      nova::NovaOptions o;
      o.datalog = true;  // values are sub-page; embed them in the log
      o.batch_log_appends = t.write_combine;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return make_store(ns, o);
    }
  }
  return nullptr;
}

}  // namespace xp::workload
