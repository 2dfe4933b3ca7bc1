#include "crashmc/workloads.h"

#include <cstring>
#include <map>
#include <set>
#include <string>

#include "novafs/novafs.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"
#include "sim/rng.h"
#include "workload/store_desc.h"
#include "xpsim/fault.h"

namespace xp::crashmc {

namespace {

sim::ThreadCtx make_thread(unsigned id) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

// ------------------------------------------------------------- pmemlib --

// Versioned-slot workload: each thread owns half of the root's slots and
// bumps two of them per transaction (with allocator churn in the same
// tx). Slot s at version v holds encode(s, v), so recovery can verify
// both the version window [acked, attempted] and the exact bytes.
class PmemlibTarget final : public Target {
 public:
  explicit PmemlibTarget(bool inject) : inject_(inject) {}

  std::string name() const override {
    return inject_ ? "pmemlib-faulty" : "pmemlib";
  }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    sim::ThreadCtx ctx = make_thread(0);
    pmem::Pool pool(*ns_);
    pool.create(ctx, kSlots * 8);
    root_ = pool.root(ctx);
    for (unsigned s = 0; s < kSlots; ++s) {
      pmem::store_persist_pod(ctx, *ns_, root_ + s * 8, encode(s, 0));
      acked_[s] = attempted_[s] = 0;
    }
    platform_->reset_timing();
    return *platform_;
  }

  std::vector<hw::PmemNamespace*> namespaces() override { return {ns_}; }

  void run() override {
    pmem::Pool pool(*ns_);
    if (inject_) pool.set_test_fault(pmem::Pool::TestFault::kSkipCommitFlush);
    sim::ThreadCtx ta = make_thread(0);  // lane 0, slots [0, kSlots/2)
    sim::ThreadCtx tb = make_thread(1);  // lane 1, slots [kSlots/2, kSlots)
    sim::Rng rng(7);
    std::uint64_t held_a = 0, held_b = 0;
    const unsigned rounds = inject_ ? 3 : 5;
    for (unsigned r = 1; r <= rounds; ++r) {
      do_round(pool, ta, 0, r, held_a, rng);
      do_round(pool, tb, kSlots / 2, r, held_b, rng);
    }
  }

  std::string recover_and_check() override { return check(false); }
  std::string repair_and_check() override { return check(true); }

 private:
  static constexpr unsigned kSlots = 16;

  static std::uint64_t encode(unsigned slot, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(slot) << 32) | seq;
  }

  // Re-open from the durable image (and, after media damage, repair).
  std::string check(bool repair) {
    sim::ThreadCtx ctx = make_thread(5);
    pmem::Pool pool(*ns_);
    // After media damage, both header copies gone is a typed, reported
    // total loss — only *silent* corruption breaks the contract.
    if (!pool.open(ctx)) return repair ? "" : "open() found no valid pool";
    if (repair) pool.repair(ctx);
    if (Status st = pool.check(ctx); !st.ok()) return st.to_string();
    const bool reported = repair && pool.recovery().damaged();
    for (unsigned s = 0; s < kSlots; ++s) {
      const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + s * 8);
      if (v == encode(s, acked_[s]) || v == encode(s, attempted_[s]))
        continue;
      // Off the crash-consistent window: allowed only as *reported* media
      // loss, and only to a value the slot actually held (or scrub zeros).
      bool historical = v == 0;
      for (std::uint64_t q = 0; q <= attempted_[s] && !historical; ++q)
        historical = v == encode(s, q);
      if (!reported || !historical)
        return "slot " + std::to_string(s) + ": holds " + std::to_string(v) +
               ", want version " + std::to_string(acked_[s]) + " or " +
               std::to_string(attempted_[s]) +
               (repair ? " (silent corruption)" : "");
    }
    return "";
  }

  void do_round(pmem::Pool& pool, sim::ThreadCtx& ctx, unsigned base,
                std::uint64_t seq, std::uint64_t& held, sim::Rng& rng) {
    const unsigned s1 = base + static_cast<unsigned>(rng.uniform(kSlots / 2));
    unsigned s2 = base + static_cast<unsigned>(rng.uniform(kSlots / 2));
    if (s2 == s1) s2 = base + (s1 - base + 1) % (kSlots / 2);

    attempted_[s1] = seq;
    attempted_[s2] = seq;
    pmem::Tx tx(pool, ctx);
    for (unsigned s : {s1, s2}) {
      tx.add(root_ + s * 8, 8);
      const std::uint64_t v = encode(s, seq);
      tx.store(root_ + s * 8,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&v), 8));
    }
    // Allocator churn: free last round's block, grab a new one.
    if (held != 0) pool.tx_free(tx, held, 64);
    held = pool.tx_alloc(tx, 64 + 64 * rng.uniform(3));
    tx.commit();
    acked_[s1] = seq;
    acked_[s2] = seq;
  }

  bool inject_;
  std::unique_ptr<hw::Platform> platform_;
  hw::PmemNamespace* ns_ = nullptr;
  std::uint64_t root_ = 0;
  std::uint64_t acked_[kSlots] = {};
  std::uint64_t attempted_[kSlots] = {};
};

// -------------------------------------------------------------- novafs --

// Single-page writes (embedded and CoW), page-aligned truncates and
// create/unlink are each committed by one atomic log append, so the
// recovered file set must byte-match the pre- or post-op state. Low
// merge/clean thresholds pull the overlay merge and the log cleaner into
// the crash window.
class NovafsTarget final : public Target {
 public:
  NovafsTarget(bool log_checksum, bool batch_appends)
      : log_checksum_(log_checksum), batch_appends_(batch_appends) {}

  std::string name() const override {
    return batch_appends_ ? "novafs-batch" : "novafs";
  }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    opt_ = nova::NovaOptions{};
    opt_.datalog = true;
    opt_.merge_threshold = 4;
    opt_.clean_threshold = 6;
    opt_.log_checksum = log_checksum_;
    opt_.batch_log_appends = batch_appends_;
    fs_ = std::make_unique<nova::NovaFs>(*ns_, opt_);
    sim::ThreadCtx ctx = make_thread(0);
    fs_->format(ctx);
    prev_.clear();
    cur_.clear();
    platform_->reset_timing();
    return *platform_;
  }

  std::vector<hw::PmemNamespace*> namespaces() override { return {ns_}; }

  void run() override {
    sim::ThreadCtx ctx = make_thread(0);
    sim::Rng rng(13);
    const std::string names[] = {"alpha", "beta", "gamma"};
    for (unsigned op = 0; op < kOps; ++op) {
      const std::string& name = names[rng.uniform(3)];
      prev_ = cur_;
      const std::uint64_t action = rng.uniform(8);
      if (cur_.count(name) == 0) {
        // Bring the file into existence (atomic: inode + dirent append).
        cur_[name] = "";
        fs_->create(ctx, name);
      } else if (action == 0) {
        cur_.erase(name);
        fs_->unlink(ctx, name);
      } else if (action == 1) {
        const std::uint64_t new_size = rng.uniform(4) * nova::NovaFs::kPageSize;
        cur_[name].resize(new_size, '\0');
        const int ino = fs_->open(ctx, name);
        fs_->truncate(ctx, ino, new_size);
      } else if (action == 2) {
        // Full-page CoW write.
        const std::uint64_t page = rng.uniform(3);
        write_model(name, page * nova::NovaFs::kPageSize,
                    nova::NovaFs::kPageSize, static_cast<char>('A' + op % 26));
        std::vector<std::uint8_t> buf(nova::NovaFs::kPageSize,
                                      static_cast<std::uint8_t>('A' + op % 26));
        const int ino = fs_->open(ctx, name);
        fs_->write(ctx, ino, page * nova::NovaFs::kPageSize, buf);
      } else if (batch_appends_ && action == 3) {
        // Rename onto another live name. Batched, the deletion + insertion
        // dirents commit as one atomic directory-log burst, so the model
        // can move the file atomically; the per-entry path cannot promise
        // this (a crash between the dirents loses both names).
        const std::string& to = names[rng.uniform(3)];
        if (to != name) {
          cur_[to] = cur_[name];
          cur_.erase(name);
          fs_->rename(ctx, name, to);
        }
      } else if (batch_appends_ && action == 4) {
        // Write straddling a page boundary: two embedded entries, which
        // only the batched log path commits atomically (one chunk).
        const std::uint64_t page = rng.uniform(2);
        const std::uint64_t len = 200 + rng.uniform(400);
        const std::uint64_t off =
            (page + 1) * nova::NovaFs::kPageSize - len / 2;
        write_model(name, off, len, static_cast<char>('a' + op % 26));
        std::vector<std::uint8_t> buf(len,
                                      static_cast<std::uint8_t>('a' + op % 26));
        const int ino = fs_->open(ctx, name);
        fs_->write(ctx, ino, off, buf);
      } else {
        // Small write, embedded in the log; stays inside one page.
        const std::uint64_t page = rng.uniform(3);
        const std::uint64_t len = 1 + rng.uniform(400);
        const std::uint64_t in_page =
            rng.uniform(nova::NovaFs::kPageSize - len);
        write_model(name, page * nova::NovaFs::kPageSize + in_page, len,
                    static_cast<char>('a' + op % 26));
        std::vector<std::uint8_t> buf(len,
                                      static_cast<std::uint8_t>('a' + op % 26));
        const int ino = fs_->open(ctx, name);
        fs_->write(ctx, ino, page * nova::NovaFs::kPageSize + in_page, buf);
      }
    }
  }

  std::string recover_and_check() override { return check(false); }
  std::string repair_and_check() override { return check(true); }

 private:
  static constexpr unsigned kOps = 28;

  // Re-mount from the durable image (and, after media damage, repair).
  std::string check(bool repair) {
    sim::ThreadCtx ctx = make_thread(5);
    nova::NovaFs fs(*ns_, opt_);
    bool mounted = false;
    try {
      mounted = fs.mount(ctx);
    } catch (const hw::MediaError&) {
      if (!repair) throw;
    }
    // After media damage, an unmountable file system (both superblock
    // copies gone) is a typed, reported total loss.
    if (!mounted) return repair ? "" : "mount() found no valid file system";
    if (repair) fs.repair(ctx);
    if (Status st = fs.fsck(ctx); !st.ok()) return st.to_string();
    std::map<std::string, std::string> got;
    for (const char* name : {"alpha", "beta", "gamma"}) {
      const int ino = fs.open(ctx, name);
      if (ino < 0) continue;
      const std::uint64_t size = fs.size(ctx, ino);
      std::string content(size, '\0');
      fs.read(ctx, ino, 0,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(content.data()), size));
      got[name] = std::move(content);
    }
    // Repair may legally drop overlays/log suffixes (older committed
    // bytes resurface) — but only as *reported* damage.
    if (got == prev_ || got == cur_ || (repair && fs.recovery().damaged()))
      return "";
    return repair ? "silent corruption: recovered file set diverges from "
                    "the pre-/post-op states with no damage reported"
                  : "recovered file set matches neither the pre-op nor the "
                    "post-op state";
  }

  void write_model(const std::string& name, std::uint64_t off,
                   std::uint64_t len, char fill) {
    std::string& content = cur_[name];
    if (content.size() < off + len) content.resize(off + len, '\0');
    std::memset(content.data() + off, fill, len);
  }

  bool log_checksum_;
  bool batch_appends_;
  std::unique_ptr<hw::Platform> platform_;
  hw::PmemNamespace* ns_ = nullptr;
  nova::NovaOptions opt_;
  std::unique_ptr<nova::NovaFs> fs_;
  std::map<std::string, std::string> prev_, cur_;
};

// ------------------------------------------------------------------ kv --

// The op mix a KvTarget runs against its StoreDesc, one sequential
// thread. Every op draws a key; a live key is deleted with probability
// 1/del_one_in, else it gets a fresh value. With probability
// 1/batch_one_in the op is instead one try_apply_batch of 1-3 such
// writes.
struct KvWorkload {
  std::string name;
  workload::StoreDesc store;
  unsigned ops = 40;
  std::uint64_t seed = 1;
  unsigned del_one_in = 4;
  unsigned batch_one_in = 0;  // 0: single writes only
  unsigned poison_at = 0;     // >0: poison namespace 0 before this op
};

// Background turns a drain may take before it counts as not settling.
constexpr unsigned kMaxDrainTurns = 2000;

bool drain(workload::StoreIface& store, sim::ThreadCtx& ctx) {
  for (unsigned i = 0; i < kMaxDrainTurns; ++i)
    if (!store.background_turn(ctx)) return true;
  return false;
}

using State = std::map<std::string, std::string>;

class KvTarget final : public Target {
 public:
  explicit KvTarget(KvWorkload w) : w_(std::move(w)) {}

  std::string name() const override { return w_.name; }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = w_.store.make_namespaces(*platform_);
    store_ = w_.store.build(ns_);
    sim::ThreadCtx ctx = make_thread(0);
    store_->create(ctx);
    cur_.assign(w_.store.domains(), State{});
    prev_ = cur_;
    history_.clear();
    platform_->reset_timing();
    return *platform_;
  }

  std::vector<hw::PmemNamespace*> namespaces() override { return ns_; }

  void run() override {
    sim::ThreadCtx ctx = make_thread(0);
    sim::Rng rng(w_.seed);
    sim::Rng reads(w_.seed + 1);  // its own stream: writes stay as drawn
    std::uint64_t seq = 0;
    for (unsigned op = 0; op < w_.ops; ++op) {
      if (w_.poison_at != 0 && op == w_.poison_at)
        hw::FaultInjector(*platform_, 7)
            .poison_random(*ns_[0], 0, ns_[0]->size(), 3);
      prev_ = cur_;
      const bool batch =
          w_.batch_one_in != 0 && rng.uniform(w_.batch_one_in) == 0;
      const unsigned n = batch ? 1 + static_cast<unsigned>(rng.uniform(3)) : 1;
      std::vector<workload::BatchOp> writes;
      for (unsigned i = 0; i < n; ++i) writes.push_back(next_write(rng, seq));
      const workload::BatchOp& w = writes.front();
      const workload::OpResult r =
          batch    ? store_->try_apply_batch(ctx, writes)
          : w.del  ? store_->try_del(ctx, w.key)
                   : store_->try_put(ctx, w.key, w.value);
      if (r.status == workload::OpStatus::kUnavailable) cur_ = prev_;
      // A read of a random key per op reaches on-media data, so poison
      // surfaces and moves a frontend's health state machine; one donated
      // turn per op runs deferred merges and rebuild steps inside the
      // crash window.
      std::string v;
      (void)store_->try_get(
          ctx, workload::StoreDesc::key(
                   static_cast<unsigned>(reads.uniform(w_.store.keys))),
          &v);
      store_->background_turn(ctx);
    }
    drain(*store_, ctx);
    store_->flush_pending(ctx);
  }

  std::string recover_and_check() override {
    for (unsigned round = 0; round < 2; ++round)
      if (std::string err = recover(round, /*repair=*/false); !err.empty())
        return err + " (recovery " + std::to_string(round + 1) + ")";
    return "";
  }

  std::string repair_and_check() override {
    return recover(0, /*repair=*/true);
  }

 private:
  // Draws one write, applies it to the model and returns it.
  workload::BatchOp next_write(sim::Rng& rng, std::uint64_t& seq) {
    workload::BatchOp b;
    b.key = workload::StoreDesc::key(
        static_cast<unsigned>(rng.uniform(w_.store.keys)));
    State& dom = cur_[w_.store.domain_of(b.key)];
    b.del = rng.uniform(w_.del_one_in) == 0 && dom.count(b.key) != 0;
    if (b.del) {
      dom.erase(b.key);
    } else {
      b.value = w_.store.shape_value(b.key + "#" + std::to_string(seq++), rng);
      dom[b.key] = b.value;
      history_[b.key].insert(b.value);
    }
    return b;
  }

  std::string recover(unsigned round, bool repair) {
    sim::ThreadCtx ctx = make_thread(5 + round);
    const auto store = w_.store.build(ns_);
    bool opened = false, half_open = false;
    try {
      opened = store->open(ctx);
    } catch (const hw::MediaError& e) {
      if (!repair) return std::string("open(): ") + e.what();
      opened = half_open = true;  // repair_media salvages or reports it
    }
    // After media damage an unopenable store is a typed, reported total
    // loss: the contract forbids only *silent* corruption.
    if (!opened) return repair ? "" : "open() found no valid store";
    Status repaired;
    if (repair) {
      repaired = store->repair_media(ctx);
      if (half_open && repaired.code() == ErrorCode::kMediaError) return "";
      if (!repaired.ok() && repaired.code() != ErrorCode::kDataLoss)
        return repaired.to_string();
    }
    if (!drain(*store, ctx)) return "background work did not settle";
    if (Status st = store->check(ctx); !st.ok()) return st.to_string();

    std::vector<State> got(w_.store.domains());
    for (unsigned k = 0; k < w_.store.keys; ++k) {
      const std::string key = workload::StoreDesc::key(k);
      std::string v;
      const workload::OpResult r = store->try_get(ctx, key, &v);
      if (r.ok())
        got[w_.store.domain_of(key)][key] = v;
      else if (r.status != workload::OpStatus::kNotFound)
        return key + ": read returned " + workload::op_status_name(r.status);
    }
    for (unsigned d = 0; d < got.size(); ++d) {
      if (got[d] == prev_[d] || got[d] == cur_[d]) continue;
      if (repaired.code() != ErrorCode::kDataLoss)
        return "domain " + std::to_string(d) +
               ": recovered state matches neither its pre-op nor its "
               "post-op state (" + std::to_string(got[d].size()) +
               " live keys" + (repair ? ", no damage reported)" : ")");
      // Reported loss may drop committed writes, but every surviving
      // value must be one its key actually held.
      for (const auto& [key, val] : got[d]) {
        const auto it = history_.find(key);
        if (it == history_.end() || it->second.count(val) == 0)
          return "silent corruption: key " + key + " holds a never-written "
                 "value";
      }
    }
    return "";
  }

  KvWorkload w_;
  std::unique_ptr<hw::Platform> platform_;
  std::vector<hw::PmemNamespace*> ns_;
  std::unique_ptr<workload::StoreIface> store_;
  std::vector<State> prev_, cur_;  // per atomic domain
  std::map<std::string, std::set<std::string>> history_;
};

kv::DbOptions lsmkv_options(kv::WalMode mode, bool wal_checksum,
                            bool group_commit) {
  kv::DbOptions o;
  o.wal = mode;
  o.wal_checksum = wal_checksum;
  o.wal_group_commit = group_commit;
  o.wal_capacity = 1 << 20;
  o.memtable_bytes = 512;
  o.l0_compaction_trigger = 2;
  return o;
}

// Two per-DIMM lsmkv shards with deferred compaction. Singles stay
// durable at return (no write combining); a batch commits one WAL group
// per shard.
workload::StoreDesc lsmkv_frontend(unsigned replicas) {
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = replicas;
  so.quarantine_after = 1;  // fail fast: one read error quarantines
  so.tuning.memtable_bytes = 256;  // flushes and merges under the run
  so.tuning.background_compaction = true;
  workload::StoreDesc d;
  d.options = so;
  d.shards = 2;
  d.ns_bytes = 16ull << 20;
  d.value_min = 12;
  d.value_choices = 12;
  return d;
}

}  // namespace

std::unique_ptr<Target> make_pmemlib_target(bool inject_commit_fault) {
  return std::make_unique<PmemlibTarget>(inject_commit_fault);
}

std::unique_ptr<Target> make_lsmkv_target(kv::WalMode mode,
                                          bool wal_checksum,
                                          bool group_commit) {
  KvWorkload w;
  w.name = mode == kv::WalMode::kPosix ? "lsmkv-posix" : "lsmkv-flex";
  w.store.options = lsmkv_options(mode, wal_checksum, group_commit);
  w.store.ns_bytes = 32ull << 20;
  w.store.value_min = 11;
  w.store.value_choices = 16;
  w.ops = 48;
  w.seed = 11;
  if (group_commit) {
    // Every op is a put_batch group of 1-3 records: groups coalesce
    // records into one persist burst, so twice the records keep the
    // crash-point count comparable to the per-record target.
    w.name += "-group";
    w.batch_one_in = 1;
  }
  return std::make_unique<KvTarget>(std::move(w));
}

std::unique_ptr<Target> make_novafs_target(bool log_checksum,
                                           bool batch_appends) {
  return std::make_unique<NovafsTarget>(log_checksum, batch_appends);
}

std::unique_ptr<Target> make_cmap_target() {
  KvWorkload w;
  w.name = "pmemkv-cmap";
  w.store.options = pmemkv::CMapOptions{};
  w.store.keys = 12;
  // 8 bytes keeps header + key + value in one 64 B line (in-place update);
  // a length change takes the transactional replace path.
  w.store.value_min = 8;
  w.store.value_step = 16;
  w.store.value_choices = 2;
  w.seed = 17;
  w.del_one_in = 5;
  return std::make_unique<KvTarget>(std::move(w));
}

std::unique_ptr<Target> make_stree_target() {
  KvWorkload w;
  w.name = "pmemkv-stree";
  w.store.options = pmemkv::STreeOptions{};
  w.store.keys = 48;
  w.store.value_min = 8;
  w.store.value_choices = 12;
  w.ops = 60;
  w.seed = 19;
  w.del_one_in = 6;
  return std::make_unique<KvTarget>(std::move(w));
}

std::unique_ptr<Target> make_sharded_target() {
  KvWorkload w;
  w.name = "sharded-lsmkv";
  w.store = lsmkv_frontend(1);
  w.seed = 13;
  w.batch_one_in = 3;
  return std::make_unique<KvTarget>(std::move(w));
}

std::unique_ptr<Target> make_resilient_target() {
  KvWorkload w;
  w.name = "resilient-lsmkv";
  w.store = lsmkv_frontend(2);
  w.ops = 32;
  w.seed = 29;
  w.poison_at = 10;
  return std::make_unique<KvTarget>(std::move(w));
}

std::vector<std::unique_ptr<Target>> all_targets(bool checksums) {
  std::vector<std::unique_ptr<Target>> targets;
  targets.push_back(make_pmemlib_target());
  targets.push_back(make_lsmkv_target(kv::WalMode::kFlex, checksums));
  targets.push_back(make_lsmkv_target(kv::WalMode::kFlex, checksums,
                                      /*group_commit=*/true));
  targets.push_back(make_novafs_target(checksums));
  targets.push_back(make_novafs_target(checksums, /*batch_appends=*/true));
  targets.push_back(make_cmap_target());
  targets.push_back(make_stree_target());
  targets.push_back(make_sharded_target());
  targets.push_back(make_resilient_target());
  return targets;
}

}  // namespace xp::crashmc
