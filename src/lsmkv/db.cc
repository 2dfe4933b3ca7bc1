#include "lsmkv/db.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>

#include "pmemlib/pmem_ops.h"

namespace xp::kv {

Db::Manifest Db::load_manifest(sim::ThreadCtx& ctx) {
  // Under read_combine the manifest is mirrored in DRAM: every
  // modification goes through store_manifest() in-process, so the mirror
  // is always the committed manifest and point lookups skip a ~560 B PM
  // load. (Recovery paths run before the mirror exists and read PM.)
  if (manifest_cache_.has_value()) return *manifest_cache_;
  return pool_.ns().load_pod<Manifest>(ctx, root_off_);
}

void Db::store_manifest(sim::ThreadCtx& ctx, pmem::Tx& tx,
                        const Manifest& m) {
  if (manifest_cache_.has_value()) *manifest_cache_ = m;
  tx.add(root_off_, sizeof(Manifest));
  tx.store(root_off_, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(&m),
                          sizeof(m)));
  mirror_manifest(m);
  (void)ctx;
}

void Db::mirror_manifest(const Manifest& m) {
  pool_.ns().poke(kManifestBackupOff,
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(&m), sizeof(m)));
}

void Db::create(sim::ThreadCtx& ctx) {
  // A volatile memtable needs a WAL for durability; a persistent memtable
  // needs none.
  assert((opts_.wal == WalMode::kNone) ==
         (opts_.memtable == MemtableMode::kPersistent));
  pool_.create(ctx, sizeof(Manifest));
  root_off_ = pool_.root(ctx);

  Manifest m{};
  m.wal_mode = static_cast<std::uint32_t>(opts_.wal);
  m.memtable_mode = static_cast<std::uint32_t>(opts_.memtable);
  m.flags = opts_.wal_checksum ? 1u : 0u;
  if (opts_.wal != WalMode::kNone) {
    m.wal_base = pool_.alloc_raw(ctx, opts_.wal_capacity);
    m.wal_capacity = opts_.wal_capacity;
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    m.pskiplist_root = pool_.alloc_raw(ctx, 64);
  }
  mirror_manifest(m);
  pmem::store_persist_pod(ctx, pool_.ns(), root_off_, m);

  if (opts_.wal != WalMode::kNone) {
    wal_ = std::make_unique<Wal>(pool_.ns(), m.wal_base, m.wal_capacity,
                                 opts_.wal, opts_);
    wal_->truncate(ctx);
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_ = std::make_unique<PSkiplist>(pool_, m.pskiplist_root);
    pskip_->create(ctx);
  }
  init_read_path(m);
}

void Db::init_read_path(const Manifest& m) {
  residency_.clear();
  manifest_cache_.reset();
  pmem::reset_read_path(reader_, rcache_, pool_.ns(),
                        opts_.read_combine ? opts_.read_cache_lines : 0);
  if (opts_.read_combine) manifest_cache_ = m;
}

void Db::prune_residency(const Manifest& m) {
  reader_.discard();
  if (residency_.empty()) return;
  auto live = [&](std::uint64_t off) {
    for (std::uint32_t i = 0; i < m.n_l0; ++i)
      if (m.l0[i].off == off) return true;
    for (std::uint32_t i = 0; i < m.n_l1; ++i)
      if (m.l1[i].off == off) return true;
    return false;
  };
  for (auto it = residency_.begin(); it != residency_.end();) {
    it = live(it->first) ? std::next(it) : residency_.erase(it);
  }
}

FindResult Db::get_table(sim::ThreadCtx& ctx, std::uint64_t table_off,
                         std::string_view key, std::string* value) {
  if (!opts_.read_combine)
    return SsTable::get(ctx, pool_.ns(), table_off, key, value,
                        &key_scratch_);
  // Flush and compaction build a table's residency from the bytes they
  // wrote; a table recovered by open() loads it at its first probe.
  auto it = residency_.find(table_off);
  if (it == residency_.end())
    it = residency_
             .emplace(table_off,
                      SsTable::load_residency(ctx, pool_.ns(), table_off))
             .first;
  return SsTable::get_ex(ctx, pool_.ns(), table_off, key, value, it->second,
                         reader_);
}

Db::Manifest Db::backup_manifest() {
  return pool_.ns().peek_pod<Manifest>(kManifestBackupOff);
}

void Db::restore_manifest(sim::ThreadCtx& ctx, const Manifest& m,
                          const std::vector<std::uint64_t>& bad) {
  for (const std::uint64_t line : bad) pool_.scrub_line(ctx, line);
  pmem::store_persist_pod(ctx, pool_.ns(), root_off_, m);
  recovery_.manifest_restored = true;
}

std::string Db::manifest_error(sim::ThreadCtx& ctx, const Manifest& m) {
  if (m.wal_mode > static_cast<std::uint32_t>(WalMode::kNone))
    return "manifest: bad wal_mode " + std::to_string(m.wal_mode);
  if (m.memtable_mode > static_cast<std::uint32_t>(MemtableMode::kPersistent))
    return "manifest: bad memtable_mode " + std::to_string(m.memtable_mode);
  if (m.n_l0 > kMaxL0 || m.n_l1 > kMaxL1)
    return "manifest: run counts out of range";

  const std::uint64_t heap_lo = pmem::Pool::heap_base();
  const std::uint64_t heap_hi = pool_.heap_top(ctx);
  if (static_cast<WalMode>(m.wal_mode) != WalMode::kNone &&
      (m.wal_base < heap_lo || m.wal_base + m.wal_capacity > heap_hi))
    return "manifest: WAL region outside allocated heap";
  auto outside = [&](const TableRef& t) {
    return t.size == 0 || t.off < heap_lo || t.off + t.size > heap_hi;
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    if (outside(m.l0[i]))
      return "l0[" + std::to_string(i) + "]: ref outside allocated heap";
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    if (outside(m.l1[i]))
      return "l1[" + std::to_string(i) + "]: ref outside allocated heap";
  return "";
}

bool Db::open(sim::ThreadCtx& ctx) {
  recovery_ = RecoveryInfo{};
  if (!pool_.open(ctx)) return false;
  root_off_ = pool_.root(ctx);
  Manifest m{};
  bool primary_ok = false;
  try {
    m = load_manifest(ctx);
    primary_ok = manifest_error(ctx, m).empty();
  } catch (const hw::MediaError&) {
    // unreadable: primary_ok stays false
  }
  if (!primary_ok) {
    // Primary manifest unreadable, or not a manifest (a scrub zeroes a
    // poisoned line): fall back to the copy every store_manifest mirrors
    // into the backup slot, scrub the damage and rewrite the primary.
    m = backup_manifest();
    if (!manifest_error(ctx, m).empty())
      return false;  // backup is not a manifest either
    restore_manifest(
        ctx, m,
        pool_.ns().platform().ars(pool_.ns(), root_off_, sizeof(Manifest)));
    recovery_.detail = "manifest restored from backup copy";
  }
  // A crash inside a commit can leave the mirror one manifest ahead of the
  // primary the pool rolled back (store_manifest writes it before
  // tx.commit()), so re-mirror the recovered one before anything needs it.
  mirror_manifest(m);
  opts_.wal = static_cast<WalMode>(m.wal_mode);
  opts_.memtable = static_cast<MemtableMode>(m.memtable_mode);
  opts_.wal_checksum = (m.flags & 1u) != 0;
  // open() reads no SSTable: recovered tables load their residency at
  // their first probe (get_table), so a damaged one is left to
  // check()/repair(). A flush during WAL replay keeps the mirror current
  // through store_manifest.
  init_read_path(m);
  // The deferred-compaction flag is volatile; re-derive the debt from the
  // recovered manifest so a crash between schedule and merge is harmless.
  compaction_pending_ =
      opts_.background_compaction && m.n_l0 >= opts_.l0_compaction_trigger;

  memtable_.clear();
  pending_.clear();
  if (opts_.wal != WalMode::kNone) {
    wal_ = std::make_unique<Wal>(pool_.ns(), m.wal_base, m.wal_capacity,
                                 opts_.wal, opts_);
    const Wal::ReplayResult r =
        wal_->replay(ctx, [&](std::string_view k, std::string_view v,
                              bool tomb) { memtable_.put(ctx, k, v, tomb); });
    if (r.damaged) {
      // Truncate at the damage point. Records replayed before it are made
      // durable again by flushing to an SSTable; records after it are
      // unrecoverable and reported, not silently absorbed.
      recovery_.wal_damaged = true;
      recovery_.wal_damage_off = r.damage_off;
      recovery_.wal_records_replayed = r.records;
      recovery_.detail = r.reason;
      if (pool_.recovery().heap_sealed) {
        // No allocation possible: keep the replayed records in the
        // memtable (still served) and flag that they are volatile-only.
        recovery_.wal_flush_skipped = true;
      } else {
        flush(ctx);
      }
      for (const std::uint64_t bad :
           pool_.ns().platform().ars(pool_.ns(), m.wal_base, m.wal_capacity))
        pool_.scrub_line(ctx, bad);
      wal_->truncate(ctx);
    }
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_ = std::make_unique<PSkiplist>(pool_, m.pskiplist_root);
    pskip_->open(ctx);
    pskip_bytes_ = pskip_->footprint(ctx).bytes;
  }
  return true;
}

void Db::write_record(sim::ThreadCtx& ctx, std::string_view key,
                      std::string_view value, bool tombstone) {
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_->put(ctx, key, value, tombstone);
    pskip_bytes_ += key.size() + value.size();
  } else if (opts_.wal_group_commit) {
    // Leader/follower group commit: buffer the record (already readable
    // through the memtable) and let the write that fills the group commit
    // the whole burst. Durability is acknowledged at group boundaries.
    // The record is readable (memtable) before it is durable (group WAL
    // burst) — the leader/follower handoff edge the schedule explorer
    // perturbs and the crash-mode linearizability oracle checks.
    ctx.sched_point(sim::SchedPoint::kHandoff);
    pending_.push_back({std::string(key), std::string(value), tombstone});
    memtable_.put(ctx, key, value, tombstone);
    if (pending_.size() >= opts_.wal_group_size) commit_pending(ctx);
  } else {
    wal_->append(ctx, key, value, tombstone);
    memtable_.put(ctx, key, value, tombstone);
  }
  maybe_flush(ctx);
}

void Db::commit_pending(sim::ThreadCtx& ctx) {
  if (pending_.empty()) return;
  ctx.sched_point(sim::SchedPoint::kHandoff);
  std::vector<WalRecord> recs;
  recs.reserve(pending_.size());
  for (const PendingRec& p : pending_)
    recs.push_back({p.key, p.value, p.tombstone});
  wal_->append_group(ctx, recs);
  pending_.clear();
}

void Db::put_batch(sim::ThreadCtx& ctx, std::span<const WalRecord> recs) {
  if (recs.empty()) return;
  if (opts_.memtable == MemtableMode::kPersistent) {
    // No WAL to group; fall back to per-record persistent-memtable writes.
    for (const WalRecord& r : recs) {
      pskip_->put(ctx, r.key, r.value, r.tombstone);
      pskip_bytes_ += r.key.size() + r.value.size();
    }
    maybe_flush(ctx);
    return;
  }
  // Earlier buffered singles commit first so WAL order matches op order.
  commit_pending(ctx);
  wal_->append_group(ctx, recs);
  for (const WalRecord& r : recs)
    memtable_.put(ctx, r.key, r.value, r.tombstone);
  maybe_flush(ctx);
}

void Db::put(sim::ThreadCtx& ctx, std::string_view key,
             std::string_view value) {
  write_record(ctx, key, value, /*tombstone=*/false);
}

void Db::del(sim::ThreadCtx& ctx, std::string_view key) {
  write_record(ctx, key, {}, /*tombstone=*/true);
}

bool Db::get(sim::ThreadCtx& ctx, std::string_view key, std::string* value) {
  FindResult r = opts_.memtable == MemtableMode::kPersistent
                     ? pskip_->get(ctx, key, value)
                     : memtable_.get(ctx, key, value);
  if (r != FindResult::kNotFound) return r == FindResult::kFound;

  const Manifest m = load_manifest(ctx);
  // L0: newest (highest index) first.
  for (std::uint32_t i = m.n_l0; i-- > 0;) {
    r = get_table(ctx, m.l0[i].off, key, value);
    if (r != FindResult::kNotFound) return r == FindResult::kFound;
  }
  for (std::uint32_t i = m.n_l1; i-- > 0;) {
    r = get_table(ctx, m.l1[i].off, key, value);
    if (r != FindResult::kNotFound) return r == FindResult::kFound;
  }
  return false;
}

std::vector<SsTable::Entry> Db::memtable_rows(sim::ThreadCtx& ctx,
                                              std::string_view start,
                                              std::size_t max_live) {
  std::vector<SsTable::Entry> rows;
  std::size_t live = 0;
  auto take = [&](std::string_view k, std::string_view v, bool tomb) {
    rows.push_back({std::string(k), std::string(v), tomb});
    if (!tomb) ++live;
    return live < max_live;
  };
  if (opts_.memtable == MemtableMode::kPersistent)
    pskip_->for_each_from(ctx, start, take);
  else
    memtable_.for_each_from(start, take);
  return rows;
}

void Db::merge(sim::ThreadCtx& ctx, const Manifest& m, std::uint32_t l1_from,
               std::string_view start, const std::vector<SsTable::Entry>& mem,
               const MergeFn& emit) {
  std::vector<SsTable::Cursor> runs;
  runs.reserve(m.n_l0 + m.n_l1 - l1_from);
  for (std::uint32_t i = m.n_l0; i-- > 0;)
    runs.emplace_back(ctx, pool_.ns(), m.l0[i].off, start);
  for (std::uint32_t i = m.n_l1; i-- > l1_from;)
    runs.emplace_back(ctx, pool_.ns(), m.l1[i].off, start);

  // At most 1 + kMaxL0 + kMaxL1 sources, so a linear pick.
  std::size_t next_mem = 0;
  std::string key;
  while (true) {
    const SsTable::Entry* mem_row =
        next_mem < mem.size() ? &mem[next_mem] : nullptr;
    const SsTable::Cursor* win = nullptr;
    for (const SsTable::Cursor& c : runs)
      if (c.valid() && (win == nullptr || c.key() < win->key())) win = &c;
    if (mem_row == nullptr && win == nullptr) return;
    bool more;
    if (mem_row != nullptr && (win == nullptr || mem_row->key <= win->key())) {
      key = mem_row->key;
      more = emit(key, mem_row->value, mem_row->tombstone);
      ++next_mem;
    } else {
      key = win->key();
      more = emit(key, win->value(), win->tombstone());
    }
    if (!more) return;
    for (SsTable::Cursor& c : runs)
      if (c.valid() && c.key() == key) c.next(ctx);
  }
}

std::vector<std::pair<std::string, std::string>> Db::scan(
    sim::ThreadCtx& ctx, std::string_view start_key,
    std::size_t max_results) {
  std::vector<std::pair<std::string, std::string>> out;
  if (max_results == 0) return out;

  // The memtable is the newest source, so each of its live rows wins its
  // key: no row past its max_results-th live one can be returned.
  const std::vector<SsTable::Entry> mem =
      memtable_rows(ctx, start_key, max_results);
  if (opts_.memtable != MemtableMode::kPersistent)
    ctx.advance_by(kCpuMemtableOp);
  // Tombstones hide their key and do not count toward max_results.
  merge(ctx, load_manifest(ctx), 0, start_key, mem,
        [&](std::string_view k, std::string_view v, bool tomb) {
          if (!tomb) out.emplace_back(k, v);
          return out.size() < max_results;
        });
  return out;
}

Status Db::check(sim::ThreadCtx& ctx) {
  if (Status s = pool_.check(ctx); !s.ok()) return s;
  return pmem::run_check([&] { return check_impl(ctx); });
}

std::string Db::check_impl(sim::ThreadCtx& ctx) {
  // Judge the primary on PM even under read_combine: a poisoned line
  // throws (MediaFault), and a primary that no longer matches the DRAM
  // mirror the lookups use has lost committed state.
  const Manifest m = pool_.ns().load_pod<Manifest>(ctx, root_off_);
  if (manifest_cache_.has_value() &&
      std::memcmp(&m, &*manifest_cache_, sizeof(Manifest)) != 0)
    return "manifest: primary differs from its DRAM mirror";
  if (std::string err = manifest_error(ctx, m); !err.empty()) return err;

  auto check_table = [&](const char* level, std::uint32_t i,
                         const TableRef& t) -> std::string {
    const std::string tag =
        std::string(level) + "[" + std::to_string(i) + "]";
    if (SsTable::size_bytes(ctx, pool_.ns(), t.off) > t.size)
      return tag + ": encoded size exceeds allocation";
    if (Status s = SsTable::verify_checksum(ctx, pool_.ns(), t.off); !s.ok())
      return tag + ": " + s.to_string();
    std::string prev;
    bool first = true;
    for (SsTable::Cursor c(ctx, pool_.ns(), t.off, ""); c.valid();
         c.next(ctx)) {
      if (!first && c.key() <= prev)
        return tag + ": keys not strictly increasing";
      prev = c.key();
      first = false;
    }
    return "";
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    if (std::string err = check_table("l0", i, m.l0[i]); !err.empty())
      return err;
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    if (std::string err = check_table("l1", i, m.l1[i]); !err.empty())
      return err;
  return "";
}

void Db::repair(sim::ThreadCtx& ctx) {
  // Rewrite a poisoned primary manifest first, from a committed copy (the
  // DRAM mirror under read_combine, else the backup slot): the
  // quarantine transaction below snapshots the primary, and
  // pool_.repair() would zero its poisoned lines.
  if (const std::vector<std::uint64_t> poisoned = pool_.ns().platform().ars(
          pool_.ns(), root_off_, sizeof(Manifest));
      !poisoned.empty()) {
    restore_manifest(ctx, manifest_cache_.value_or(backup_manifest()),
                     poisoned);
    recovery_.detail = "primary manifest rewritten";
  }
  Manifest m = load_manifest(ctx);
  Manifest out = m;
  out.n_l0 = 0;
  out.n_l1 = 0;
  std::vector<TableRef> bad;
  auto sift = [&](const char* level, std::uint32_t i, const TableRef& t,
                  TableRef* keep, std::uint32_t* nkeep) {
    if (SsTable::verify_checksum(ctx, pool_.ns(), t.off).ok()) {
      keep[(*nkeep)++] = t;
    } else {
      recovery_.tables_quarantined.push_back(
          std::string(level) + "[" + std::to_string(i) + "]");
      bad.push_back(t);
    }
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    sift("l0", i, m.l0[i], out.l0, &out.n_l0);
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    sift("l1", i, m.l1[i], out.l1, &out.n_l1);

  if (!bad.empty()) {
    // Drop the quarantined refs first — only then is it safe to scrub,
    // because scrubbing turns a table's poison into zeros a reader would
    // otherwise happily parse.
    pmem::Tx tx(pool_, ctx);
    store_manifest(ctx, tx, out);
    tx.commit();
    prune_residency(out);
  }
  pool_.repair(ctx);
  if (!bad.empty() && !pool_.recovery().heap_sealed) {
    pmem::Tx tx(pool_, ctx);
    for (const TableRef& t : bad) pool_.tx_free(tx, t.off, t.size);
    tx.commit();
  }
  // (Sealed heap: quarantined allocations leak, which is already reported
  // through recovery().tables_quarantined + the pool's heap_sealed flag.)
}

void Db::maybe_flush(sim::ThreadCtx& ctx) {
  const std::uint64_t bytes = opts_.memtable == MemtableMode::kPersistent
                                  ? pskip_bytes_
                                  : memtable_.bytes();
  if (bytes >= opts_.memtable_bytes) flush(ctx);
  // Write-stall admission gate: a writer that finds the deferred-
  // compaction debt at the stall trigger pays the merge inline rather
  // than letting L0 grow toward the manifest's fixed capacity.
  if (compaction_pending_) {
    const Manifest m = load_manifest(ctx);
    // Clamp to the manifest's capacity so a misconfigured trigger can
    // never let L0 overflow the fixed array.
    const unsigned stall_at =
        std::min<unsigned>(opts_.l0_stall_trigger, kMaxL0 - 1);
    if (m.n_l0 >= stall_at) {
      ++stats_.write_stalls;
      background_work(ctx);
    }
  }
}

Db::TableRef Db::write_table(sim::ThreadCtx& ctx, pmem::Tx& tx,
                             const std::vector<SsTable::Entry>& entries) {
  const std::uint64_t size = SsTable::encoded_size(entries);
  const std::uint64_t off = pool_.tx_alloc(tx, size);
  SsTable::Residency res;
  SsTable::build(ctx, pool_.ns(), off, entries, &sst_scratch_,
                 opts_.read_combine ? &res : nullptr);
  if (opts_.read_combine) residency_[off] = std::move(res);
  return TableRef{off, size};
}

void Db::flush(sim::ThreadCtx& ctx) {
  if (opts_.memtable == MemtableMode::kPersistent ? pskip_bytes_ == 0
                                                  : memtable_.empty())
    return;
  const std::vector<SsTable::Entry> entries =
      memtable_rows(ctx, "", static_cast<std::size_t>(-1));
  ++stats_.memtable_flushes;

  Manifest m = load_manifest(ctx);
  assert(m.n_l0 < kMaxL0);
  reader_.discard();
  {
    pmem::Tx tx(pool_, ctx);
    m.l0[m.n_l0++] = write_table(ctx, tx, entries);
    if (opts_.memtable == MemtableMode::kPersistent) {
      // Start a fresh persistent memtable: a new head slot. Nothing frees
      // the old skiplist's head or nodes: each was bumped off the pool's
      // heap top on its own, not carved from an arena a flush could
      // release at once, so every flush leaks them. The new head is
      // initialized before commit so a post-commit crash never exposes an
      // uninitialized root.
      const std::uint64_t new_root = pool_.tx_alloc(tx, 64);
      m.pskiplist_root = new_root;
      store_manifest(ctx, tx, m);
      pskip_ = std::make_unique<PSkiplist>(pool_, new_root);
      pskip_->create(ctx);
    } else {
      store_manifest(ctx, tx, m);
    }
    tx.commit();
  }

  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_bytes_ = 0;
  } else {
    memtable_.clear();
    wal_->truncate(ctx);
    // Buffered-but-uncommitted group records just became durable via the
    // SSTable (they were in the flushed memtable); nothing left to log.
    pending_.clear();
  }

  if (m.n_l0 >= opts_.l0_compaction_trigger) {
    if (opts_.background_compaction)
      compaction_pending_ = true;  // deferred to background_work()
    else
      compact(ctx, m);
  }
}

bool Db::background_work(sim::ThreadCtx& ctx) {
  if (!compaction_pending_) return false;
  compaction_pending_ = false;
  const Manifest m = load_manifest(ctx);
  if (m.n_l0 == 0) return false;  // flushed away in the meantime
  ++stats_.background_compactions;
  compact(ctx, m);
  return true;
}

std::size_t Db::plan_compaction(std::span<const std::uint64_t> l1_sizes,
                                std::uint64_t l0_bytes) {
  std::size_t keep = l1_sizes.size();
  std::uint64_t gathered = l0_bytes;
  while (keep > 0 && l1_sizes[keep - 1] <= kTierRatio * gathered)
    gathered += l1_sizes[--keep];
  // The output joins the kept runs: leave room for the next merge's.
  return std::min<std::size_t>(keep, kMaxL1 - 2);
}

void Db::compact(sim::ThreadCtx& ctx, Manifest m) {
  ++stats_.compactions;
  // Size-tiered: every L0 run merges with the newest L1 runs of
  // comparable size, and the output becomes the newest L1 run. The older,
  // larger runs stay as they are, so their keys' tombstones must survive
  // unless the merge reaches the oldest run.
  std::uint64_t l0_bytes = 0;
  for (std::uint32_t i = 0; i < m.n_l0; ++i) l0_bytes += m.l0[i].size;
  std::uint64_t l1_sizes[kMaxL1];
  for (std::uint32_t i = 0; i < m.n_l1; ++i) l1_sizes[i] = m.l1[i].size;
  const auto keep = static_cast<std::uint32_t>(
      plan_compaction(std::span(l1_sizes, m.n_l1), l0_bytes));

  std::vector<SsTable::Entry> entries;
  merge(ctx, m, keep, "", {},
        [&](std::string_view k, std::string_view v, bool tomb) {
          if (!tomb || keep > 0)
            entries.push_back({std::string(k), std::string(v), tomb});
          return true;
        });

  // The merged runs join the free list only at commit, so the output
  // cannot land on one of them: a crash before the commit leaves them
  // intact for the manifest it rolls back to.
  pmem::Tx tx(pool_, ctx);
  Manifest out = m;
  auto free_run = [&](const TableRef& t) {
    pool_.tx_free(tx, t.off, t.size);
    stats_.compaction_read_bytes += t.size;
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i) free_run(m.l0[i]);
  for (std::uint32_t i = keep; i < m.n_l1; ++i) free_run(m.l1[i]);
  out.n_l0 = 0;
  out.n_l1 = keep;
  if (!entries.empty()) {
    out.l1[out.n_l1++] = write_table(ctx, tx, entries);
    stats_.compaction_write_bytes += out.l1[keep].size;
  }
  store_manifest(ctx, tx, out);
  tx.commit();
  prune_residency(out);
}

}  // namespace xp::kv
