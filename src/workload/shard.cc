#include "workload/shard.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace xp::workload {

std::vector<hw::PmemNamespace*> ShardedStore::make_namespaces(
    hw::Platform& platform, unsigned shards, std::uint64_t bytes_per_shard,
    unsigned socket) {
  std::vector<hw::PmemNamespace*> out;
  out.reserve(shards);
  const unsigned channels = platform.timing().channels_per_socket;
  for (unsigned i = 0; i < shards; ++i)
    out.push_back(
        &platform.optane_ni(bytes_per_shard, socket, i % channels));
  return out;
}

ShardedStore::ShardedStore(std::span<hw::PmemNamespace* const> shard_ns,
                           const ShardOptions& opts)
    : opts_(opts) {
  assert(!shard_ns.empty());
  ns_.assign(shard_ns.begin(), shard_ns.end());
  shards_.reserve(shard_ns.size());
  for (hw::PmemNamespace* ns : shard_ns)
    shards_.push_back(make_store(opts_.kind, *ns, opts_.tuning));
  name_ = std::string("sharded-") + store_kind_name(opts_.kind);
  replicas_ = std::min<unsigned>(std::max(1u, opts_.replicas), shards());
  health_.assign(shards(), ShardHealth::kHealthy);
  read_errors_.assign(shards(), 0);
  owned_.resize(shards());
  pending_.resize(shards());
}

void ShardedStore::create(sim::ThreadCtx& ctx) {
  for (auto& s : shards_) s->create(ctx);
  // Fresh stores: the acked-write registry sees every key from here on,
  // so rebuilds can trust it and skip the durable-keyspace scans.
  registry_complete_ = true;
}

bool ShardedStore::open(sim::ThreadCtx& ctx) {
  bool ok = true;
  for (unsigned p = 0; p < shards(); ++p) {
    bool opened = false;
    const bool threw = !contain_media(*shards_[p], [&](OpResult&) {
                         opened = shards_[p]->open(ctx);
                       }).ok();
    if (threw) ++stats_.media_errors;
    if (opened) continue;
    // A store that threw is quarantined at once, whatever the replication.
    if (threw || replicas_ > 1) start_quarantine(ctx, p);
    if (replicas_ == 1) ok = false;
  }
  // Health is re-derived from media state, not persisted bookkeeping: a
  // restart in the middle of a repair lands back in quarantine via this
  // scrub pass and the rebuild replays idempotently. Gated on replicated
  // mode so the default frontend emits no scrub telemetry.
  if (replicas_ > 1) {
    for (unsigned p = 0; p < shards(); ++p) {
      if (!serving(p)) continue;
      if (!ns_[p]->platform().ars(*ns_[p], 0, ns_[p]->size()).empty())
        start_quarantine(ctx, p);
    }
  }
  return ok;
}

void ShardedStore::emit(sim::Time t, hw::ResilienceEventKind kind,
                        unsigned store) const {
  if (hw::TelemetrySink* sink = ns_[0]->platform().telemetry())
    sink->resilience(kind, t, store);
}

void ShardedStore::start_quarantine(sim::ThreadCtx& ctx, unsigned store) {
  if (health_[store] == ShardHealth::kQuarantined ||
      health_[store] == ShardHealth::kRebuilding)
    return;
  health_[store] = ShardHealth::kQuarantined;
  ++stats_.quarantined;
  emit(ctx.now(), hw::ResilienceEventKind::kQuarantined, store);
  RebuildJob job;
  job.store = store;
  jobs_.push_back(std::move(job));
}

void ShardedStore::quarantine_shard(sim::ThreadCtx& ctx, unsigned i) {
  assert(i < shards());
  start_quarantine(ctx, i);
}

void ShardedStore::note_media_error(sim::ThreadCtx& ctx, unsigned store,
                                    bool is_write) {
  ++stats_.media_errors;
  switch (health_[store]) {
    case ShardHealth::kQuarantined:
      return;
    case ShardHealth::kRebuilding:
      // Fresh damage under repair: restart that store's job from scrub.
      for (RebuildJob& j : jobs_) {
        if (j.store != store) continue;
        j.phase = RebuildJob::Phase::kScrub;
        j.cursor = 0;
      }
      return;
    case ShardHealth::kHealthy:
      health_[store] = ShardHealth::kDegraded;
      ++stats_.degraded;
      emit(ctx.now(), hw::ResilienceEventKind::kDegraded, store);
      [[fallthrough]];
    case ShardHealth::kDegraded:
      ++read_errors_[store];
      if (is_write || read_errors_[store] >= opts_.quarantine_after)
        start_quarantine(ctx, store);
      return;
  }
}

bool ShardedStore::all_healthy() const {
  for (ShardHealth h : health_)
    if (h != ShardHealth::kHealthy) return false;
  return true;
}

bool ShardedStore::last_copy(unsigned store) const {
  for (unsigned r = 0; r < replicas_; ++r)
    if (live_source((store + shards() - r) % shards(), store) >= 0)
      return false;
  return true;
}

int ShardedStore::live_source(unsigned logical, unsigned except) const {
  for (unsigned r = 0; r < replicas_; ++r) {
    const unsigned q = copy_store(logical, r);
    if (q != except && serving(q)) return static_cast<int>(q);
  }
  return -1;
}

template <typename Fn>
OpResult ShardedStore::with_retries(sim::ThreadCtx& ctx, Fn&& once) {
  const sim::Time start = ctx.now();
  sim::Time backoff = kRetryBackoff;
  for (unsigned attempt = 0;; ++attempt) {
    OpResult r = once();
    r.retries = attempt;
    if (r.status != OpStatus::kUnavailable) return r;
    const bool budget_left = attempt < opts_.max_retries &&
                             ctx.now() - start + backoff <= kOpDeadline;
    if (!budget_left) {
      ++stats_.unavailable;
      emit(ctx.now(), hw::ResilienceEventKind::kUnavailable,
           hw::kResilienceNoShard);
      return r;
    }
    ++stats_.retries;
    emit(ctx.now(), hw::ResilienceEventKind::kRetry, hw::kResilienceNoShard);
    // Make the wait useful: one donated rebuild step per backoff round.
    rebuild_step(ctx);
    ctx.advance_by(backoff);
    backoff *= 2;
  }
}

template <typename Fn>
bool ShardedStore::call_store(sim::ThreadCtx& ctx, unsigned p, bool is_write,
                              Fn&& fn) {
  const OpResult r = contain_media(*shards_[p], [&](OpResult&) {
    if (is_write) {
      LaneGuard lane(ctx, p);
      fn(*shards_[p]);
    } else {
      fn(*shards_[p]);
    }
  });
  if (r.ok()) return true;
  note_media_error(ctx, p, is_write);
  return false;
}

namespace {
std::string_view key_of(std::string_view key) { return key; }
std::string_view key_of(const BatchOp& op) { return op.key; }
}  // namespace

template <typename Keys, typename Fn>
unsigned ShardedStore::write_copies(sim::ThreadCtx& ctx, unsigned s,
                                    const Keys& keys, Fn&& write) {
  unsigned applied = 0;
  for (unsigned r = 0; r < replicas_; ++r) {
    const unsigned p = copy_store(s, r);
    // A copy whose write threw may be half-applied; the write-path
    // quarantine pulls it for rebuild, so the partial state is never read.
    if (serving(p) && call_store(ctx, p, /*is_write=*/true, write)) {
      ++applied;
    } else if (replicas_ > 1) {
      for (const auto& k : keys) pending_[p].insert(std::string(key_of(k)));
    }
  }
  return applied;
}

OpResult ShardedStore::put_once(sim::ThreadCtx& ctx, std::string_view key,
                                std::string_view value) {
  const unsigned s = shard_of(key, shards());
  OpResult res;
  if (write_copies(ctx, s, std::span(&key, 1),
                   [&](StoreIface& st) { st.put(ctx, key, value); }) == 0) {
    // Nothing durable anywhere: the op is NOT acknowledged. Retryable —
    // a rebuild may bring a copy back within the deadline budget.
    res.status = OpStatus::kUnavailable;
    return res;
  }
  owned_[s].insert(std::string(key));
  if (!lost_.empty()) lost_.erase(std::string(key));
  return res;
}

OpResult ShardedStore::get_once(sim::ThreadCtx& ctx, std::string_view key,
                                std::string* value) {
  const unsigned s = shard_of(key, shards());
  bool errored = false;
  for (unsigned r = 0; r < replicas_; ++r) {
    const unsigned p = copy_store(s, r);
    if (!serving(p)) continue;
    bool hit = false;
    if (!call_store(ctx, p, /*is_write=*/false, [&](StoreIface& st) {
          hit = st.get(ctx, key, value);
        })) {
      errored = true;
      continue;
    }
    OpResult res;
    if (r > 0) {
      res.failover = true;
      ++stats_.failover_reads;
      emit(ctx.now(), hw::ResilienceEventKind::kFailoverRead, p);
    }
    if (!hit)
      res.status = (!lost_.empty() && lost_.count(std::string(key)) != 0)
                       ? OpStatus::kDataLoss
                       : OpStatus::kNotFound;
    return res;
  }
  OpResult res;
  // Every copy threw: the media failed now — typed, final for this op.
  // No copy was even serving: transient, worth a bounded retry.
  res.status = errored ? OpStatus::kMediaError : OpStatus::kUnavailable;
  return res;
}

OpResult ShardedStore::del_once(sim::ThreadCtx& ctx, std::string_view key,
                                bool* found) {
  const unsigned s = shard_of(key, shards());
  std::optional<bool> f;  // the first copy's answer
  OpResult res;
  if (write_copies(ctx, s, std::span(&key, 1), [&](StoreIface& st) {
        const bool fr = st.del(ctx, key);
        if (!f) f = fr;
      }) == 0) {
    res.status = OpStatus::kUnavailable;
    return res;
  }
  if (found != nullptr) *found = *f;
  owned_[s].erase(std::string(key));
  if (!lost_.empty()) lost_.erase(std::string(key));
  if (!*f && del_reports_found()) res.status = OpStatus::kNotFound;
  return res;
}

OpResult ShardedStore::try_put(sim::ThreadCtx& ctx, std::string_view key,
                               std::string_view value) {
  return with_retries(ctx,
                      [&] { return put_once(ctx, key, value); });
}

OpResult ShardedStore::try_get(sim::ThreadCtx& ctx, std::string_view key,
                               std::string* value) {
  return with_retries(ctx, [&] { return get_once(ctx, key, value); });
}

OpResult ShardedStore::try_del(sim::ThreadCtx& ctx, std::string_view key,
                               bool* found) {
  return with_retries(ctx, [&] { return del_once(ctx, key, found); });
}

std::vector<std::pair<std::string, std::string>> ShardedStore::scan_copy(
    sim::ThreadCtx& ctx, unsigned p, unsigned s, std::string_view start,
    std::size_t n) {
  // A physical store co-hosts replicas_ logical shards' copies, so a
  // scan capped at n can fill up with co-hosted shards' smaller keys
  // and crowd the target shard's rows out. Resume just past the last
  // key seen until n target-shard rows are in hand or the store is
  // exhausted — the cap never silently drops the target shard's rows.
  std::vector<std::pair<std::string, std::string>> rows;
  const std::size_t chunk =
      n >= static_cast<std::size_t>(-1) / replicas_ ? n : n * replicas_;
  std::string cursor(start);
  while (rows.size() < n) {
    auto part = shards_[p]->scan(ctx, cursor, chunk);
    const bool exhausted = part.size() < chunk;
    if (!part.empty()) {
      cursor = part.back().first;
      cursor.push_back('\0');  // smallest key strictly after the last row
    }
    for (auto& kv : part)
      if (rows.size() < n && shard_of(kv.first, shards()) == s)
        rows.push_back(std::move(kv));
    if (exhausted) break;
  }
  return rows;
}

OpResult ShardedStore::try_scan(
    sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
    std::vector<std::pair<std::string, std::string>>* out) {
  // Each logical shard's slice comes from its first serving copy,
  // failing over like a point read; a shard with no readable copy makes
  // the scan partial, reported as a typed error (never silently short).
  out->clear();
  bool errored = false;
  bool missing = false;
  for (unsigned s = 0; s < shards(); ++s) {
    bool done = false;
    for (unsigned r = 0; r < replicas_ && !done; ++r) {
      const unsigned p = copy_store(s, r);
      if (!serving(p)) continue;
      std::vector<std::pair<std::string, std::string>> part;
      if (!call_store(ctx, p, /*is_write=*/false, [&](StoreIface&) {
            part = scan_copy(ctx, p, s, start, n);
          })) {
        errored = true;
        continue;
      }
      if (r > 0) {
        ++stats_.failover_reads;
        emit(ctx.now(), hw::ResilienceEventKind::kFailoverRead, p);
      }
      out->insert(out->end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
      done = true;
    }
    if (!done) missing = true;
  }
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (out->size() > n) out->resize(n);
  OpResult res;
  if (missing) res.status = errored ? OpStatus::kMediaError
                                    : OpStatus::kUnavailable;
  return res;
}

OpResult ShardedStore::try_apply_batch(sim::ThreadCtx& ctx,
                                       std::span<const BatchOp> ops) {
  std::vector<std::vector<BatchOp>> groups(shards());
  for (const BatchOp& op : ops)
    groups[shard_of(op.key, shards())].push_back(op);
  bool unavailable = false;
  for (unsigned s = 0; s < shards(); ++s) {
    if (groups[s].empty()) continue;
    if (write_copies(ctx, s, groups[s], [&](StoreIface& st) {
          st.apply_batch(ctx, groups[s]);
        }) == 0) {
      unavailable = true;
    } else {
      for (const BatchOp& op : groups[s]) {
        if (op.del)
          owned_[s].erase(op.key);
        else
          owned_[s].insert(op.key);
        if (!lost_.empty()) lost_.erase(op.key);
      }
    }
  }
  OpResult res;
  // Per-shard groups are all-or-nothing per copy; a group no copy took
  // is reported (and not acknowledged). Batches are not auto-retried —
  // the ops are idempotent, so the caller may simply resubmit.
  if (unavailable) res.status = OpStatus::kUnavailable;
  return res;
}

void ShardedStore::flush_pending(sim::ThreadCtx& ctx) {
  for (unsigned s = 0; s < shards(); ++s)
    if (serving(s))
      call_store(ctx, s, /*is_write=*/true,
                 [&](StoreIface& st) { st.flush_pending(ctx); });
}

std::vector<std::string> ShardedStore::hosted_keys(sim::ThreadCtx& ctx,
                                                   unsigned store) {
  std::set<std::string> keys;
  // Logical shards with a copy on `store`.
  std::vector<bool> hosted(shards(), false);
  for (unsigned r = 0; r < replicas_; ++r)
    hosted[(store + shards() - r) % shards()] = true;
  // In-run registry: complete by construction when this frontend
  // create()d the stores (every acked write registers), and the cheap
  // path — no scans competing with live traffic for the DIMMs.
  for (unsigned s = 0; s < shards(); ++s)
    if (hosted[s]) keys.insert(owned_[s].begin(), owned_[s].end());
  // After open() over pre-existing data the registry misses everything
  // written before the restart, so fall back to scanning the healthy
  // copies' durable keyspaces — but only the stores that host a copy of
  // a logical shard this rebuild needs.
  if (!registry_complete_ && shards_[store]->supports_scan()) {
    for (unsigned q = 0; q < shards(); ++q) {
      if (q == store || !serving(q)) continue;
      bool relevant = false;
      for (unsigned r = 0; r < replicas_ && !relevant; ++r)
        relevant = hosted[(q + shards() - r) % shards()];
      if (!relevant) continue;
      std::vector<std::pair<std::string, std::string>> rows;
      call_store(ctx, q, /*is_write=*/false, [&](StoreIface& st) {
        rows = st.scan(ctx, "", static_cast<std::size_t>(-1));
      });
      for (auto& kv : rows)
        if (hosted[shard_of(kv.first, shards())]) keys.insert(kv.first);
    }
  }
  keys.insert(pending_[store].begin(), pending_[store].end());
  pending_[store].clear();
  return {keys.begin(), keys.end()};
}

void ShardedStore::enter_resilver(sim::ThreadCtx& ctx, RebuildJob& job) {
  job.phase = RebuildJob::Phase::kResilver;
  job.vqueue.clear();
  auto keys = hosted_keys(ctx, job.store);
  job.queue.assign(keys.begin(), keys.end());
}

void ShardedStore::enter_verify(sim::ThreadCtx& ctx, RebuildJob& job) {
  (void)ctx;
  job.phase = RebuildJob::Phase::kVerify;
  job.cursor = 0;
}

bool ShardedStore::rebuild_step(sim::ThreadCtx& ctx) {
  if (jobs_.empty()) return false;
  RebuildJob& job = jobs_.front();
  const unsigned p = job.store;
  if (health_[p] == ShardHealth::kQuarantined) {
    health_[p] = ShardHealth::kRebuilding;
    ++stats_.rebuilding;
    emit(ctx.now(), hw::ResilienceEventKind::kRebuilding, p);
  }
  try {
    switch (job.phase) {
      case RebuildJob::Phase::kScrub: {
        job.bad_lines = ns_[p]->platform().ars(*ns_[p], 0, ns_[p]->size());
        job.cursor = 0;
        job.phase = RebuildJob::Phase::kHeal;
        return true;
      }
      case RebuildJob::Phase::kHeal: {
        // A full-XPLine ntstore clears poison (§2.1); contents become
        // zeros, and the reformat/salvage below re-derives consistency.
        const std::uint8_t zeros[hw::Platform::kXpLineBytes] = {};
        LaneGuard lane(ctx, p);
        for (unsigned n = 0; job.cursor < job.bad_lines.size() &&
                             n < kHealLinesPerTurn;
             ++n, ++job.cursor) {
          ns_[p]->ntstore_persist(ctx, job.bad_lines[job.cursor],
                                  {zeros, sizeof zeros});
          ++stats_.lines_healed;
        }
        // The last copy of everything it hosts is salvaged in place:
        // reformatting it would have nothing to re-silver from.
        if (job.cursor >= job.bad_lines.size())
          job.phase = replicas_ > 1 && !last_copy(p)
                          ? RebuildJob::Phase::kReformat
                          : RebuildJob::Phase::kSalvage;
        return true;
      }
      case RebuildJob::Phase::kReformat: {
        shards_[p] = make_store(opts_.kind, *ns_[p], opts_.tuning);
        LaneGuard lane(ctx, p);
        shards_[p]->create(ctx);
        enter_resilver(ctx, job);
        return true;
      }
      case RebuildJob::Phase::kResilver: {
        // Writes that arrived since the snapshot.
        for (const std::string& k : pending_[p]) job.queue.push_back(k);
        pending_[p].clear();
        for (unsigned n = 0;
             !job.queue.empty() && n < kResilverKeysPerTurn; ++n) {
          const std::string key = std::move(job.queue.front());
          job.queue.pop_front();
          const unsigned logical = shard_of(key, shards());
          const int src = live_source(logical, p);
          if (src < 0) {
            // No surviving copy: bounded, *typed* loss (kDataLoss reads).
            ++stats_.keys_lost;
            lost_.insert(key);
            continue;
          }
          std::string v;
          bool hit = false;
          if (!call_store(ctx, static_cast<unsigned>(src), /*is_write=*/false,
                          [&](StoreIface& st) { hit = st.get(ctx, key, &v); })) {
            // The *source* is failing, not the rebuild: call_store accounts
            // it there; retry this key against whichever source remains.
            job.queue.push_back(key);
            continue;
          }
          LaneGuard lane(ctx, p);
          if (hit) {
            shards_[p]->put(ctx, key, v);
            ++stats_.keys_resilvered;
            emit(ctx.now(), hw::ResilienceEventKind::kResilverKey, p);
            job.vqueue.push_back(key);
          } else {
            // Deleted (or tombstoned) since the snapshot: mirror that.
            shards_[p]->del(ctx, key);
          }
        }
        if (job.queue.empty() && pending_[p].empty()) enter_verify(ctx, job);
        return true;
      }
      case RebuildJob::Phase::kVerify: {
        if (!pending_[p].empty()) {
          // Late writes: top up before declaring the copy whole.
          job.phase = RebuildJob::Phase::kResilver;
          return true;
        }
        for (unsigned n = 0; job.cursor < job.vqueue.size() &&
                             n < kHealLinesPerTurn;
             ++n) {
          const std::string& key = job.vqueue[job.cursor];
          const int src = live_source(shard_of(key, shards()), p);
          if (src >= 0) {
            std::string mine, theirs;
            const bool ha = shards_[p]->get(ctx, key, &mine);
            bool hb = false;
            if (!call_store(ctx, static_cast<unsigned>(src),
                            /*is_write=*/false, [&](StoreIface& st) {
                              hb = st.get(ctx, key, &theirs);
                            }))
              continue;  // same cursor, different source next turn
            if (hb && (!ha || mine != theirs)) {
              ++stats_.verify_mismatches;
              LaneGuard lane(ctx, p);
              shards_[p]->put(ctx, key, theirs);
            } else if (!hb && ha) {
              ++stats_.verify_mismatches;
              LaneGuard lane(ctx, p);
              shards_[p]->del(ctx, key);
            }
          }
          ++job.cursor;
        }
        if (job.cursor >= job.vqueue.size() && pending_[p].empty()) {
          {
            LaneGuard lane(ctx, p);
            shards_[p]->flush_pending(ctx);
          }
          health_[p] = ShardHealth::kHealthy;
          read_errors_[p] = 0;
          ++stats_.recovered;
          emit(ctx.now(), hw::ResilienceEventKind::kRecovered, p);
          jobs_.pop_front();
        }
        return true;
      }
      case RebuildJob::Phase::kSalvage: {
        // Single copy: the lines are healed (zeroed); reopen in place and
        // let the family's redundant metadata (lsmkv RecoveryInfo, pool
        // backups) salvage what it can. Unsalvageable state is
        // reformatted empty — bounded loss, never garbage.
        shards_[p] = make_store(opts_.kind, *ns_[p], opts_.tuning);
        bool usable = false;
        {
          LaneGuard lane(ctx, p);
          if (shards_[p]->open(ctx)) {
            // DataLoss is a consistent store minus what it reported
            // dropped: usable, and the probe below types the loss.
            const Status st = shards_[p]->repair_media(ctx);
            usable = st.ok() || st.code() == ErrorCode::kDataLoss;
          }
        }
        if (!usable) {
          shards_[p] = make_store(opts_.kind, *ns_[p], opts_.tuning);
          LaneGuard lane(ctx, p);
          shards_[p]->create(ctx);
        }
        // Typed loss accounting: any registered key the salvage failed
        // to bring back reads kDataLoss, never a silent kNotFound. The
        // registry only covers keys acked through this frontend (after
        // open() over pre-existing data coverage narrows, never lies).
        for (unsigned r = 0; r < replicas_; ++r) {
          for (const std::string& k : owned_[(p + shards() - r) % shards()]) {
            std::string v;
            // insert().second guards the counter: fresh damage mid-probe
            // restarts salvage, which must not double-count a key.
            if (!shards_[p]->get(ctx, k, &v) && lost_.insert(k).second)
              ++stats_.keys_lost;
          }
        }
        health_[p] = ShardHealth::kHealthy;
        read_errors_[p] = 0;
        ++stats_.recovered;
        emit(ctx.now(), hw::ResilienceEventKind::kRecovered, p);
        jobs_.pop_front();
        return true;
      }
    }
  } catch (const hw::MediaError&) {
    if (ns_[p]->platform().frozen()) throw;
    // Fresh damage on the store under repair: start over from scrub.
    ++stats_.media_errors;
    job.phase = RebuildJob::Phase::kScrub;
    job.cursor = 0;
    return true;
  }
  return true;
}

bool ShardedStore::background_turn(sim::ThreadCtx& ctx) {
  if (!jobs_.empty()) return rebuild_step(ctx);
  for (unsigned i = 0; i < shards(); ++i) {
    const unsigned s = (rr_ + i) % shards();
    if (!serving(s)) continue;
    bool worked = false;
    // Compaction that trips on poison pulls the shard for rebuild.
    if (!call_store(ctx, s, /*is_write=*/true, [&](StoreIface& st) {
          worked = st.background_turn(ctx);
        }))
      return true;
    if (worked) {
      rr_ = (s + 1) % shards();
      return true;
    }
  }
  return false;
}

Status ShardedStore::repair_media(sim::ThreadCtx& ctx) {
  Status out;
  for (unsigned s = 0; s < shards(); ++s) {
    if (!serving(s)) continue;  // its rebuild re-derives it
    Status st;
    if (!call_store(ctx, s, /*is_write=*/true,
                    [&](StoreIface& x) { st = x.repair_media(ctx); }))
      st = Status::MediaFault("media error during repair");
    // A hard failure outranks DataLoss: the store is not consistent.
    if (!st.ok() && (out.ok() || out.code() == ErrorCode::kDataLoss))
      out = st;
  }
  return out;
}

Status ShardedStore::check(sim::ThreadCtx& ctx) {
  for (unsigned s = 0; s < shards(); ++s) {
    if (!serving(s)) continue;  // transitional by construction
    Status st;
    if (!call_store(ctx, s, /*is_write=*/false,
                    [&](StoreIface& x) { st = x.check(ctx); }))
      return Status::MediaFault("media error during check");
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace xp::workload
