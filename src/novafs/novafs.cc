#include "novafs/novafs.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <set>
#include <unordered_set>

#include "pmemlib/pmem_ops.h"
#include "sim/crc32.h"

namespace xp::nova {

namespace {
using pmem::bytes_of;
constexpr std::uint64_t kPage = NovaFs::kPageSize;
}  // namespace

// ---------------------------------------------------------- format/mount --

void NovaFs::format(ThreadCtx& ctx) {
  // Zero the inode table, then write the superblock last.
  std::vector<std::uint8_t> zeros(kMaxInodes * sizeof(PInode), 0);
  for (std::size_t p = 0; p < zeros.size(); p += 4096) {
    ns_.ntstore(ctx, 4096 + p,
                std::span<const std::uint8_t>(
                    zeros.data() + p, std::min<std::size_t>(
                                          4096, zeros.size() - p)));
  }
  ns_.sfence(ctx);
  Super s{kMagic, ns_.size(), 4096, kDataStart};
  // Backup copy via the management path (untimed — formatting costs what
  // it did without it), primary last so a torn format has no valid super.
  ns_.poke(kSuperBackupOff, bytes_of(&s, sizeof(s)));
  ns_.ntstore_persist(ctx, 0, bytes_of(&s, sizeof(s)));
  recovery_ = RecoveryInfo{};
  init_read_path();

  // DRAM state.
  inodes_.assign(kMaxInodes, DInode{});
  namei_.clear();
  free_pages_.clear();
  free_by_channel_.assign(6, {});
  for (std::uint64_t off = kDataStart; off + kPage <= ns_.size();
       off += kPage)
    free_page(off);

  // Inode 0 is the root directory.
  PInode root{};
  root.in_use = 1;
  ns_.store_persist(ctx, inode_off(0), bytes_of(&root, sizeof(root)));
  inodes_[0].in_use = true;
}

void NovaFs::init_read_path() {
  pmem::reset_read_path(lreader_, rcache_, ns_,
                        opt_.read_combine ? opt_.read_cache_lines : 0);
}

bool NovaFs::mount(ThreadCtx& ctx) {
  recovery_ = RecoveryInfo{};
  init_read_path();
  bool primary_ok = false;
  try {
    primary_ok = super_error(ns_.load_pod<Super>(ctx, 0)) == nullptr;
  } catch (const hw::MediaError&) {
    // unreadable: fall back to the backup copy
  }
  if (!primary_ok) {
    Super b{};
    try {
      b = ns_.load_pod<Super>(ctx, kSuperBackupOff);
    } catch (const hw::MediaError&) {
      return false;  // both copies unreadable: not a mountable fs
    }
    if (super_error(b) != nullptr) return false;
    scrub_line(ctx, 0);
    ns_.store_persist(ctx, 0, bytes_of(&b, sizeof(b)));
    recovery_.super_restored = true;
  }

  inodes_.assign(kMaxInodes, DInode{});
  namei_.clear();
  free_pages_.clear();
  free_by_channel_.assign(6, {});

  // Pass 1: replay every in-use inode's log (rebuilds page maps, sizes,
  // and the directory) and claim its pages by fsck's rule.
  PageOwners pages(*this);
  // Inodes whose replay kept a prefix, with their log pages in link order.
  std::vector<std::pair<unsigned, std::vector<std::uint64_t>>> truncated;
  for (unsigned ino = 0; ino < kMaxInodes; ++ino) {
    PInode pi{};
    try {
      pi = ns_.load_pod<PInode>(ctx, inode_off(ino));
    } catch (const hw::MediaError& e) {
      // The inode-table line is gone, and with it every inode on it
      // (poison granularity is the 256 B line, which holds 4 PInodes).
      // Scrub it — subsequent loads in this loop read zeros and skip.
      const std::uint64_t line = inode_off(ino) & ~std::uint64_t{255};
      scrub_line(ctx, line);
      for (std::uint64_t o = line; o < line + 256; o += sizeof(PInode))
        recovery_.inodes_lost.push_back(
            static_cast<unsigned>((o - 4096) / sizeof(PInode)));
      recovery_.detail = e.what();
      continue;
    }
    if (pi.in_use == 0) continue;
    DInode& di = inodes_[ino];
    di.in_use = true;
    di.log_head = pi.log_head;
    di.log_tail = pi.log_tail;
    const bool kept_prefix = replay_inode(ctx, ino);
    std::vector<std::uint64_t> chain;
    try {
      // Log-page headers were just staged/cached by the replay above, so
      // the combined walk re-serves them from DRAM.
      const std::uint64_t back =
          walk_chain(ctx, di.log_head, opt_.read_combine,
                     [&](std::uint64_t lp) {
                       pages.claim(lp, 'L', ino);
                       chain.push_back(lp);
                       return true;
                     });
      if (back != 0) {
        // The chain links outside the data area or back to a page already
        // walked: end it durably at the page holding that link.
        lreader_.discard();
        pmem::store_persist_pod(ctx, ns_, back, std::uint64_t{0});
        recovery_.detail =
            "log chain links outside the data area or back to a page "
            "already walked";
        report_truncated(ino);
      }
    } catch (const hw::MediaError&) {
      // A link beyond the replayed (truncated) portion is unreadable; the
      // unreachable tail pages stay unclaimed and return to the free pool.
      report_truncated(ino);
    }
    if (kept_prefix)
      truncated.emplace_back(ino, std::move(chain));
    else
      claim_data(pages, ino);  // a clash is fsck's to report
  }

  // A truncated log's kept prefix can name a page that an entry it
  // dropped had freed and another owner reused. So its data pages claim
  // after every other page, and a reference to one already claimed is
  // dropped durably: the log ends at the entry that set it, and the
  // shorter log replays (its earlier page for that offset may clash too).
  // The cut unlinks the log pages past the entry's page, which the chain
  // walk claimed: they are released to the free pool.
  for (auto& [ino, chain] : truncated) {
    DInode& di = inodes_[ino];
    auto clash = [&] {
      return std::find_if(di.pages.begin(), di.pages.end(),
                          [&](const auto& kv) {
                            return kv.second.page_off != 0 &&
                                   pages.claimed(kv.second.page_off);
                          });
    };
    for (auto it = clash(); it != di.pages.end(); it = clash()) {
      const auto cut = std::find(chain.begin(), chain.end(),
                                 it->second.entry_off / kPage * kPage);
      if (cut != chain.end()) {
        for (auto lp = cut + 1; lp != chain.end(); ++lp) pages.release(*lp);
        chain.erase(cut + 1, chain.end());
      }
      truncate_log_at(ctx, ino, it->second.entry_off,
                      "write entry names a page another owner claims");
      di.pages.clear();
      di.size = 0;
      replay_inode(ctx, ino);
      if (recovery_.inodes_damaged.empty() ||
          recovery_.inodes_damaged.back() != ino)
        recovery_.inodes_damaged.push_back(ino);
    }
    claim_data(pages, ino);
  }

  // Dirents can name inodes whose table line was lost: drop them (and
  // report), rather than serving a zeroed inode as an empty file.
  if (!recovery_.inodes_lost.empty()) {
    const std::set<unsigned> lost(recovery_.inodes_lost.begin(),
                                  recovery_.inodes_lost.end());
    for (auto it = namei_.begin(); it != namei_.end();) {
      if (lost.count(static_cast<unsigned>(it->second)) != 0) {
        recovery_.dirents_dropped.push_back(it->first);
        inodes_[static_cast<unsigned>(it->second)] = DInode{};
        it = namei_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Damaged mounts scrub every bad line *outside* live pages now, so the
  // allocator can never hand out a page that still bites. Bad lines
  // inside live data stay poisoned (reads raise MediaError) until
  // repair() excises them.
  if (recovery_.damaged()) {
    for (const std::uint64_t bad : ns_.platform().ars(ns_, 0, ns_.size()))
      if (!pages.claimed(bad / kPage * kPage)) scrub_line(ctx, bad);
  }

  // Pass 2: rebuild the free-page pool from the unclaimed pages.
  for (std::size_t i = pages.count(); i-- > 0;) {
    const std::uint64_t off = kDataStart + i * kPage;
    if (!pages.claimed(off)) free_page(off);
  }
  return true;
}

// ------------------------------------------------------------- allocator --

std::uint64_t NovaFs::alloc_page(ThreadCtx& ctx) {
  if (opt_.alloc == AllocPolicy::kPinned) {
    auto& mine = free_by_channel_[ctx.id() % free_by_channel_.size()];
    if (!mine.empty()) {
      const std::uint64_t off = mine.back();
      mine.pop_back();
      return off;
    }
    // Fall back to any channel.
    for (auto& list : free_by_channel_) {
      if (!list.empty()) {
        const std::uint64_t off = list.back();
        list.pop_back();
        return off;
      }
    }
    assert(false && "NovaFs out of pages");
    return 0;
  }
  assert(!free_pages_.empty() && "NovaFs out of pages");
  const std::uint64_t off = free_pages_.back();
  free_pages_.pop_back();
  return off;
}

void NovaFs::free_page(std::uint64_t off) {
  if (opt_.alloc == AllocPolicy::kPinned) {
    const unsigned channel = ns_.decode(off).channel;
    free_by_channel_[channel % free_by_channel_.size()].push_back(off);
  } else {
    free_pages_.push_back(off);
  }
}

// -------------------------------------------------------------- log ------

void NovaFs::ensure_log_space(ThreadCtx& ctx, unsigned ino,
                              std::uint32_t needed) {
  DInode& di = inodes_[ino];
  auto page_end = [&](std::uint64_t pos) {
    return pos / kPage * kPage + kPage;
  };
  if (di.log_head != 0 &&
      di.log_tail + needed + 8 <= page_end(di.log_tail))
    return;
  // Allocate and link a fresh log page.
  const std::uint64_t np = alloc_page(ctx);
  const std::uint64_t zero = 0;
  ns_.store_flush(ctx, np, bytes_of(&zero, 8));  // next = 0
  // Clear the first entry slot so stale bytes can't look like a record.
  ns_.store_flush(ctx, np + kLogDataStart, bytes_of(&zero, 4));
  ns_.sfence(ctx);
  if (di.log_head == 0) {
    di.log_head = np;
    if (!suppress_head_persist_) {
      pmem::store_persist_pod(ctx, ns_,
                              inode_off(ino) + offsetof(PInode, log_head),
                              np);
    }
  } else {
    // End-of-page marker, then link from the old page.
    const std::uint32_t eop = kEntryMagic | kEndOfPage;
    ns_.store_persist(ctx, di.log_tail, bytes_of(&eop, 4));
    const std::uint64_t old_page = di.log_tail / kPage * kPage;
    pmem::store_persist_pod(ctx, ns_, old_page, np);
  }
  di.log_tail = np + kLogDataStart;
  ++di.log_page_count;
}

std::uint64_t NovaFs::log_append(ThreadCtx& ctx, unsigned ino,
                                 const LogEntry& e,
                                 std::span<const std::uint8_t> payload) {
  lreader_.discard();  // about to mutate the log: drop the staged span
  DInode& di = inodes_[ino];
  assert(e.total_len + kLogDataStart + 8 <= kPage &&
         "entry too large for a page");

  ensure_log_space(ctx, ino, e.total_len);

  const std::uint64_t at = di.log_tail;
  // Commit protocol: terminator after the record and the record body are
  // persisted first; the entry's magic word (its first 4 bytes) last.
  // Replay scans entries until an invalid magic, so a torn append is
  // invisible and no stale bytes can be mistaken for a live entry.
  batch_.reset(at);
  encode_entry(e, payload);
  batch_.publish_record(ctx, ns_, pmem::WriteHint::kCached);
  ns_.sfence(ctx);

  di.log_tail = at + e.total_len;
  // The persistent tail is a recovery *hint* (bounds the scan); the
  // authoritative end of log is the first invalid magic.
  pmem::store_persist_pod(ctx, ns_,
                          inode_off(ino) + offsetof(PInode, log_tail),
                          di.log_tail);
  return at;
}

void NovaFs::encode_entry(const LogEntry& e,
                          std::span<const std::uint8_t> payload) {
  assert(e.total_len == entry_len(payload.size()));
  const std::size_t rel = batch_.append_pod(e);
  batch_.append(payload);
  batch_.append_zeros(e.total_len - sizeof(LogEntry) - payload.size());
  if (opt_.log_checksum) {
    const std::uint32_t crc =
        sim::crc32c(batch_.data() + rel, e.total_len - 8);
    std::memcpy(batch_.data() + rel + e.total_len - 8, &crc, 4);
  }
}

std::vector<std::uint64_t> NovaFs::log_append_batch(
    ThreadCtx& ctx, unsigned ino, std::span<const PendingEntry> entries) {
  lreader_.discard();  // about to mutate the log: drop the staged span
  assert(!entries.empty());
  // Batched log publication: the window where a racing thread (or crash)
  // must see whole chunks or nothing — a schedule-explorer yield point.
  ctx.sched_point(sim::SchedPoint::kBatchCommit);
  DInode& di = inodes_[ino];
  std::vector<std::uint64_t> offs;
  offs.reserve(entries.size());

  // The batch is published in chunks of consecutive entries, each chunk
  // as large as the current log page allows. Every chunk is staged
  // contiguously — each entry keeps the exact stock format, so replay
  // needs no changes — and published with one fence pair: everything
  // after the chunk's first magic word (bodies, later entries, the
  // terminator) first, then the magic word makes the chunk visible
  // atomically. A crash leaves a durable prefix of whole chunks, never
  // a torn entry — the same entry-prefix guarantee as the stock path,
  // at a fraction of the fences.
  // A batch that fits in one log page starts on a page with room for all
  // of it, so it commits as one chunk.
  std::uint32_t batch_len = 0;
  for (const PendingEntry& p : entries) batch_len += p.e.total_len;
  const bool one_page = kLogDataStart + batch_len + 8 <= kPage;
  std::size_t i = 0;
  while (i < entries.size()) {
    ensure_log_space(ctx, ino, one_page ? batch_len : entries[i].e.total_len);
    // Room to the end-of-page marker slot; ensure_log_space guarantees
    // at least the first entry (plus terminator) fits.
    const std::uint64_t room =
        di.log_tail / kPage * kPage + kPage - di.log_tail - 8;
    std::uint32_t total = 0;
    std::size_t end = i;
    while (end < entries.size() &&
           total + entries[end].e.total_len <= room) {
      total += entries[end].e.total_len;
      ++end;
    }
    assert(end > i && "entry too large for a page");

    const std::uint64_t at = di.log_tail;
    batch_.reset(at);
    for (std::size_t k = i; k < end; ++k) {
      offs.push_back(at + batch_.size());
      encode_entry(entries[k].e, entries[k].payload);
    }
    const std::uint32_t zero = 0;
    batch_.append_pod(zero);  // terminator for the whole chunk
    batch_.commit(ctx, ns_, /*hold=*/4, pmem::WriteHint::kAuto);
    ns_.sfence(ctx);
    di.log_tail = at + total;
    i = end;
  }

  // One tail-hint persist for the whole batch (it only bounds the
  // recovery scan; the authoritative end is the first invalid magic).
  pmem::store_persist_pod(ctx, ns_,
                          inode_off(ino) + offsetof(PInode, log_tail),
                          di.log_tail);
  return offs;
}

// ----------------------------------------------------------- log walks --

void NovaFs::pm_read(ThreadCtx& ctx, std::uint64_t off,
                     std::span<std::uint8_t> out, bool staged,
                     std::size_t window) {
  if (staged)
    lreader_.read(ctx, ns_, off, out, window);
  else
    ns_.load(ctx, off, out);
}

template <typename Visit>
std::uint64_t NovaFs::walk_chain(ThreadCtx& ctx, std::uint64_t head,
                                 bool staged, Visit visit) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t lp = head; lp != 0;) {
    if (!visit(lp)) return 0;
    seen.insert(lp);
    const auto next = pm_read_pod<std::uint64_t>(ctx, lp, staged);
    if (next != 0 && (!data_page(next) || seen.count(next) != 0)) return lp;
    lp = next;
  }
  return 0;
}

bool NovaFs::data_page(std::uint64_t off) const {
  return off >= kDataStart && off % kPage == 0 &&
         (off - kDataStart) / kPage < (ns_.size() - kDataStart) / kPage;
}

NovaFs::PageOwners::PageOwners(const NovaFs& fs)
    : fs_(fs),
      role_((fs.ns_.size() - kDataStart) / kPage, 0),
      owner_(role_.size(), 0) {}

std::string NovaFs::PageOwners::claim(std::uint64_t off, char role,
                                      unsigned ino) {
  if (!fs_.data_page(off))
    return "inode " + std::to_string(ino) + ": page ref @" +
           std::to_string(off) + " outside data area";
  const std::uint64_t i = (off - kDataStart) / kPage;
  if (role_[i] != 0)
    return "page @" + std::to_string(off) + ": claimed as " + role_[i] +
           " by inode " + std::to_string(owner_[i]) + " and as " + role +
           " by inode " + std::to_string(ino);
  role_[i] = role;
  owner_[i] = ino;
  return "";
}

void NovaFs::PageOwners::release(std::uint64_t off) {
  if (fs_.data_page(off)) role_[(off - kDataStart) / kPage] = 0;
}

bool NovaFs::PageOwners::claimed(std::uint64_t off) const {
  return fs_.data_page(off) && role_[(off - kDataStart) / kPage] != 0;
}

bool NovaFs::PageOwners::in_log_of(std::uint64_t off, unsigned ino) const {
  const std::uint64_t page = off / kPage * kPage;
  if (!fs_.data_page(page)) return false;
  const std::uint64_t i = (page - kDataStart) / kPage;
  return role_[i] == 'L' && owner_[i] == ino;
}

std::string NovaFs::claim_data(PageOwners& pages, unsigned ino) const {
  const std::string tag = "inode " + std::to_string(ino);
  std::string first;
  for (const auto& [idx, ps] : inodes_[ino].pages) {
    std::string err;
    if (ps.page_off != 0) {
      err = pages.claim(ps.page_off, 'D', ino);
      if (!err.empty()) err = tag + " data: " + err;
    }
    for (const Embed& em : ps.overlays)
      if (err.empty() && !pages.in_log_of(em.data_off, ino))
        err = tag + ": embedded extent @" + std::to_string(em.data_off) +
              " not inside this inode's log";
    if (first.empty()) first = std::move(err);
  }
  return first;
}

template <typename Apply>
void NovaFs::walk_entries(ThreadCtx& ctx, std::uint64_t head, bool staged,
                          LogCursor& at, Apply apply) {
  std::unordered_set<std::uint64_t> pages{head};
  at = LogCursor{head + kLogDataStart, 1, nullptr};
  while (true) {
    // Staged, the first fetch in each log page stages the rest of it.
    const auto e = pm_read_pod<LogEntry>(ctx, at.pos, staged,
                                         kPage - at.pos % kPage);
    if ((e.magic_type & 0xFFFF0000u) != kEntryMagic) return;  // end of log
    if ((e.magic_type & 0xFFFFu) == kEndOfPage) {
      const auto next =
          pm_read_pod<std::uint64_t>(ctx, at.pos / kPage * kPage, staged);
      // A crash between the end-of-page marker persist and the old
      // page's next-pointer persist durably leaves next == 0: the entry
      // that needed the new page was never acknowledged, so this is
      // simply the end of the log.
      if (next == 0) return;
      if (!data_page(next)) {
        at.why = "end-of-page link outside the data area";
        return;
      }
      if (!pages.insert(next).second) {
        at.why = "end-of-page link to a page already walked";
        return;
      }
      at.pos = next + kLogDataStart;
      ++at.pages;
      continue;
    }
    at.why = entry_error(ctx, at.pos, e);
    if (at.why == nullptr) at.why = apply(at.pos, e);
    if (at.why != nullptr) return;
    at.pos += e.total_len;
  }
}

const char* NovaFs::entry_error(ThreadCtx& ctx, std::uint64_t pos,
                                const LogEntry& e) {
  const std::uint32_t type = e.magic_type & 0xFFFFu;
  if (type != kWrite && type != kEmbed && type != kDirent &&
      type != kDirentDel && type != kSetSize)
    return "bad entry type";
  if (e.total_len < sizeof(LogEntry) + footer() || e.total_len % 8 != 0 ||
      pos % kPage + e.total_len + 8 > kPage)
    return "bad entry length";
  // The exact embed payload length rides in the `page` field.
  if (type == kEmbed && e.page > e.total_len - sizeof(LogEntry) - footer())
    return "embed payload overruns entry";
  if (type == kWrite && e.page != 0 && !data_page(e.page))
    return "write entry page outside the data area";
  if (opt_.log_checksum) {
    std::vector<std::uint8_t> buf(e.total_len - 8);
    ns_.load(ctx, pos, buf);
    const auto stored =
        ns_.load_pod<std::uint32_t>(ctx, pos + e.total_len - 8);
    if (sim::crc32c(buf.data(), buf.size()) != stored)
      return "entry crc mismatch";
  }
  return nullptr;
}

const char* NovaFs::super_error(const Super& s) const {
  if (s.magic != kMagic) return "super: bad magic";
  if (s.fs_size != ns_.size()) return "super: fs_size mismatch";
  if (s.data_start != kDataStart) return "super: bad data_start";
  return nullptr;
}

bool NovaFs::replay_inode(ThreadCtx& ctx, unsigned ino) {
  DInode& di = inodes_[ino];
  if (di.log_head == 0) return false;
  if (!data_page(di.log_head)) {
    // Nothing of a log whose head lies outside the data area can be read:
    // end it durably at the head, so the file restarts empty.
    di.log_head = 0;
    di.log_tail = 0;
    pmem::store_persist_pod(ctx, ns_,
                            inode_off(ino) + offsetof(PInode, log_head),
                            di.log_head);
    report_truncated(ino);
    recovery_.detail = "log head outside the data area";
    return true;
  }
  // With read_combine the first fetch in each 4 KB log page stages the
  // whole page as one line burst; the entry walk and payload reads are
  // then pure DRAM. The page header (next pointer) rides along for free:
  // kLogDataStart sits inside the page's first XPLine. Under media damage
  // the combined fetch faults at the first entry whose page holds the
  // poisoned line, so the log is truncated at the page rather than the
  // exact entry — a knob-on-only difference, and still reported, never
  // hidden.
  LogCursor at;
  try {
    walk_entries(ctx, di.log_head, opt_.read_combine, at,
                 [&](std::uint64_t pos, const LogEntry& e) {
                   return apply_entry(ctx, ino, pos, e,
                                      /*during_replay=*/true);
                 });
  } catch (const hw::MediaError& err) {
    di.log_page_count = at.pages;
    truncate_log_at(ctx, ino, at.pos, err.what());
    return true;
  }
  di.log_page_count = at.pages;
  if (at.why != nullptr) {
    truncate_log_at(ctx, ino, at.pos, at.why);
    return true;
  }
  di.log_tail = at.pos;
  return false;
}

void NovaFs::scrub_line(ThreadCtx& ctx, std::uint64_t line_off) {
  lreader_.discard();  // the scrubbed line may sit in the staged span
  line_off &= ~(hw::Platform::kXpLineBytes - 1);
  const std::uint8_t zeros[hw::Platform::kXpLineBytes] = {};
  ns_.ntstore_persist(ctx, line_off, zeros);
  recovery_.scrubbed_lines.push_back(line_off);
}

void NovaFs::truncate_log_at(ThreadCtx& ctx, unsigned ino,
                             std::uint64_t pos, const std::string& why) {
  lreader_.discard();  // terminator store below lands in the staged page
  // Scrub the damaged page so the terminator store below can't fault,
  // then end the log durably at the damage point. Entries past it were
  // committed once (or are not entries at all) — their loss is reported,
  // not hidden.
  const std::uint64_t page = pos / kPage * kPage;
  for (const std::uint64_t bad : ns_.platform().ars(ns_, page, kPage))
    scrub_line(ctx, bad);
  // Unlink the pages past the cut before ending the log, so no crash can
  // leave a shorter log that still links them: they leave the chain, and
  // mount returns them to the free pool.
  pmem::store_persist_pod(ctx, ns_, page, std::uint64_t{0});
  const std::uint32_t zero = 0;
  ns_.store_persist(ctx, pos, bytes_of(&zero, 4));
  inodes_[ino].log_tail = pos;
  pmem::store_persist_pod(ctx, ns_,
                          inode_off(ino) + offsetof(PInode, log_tail), pos);
  report_truncated(ino);
  recovery_.detail = why;
}

void NovaFs::report_truncated(unsigned ino) {
  if (recovery_.logs_truncated.empty() ||
      recovery_.logs_truncated.back() != ino)
    recovery_.logs_truncated.push_back(ino);
}

const char* NovaFs::apply_entry(ThreadCtx& ctx, unsigned ino,
                                std::uint64_t entry_off, const LogEntry& e,
                                bool during_replay) {
  DInode& di = inodes_[ino];
  const std::uint32_t type = e.magic_type & 0xFFFFu;
  switch (type) {
    case kWrite: {
      PageState& ps = di.pages[e.foff / kPage];
      if (!during_replay && ps.page_off != 0) free_page(ps.page_off);
      ps.page_off = e.page;
      ps.entry_off = entry_off;
      ps.overlays.clear();
      di.size = std::max(di.size, e.new_size);
      break;
    }
    case kEmbed: {
      PageState& ps = di.pages[e.foff / kPage];
      // The exact (unpadded) payload length rides in the `page` field,
      // unused by embed entries.
      ps.overlays.push_back(Embed{entry_off + sizeof(LogEntry),
                                  static_cast<std::uint32_t>(e.foff % kPage),
                                  static_cast<std::uint32_t>(e.page)});
      di.size = std::max(di.size, e.new_size);
      break;
    }
    case kDirent:
    case kDirentDel: {
      // Payload: u32 target_ino, u32 namelen, chars. During combined
      // replay the payload is already staged with its log page; outside
      // replay the entry was written a moment ago, so keep the stock
      // loads (the staging span would be stale anyway).
      const bool staged = during_replay && opt_.read_combine;
      const auto meta = pm_read_pod<std::array<std::uint32_t, 2>>(
          ctx, entry_off + sizeof(LogEntry), staged);
      if (meta[0] >= kMaxInodes ||
          sizeof(LogEntry) + 8 + meta[1] + footer() > e.total_len)
        return "malformed dirent";
      std::string name(meta[1], '\0');
      pm_read(ctx, entry_off + sizeof(LogEntry) + 8,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(name.data()), meta[1]),
              staged);
      if (type == kDirent) {
        namei_[name] = static_cast<int>(meta[0]);
        inodes_[meta[0]].in_use = true;
      } else {
        namei_.erase(name);
        // Free the inode slot for reuse (its storage is reclaimed by the
        // caller, or by mount's reachability scan after a crash).
        if (during_replay) inodes_[meta[0]].in_use = false;
      }
      break;
    }
    case kSetSize: {
      di.size = e.new_size;
      // Forget whole pages past the new size (their data is dead).
      const std::uint64_t first_dead = (e.new_size + kPage - 1) / kPage;
      for (auto it = di.pages.begin(); it != di.pages.end();) {
        if (it->first >= first_dead) {
          if (!during_replay && it->second.page_off != 0)
            free_page(it->second.page_off);
          it = di.pages.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------- file ops --

int NovaFs::create(ThreadCtx& ctx, const std::string& name) {
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(name);
  if (it != namei_.end()) return it->second;
  unsigned ino = 0;
  for (unsigned i = 1; i < kMaxInodes; ++i) {
    if (!inodes_[i].in_use) {
      ino = i;
      break;
    }
  }
  if (ino == 0) return -1;

  // Persist the inode, then the dirent in the directory log.
  PInode pi{};
  pi.in_use = 1;
  ns_.store_persist(ctx, inode_off(ino), bytes_of(&pi, sizeof(pi)));
  inodes_[ino].in_use = true;

  append_dirent(ctx, kDirent, ino, name);
  namei_[name] = static_cast<int>(ino);
  return static_cast<int>(ino);
}

NovaFs::Dirent NovaFs::make_dirent(EntryType type, unsigned target,
                                   const std::string& name) const {
  const std::uint32_t meta[2] = {target,
                                 static_cast<std::uint32_t>(name.size())};
  std::vector<std::uint8_t> payload(8 + name.size());
  std::memcpy(payload.data(), meta, 8);
  std::memcpy(payload.data() + 8, name.data(), name.size());
  return {make_entry(type, payload.size()), std::move(payload)};
}

std::uint64_t NovaFs::append_dirent(ThreadCtx& ctx, EntryType type,
                                    unsigned target_ino,
                                    const std::string& name) {
  const Dirent d = make_dirent(type, target_ino, name);
  return log_append(ctx, 0, d.e, d.payload);
}

void NovaFs::release_inode_storage(ThreadCtx& ctx, unsigned ino) {
  DInode& di = inodes_[ino];
  for (auto& [idx, ps] : di.pages)
    if (ps.page_off != 0) free_page(ps.page_off);
  walk_chain(ctx, di.log_head, /*staged=*/false, [&](std::uint64_t lp) {
    free_page(lp);
    return true;
  });
  di = DInode{};
}

bool NovaFs::unlink(ThreadCtx& ctx, const std::string& name) {
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(name);
  if (it == namei_.end()) return false;
  const auto ino = static_cast<unsigned>(it->second);
  // Commit point: the deletion dirent. Then the inode slot and its
  // storage can be reclaimed (a crash in between leaks nothing: replay
  // sees the deletion and mount's reachability scan frees the pages).
  append_dirent(ctx, kDirentDel, ino, name);
  PInode pi{};
  ns_.store_persist(ctx, inode_off(ino), bytes_of(&pi, sizeof(pi)));
  release_inode_storage(ctx, ino);
  namei_.erase(it);
  return true;
}

bool NovaFs::rename(ThreadCtx& ctx, const std::string& from,
                    const std::string& to) {
  // A rename is delete+insert in the directory log; under the schedule
  // explorer a competing rename may be granted the log between the two
  // unless batch_log_appends makes the pair one atomic chunk.
  ctx.sched_point(sim::SchedPoint::kHandoff);
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(from);
  if (it == namei_.end()) return false;
  const auto ino = static_cast<unsigned>(it->second);
  if (from == to) return true;
  const auto to_it = namei_.find(to);
  const bool replace = to_it != namei_.end();
  const unsigned old_ino =
      replace ? static_cast<unsigned>(to_it->second) : 0;

  std::vector<Dirent> dirents;
  dirents.push_back(make_dirent(kDirentDel, ino, from));
  if (replace) dirents.push_back(make_dirent(kDirentDel, old_ino, to));
  dirents.push_back(make_dirent(kDirent, ino, to));
  if (opt_.batch_log_appends) {
    // One crash-atomic directory-log batch: the deletion dirent(s) and
    // the insertion commit together, so recovery sees the rename whole
    // or not at all — never the name lost or doubled.
    std::vector<PendingEntry> entries;
    for (const Dirent& d : dirents) entries.push_back({d.e, d.payload});
    log_append_batch(ctx, 0, entries);
  } else {
    for (const Dirent& d : dirents) log_append(ctx, 0, d.e, d.payload);
  }

  if (replace) {
    PInode pi{};
    ns_.store_persist(ctx, inode_off(old_ino), bytes_of(&pi, sizeof(pi)));
    release_inode_storage(ctx, old_ino);
  }
  namei_.erase(from);
  namei_[to] = static_cast<int>(ino);
  return true;
}

void NovaFs::truncate(ThreadCtx& ctx, int ino_s, std::uint64_t new_size) {
  ctx.advance_by(kFsCosts.write_syscall);
  const auto ino = static_cast<unsigned>(ino_s);
  DInode& di = inodes_[ino];
  const LogEntry e = make_entry(kSetSize, 0, 0, 0, new_size);
  const std::uint64_t boundary_page = new_size / kPage;
  const std::size_t keep = static_cast<std::size_t>(new_size % kPage);
  if (new_size < di.size && keep != 0 && di.pages.count(boundary_page) != 0) {
    // Shrinking inside a page: a copy of the boundary page with its tail
    // zeroed (so a later extension reads zeros) and the authoritative size
    // commit as one batch. Alone, the copy's entry would recover a file
    // that ends at the page end.
    const std::vector<std::uint8_t> zeros(kPage - keep, 0);
    const PendingEntry batch[] = {
        {copy_page(ctx, ino, boundary_page, zeros, keep), {}}, {e, {}}};
    const auto offs = log_append_batch(ctx, ino, batch);
    for (std::size_t k = 0; k < offs.size(); ++k)
      apply_entry(ctx, ino, offs[k], batch[k].e, /*during_replay=*/false);
    return;
  }
  const std::uint64_t at = log_append(ctx, ino, e, {});
  apply_entry(ctx, ino, at, e, /*during_replay=*/false);
}

int NovaFs::open(ThreadCtx& ctx, const std::string& name) {
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(name);
  return it == namei_.end() ? -1 : it->second;
}

void NovaFs::cow_page(ThreadCtx& ctx, unsigned ino, std::uint64_t page_idx,
                      std::span<const std::uint8_t> seg,
                      std::size_t seg_in_page) {
  DInode& di = inodes_[ino];
  const LogEntry e = copy_page(ctx, ino, page_idx, seg, seg_in_page);
  const std::uint64_t at = log_append(ctx, ino, e, {});
  apply_entry(ctx, ino, at, e, /*during_replay=*/false);
  di.size = std::max(di.size, e.new_size);
}

NovaFs::LogEntry NovaFs::copy_page(ThreadCtx& ctx, unsigned ino,
                                   std::uint64_t page_idx,
                                   std::span<const std::uint8_t> seg,
                                   std::size_t seg_in_page) {
  DInode& di = inodes_[ino];
  std::vector<std::uint8_t> buf(kPage, 0);
  // Base content + overlays (the read path's merge) — skipped when the
  // new segment covers the whole page.
  if (seg.size() < kPage) read_page(ctx, di, page_idx, 0, kPage, buf.data());
  if (!seg.empty())
    std::memcpy(buf.data() + seg_in_page, seg.data(), seg.size());

  const std::uint64_t np = alloc_page(ctx);
  ns_.ntstore(ctx, np, buf);
  ns_.sfence(ctx);

  const std::uint64_t end =
      seg.empty() ? di.size : page_idx * kPage + seg_in_page + seg.size();
  return make_entry(kWrite, 0, page_idx * kPage, np,
                    std::max<std::uint64_t>(di.size, end));
}

void NovaFs::write(ThreadCtx& ctx, int ino_s, std::uint64_t off,
                   std::span<const std::uint8_t> data, bool charge_syscall) {
  if (charge_syscall) ctx.advance_by(kFsCosts.write_syscall);
  const auto ino = static_cast<unsigned>(ino_s);
  DInode& di = inodes_[ino];

  // With batch_log_appends, consecutive embedded segments of one write()
  // coalesce into a single log burst (one terminator + fence pair + tail
  // persist for all of them) instead of committing entry by entry. Sizes
  // are tracked through `staged_size` because the entries apply only when
  // the batch commits. The batch flushes before any CoW fallback so log
  // order always matches file-write order.
  std::vector<PendingEntry> pending;
  std::uint32_t pending_bytes = 0;
  std::vector<std::uint64_t> pending_pages;
  std::uint64_t staged_size = di.size;
  auto flush_pending = [&] {
    if (pending.empty()) return;
    const auto offs = log_append_batch(ctx, ino, pending);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      apply_entry(ctx, ino, offs[i], pending[i].e, /*during_replay=*/false);
      di.size = std::max(di.size, pending[i].e.new_size);
    }
    pending.clear();
    pending_bytes = 0;
    // Overlay-merge checks run after the batch lands (cow_page appends
    // its own entry; it must not interleave with the staged batch).
    for (const std::uint64_t page_idx : pending_pages) {
      PageState& ps = di.pages[page_idx];
      if (ps.overlays.size() >= opt_.merge_threshold)
        cow_page(ctx, ino, page_idx, {}, 0);
    }
    pending_pages.clear();
  };

  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t foff = off + pos;
    const std::uint64_t page_idx = foff / kPage;
    const std::size_t in_page = static_cast<std::size_t>(foff % kPage);
    const std::size_t n =
        std::min<std::size_t>(data.size() - pos, kPage - in_page);
    const auto seg = data.subspan(pos, n);

    // Embedded entries must fit in a log page (with header, padding and
    // terminator); larger sub-page writes fall back to CoW.
    constexpr std::size_t kEmbedMax = 3072;
    if (opt_.datalog && n <= kEmbedMax && n < kPage) {
      // Embedded write entry: data rides in the log (Fig 11), and the
      // exact payload length in the `page` field.
      LogEntry e = make_entry(kEmbed, n, foff, n);
      if (opt_.batch_log_appends) {
        e.new_size = std::max(staged_size, foff + n);
        staged_size = e.new_size;
        // A batch must fit in one log page; spill the current one first.
        if (pending_bytes + e.total_len + kLogDataStart + 8 > kPage)
          flush_pending();
        pending.push_back({e, seg});
        pending_bytes += e.total_len;
        pending_pages.push_back(page_idx);
      } else {
        e.new_size = std::max(di.size, foff + n);
        const std::uint64_t at = log_append(ctx, ino, e, seg);
        apply_entry(ctx, ino, at, e, /*during_replay=*/false);
        di.size = std::max(di.size, e.new_size);
        PageState& ps = di.pages[page_idx];
        if (ps.overlays.size() >= opt_.merge_threshold) {
          cow_page(ctx, ino, page_idx, {}, 0);  // merge overlays
        }
      }
    } else {
      flush_pending();
      cow_page(ctx, ino, page_idx, seg, in_page);
      staged_size = std::max(staged_size, di.size);
    }
    pos += n;
  }
  flush_pending();
  if (di.log_page_count > opt_.clean_threshold) clean_log(ctx, ino);
}

void NovaFs::read_page(ThreadCtx& ctx, DInode& di, std::uint64_t page_idx,
                       std::size_t begin, std::size_t len,
                       std::uint8_t* out) {
  auto it = di.pages.find(page_idx);
  if (it == di.pages.end()) {
    std::memset(out, 0, len);
    return;
  }
  const PageState& ps = it->second;
  if (ps.page_off != 0) {
    pm_read(ctx, ps.page_off + begin, std::span<std::uint8_t>(out, len),
            opt_.read_combine);
  } else {
    std::memset(out, 0, len);
  }
  // Apply embedded extents in log order (newest last).
  for (const Embed& e : ps.overlays) {
    const std::size_t e_begin = e.in_page;
    const std::size_t e_end = e.in_page + e.len;
    const std::size_t r_begin = std::max(begin, e_begin);
    const std::size_t r_end = std::min(begin + len, e_end);
    if (r_begin >= r_end) continue;
    pm_read(ctx, e.data_off + (r_begin - e_begin),
            std::span<std::uint8_t>(out + (r_begin - begin), r_end - r_begin),
            opt_.read_combine);
  }
}

std::size_t NovaFs::read(ThreadCtx& ctx, int ino_s, std::uint64_t off,
                         std::span<std::uint8_t> out, bool charge_syscall) {
  if (charge_syscall) ctx.advance_by(kFsCosts.read_syscall);
  DInode& di = inodes_[static_cast<unsigned>(ino_s)];
  if (off >= di.size) return 0;
  const std::size_t len =
      std::min<std::uint64_t>(out.size(), di.size - off);
  std::size_t pos = 0;
  while (pos < len) {
    const std::uint64_t foff = off + pos;
    const std::size_t in_page = static_cast<std::size_t>(foff % kPage);
    const std::size_t n = std::min<std::size_t>(len - pos, kPage - in_page);
    read_page(ctx, di, foff / kPage, in_page, n, out.data() + pos);
    pos += n;
  }
  return len;
}

void NovaFs::fsync(ThreadCtx& ctx, int) {
  // NOVA writes are synchronous by construction.
  ctx.advance_by(kFsCosts.fsync_syscall);
}

std::uint64_t NovaFs::size(ThreadCtx& ctx, int ino) {
  (void)ctx;
  return inodes_[static_cast<unsigned>(ino)].size;
}

template <typename Emit>
void NovaFs::rewrite_log(ThreadCtx& ctx, unsigned ino, Emit emit) {
  DInode& di = inodes_[ino];
  std::vector<std::uint64_t> old_pages;
  walk_chain(ctx, di.log_head, /*staged=*/false, [&](std::uint64_t lp) {
    old_pages.push_back(lp);
    return true;
  });
  di.log_head = 0;
  di.log_tail = 0;
  di.log_page_count = 0;
  suppress_head_persist_ = true;
  emit();
  suppress_head_persist_ = false;
  pmem::store_persist_pod(ctx, ns_,
                          inode_off(ino) + offsetof(PInode, log_head),
                          di.log_head);
  for (const std::uint64_t lp : old_pages) free_page(lp);
}

void NovaFs::clean_log(ThreadCtx& ctx, unsigned ino) {
  // Embedded data becomes dead once its overlays are merged into pages.
  ++cleanings_;
  DInode& di = inodes_[ino];
  // Merge every page that still has live embedded data.
  std::vector<std::uint64_t> to_merge;
  for (const auto& [idx, ps] : di.pages)
    if (!ps.overlays.empty()) to_merge.push_back(idx);
  for (std::uint64_t idx : to_merge) cow_page(ctx, ino, idx, {}, 0);

  rewrite_log(ctx, ino, [&] {
    for (const auto& [idx, ps] : di.pages) {
      if (ps.page_off == 0) continue;
      log_append(ctx, ino,
                 make_entry(kWrite, 0, idx * kPage, ps.page_off, di.size), {});
    }
  });
}

void NovaFs::repair(ThreadCtx& ctx) {
  const auto bad = ns_.platform().ars(ns_, 0, ns_.size());
  if (bad.empty()) return;

  // Which inodes own damaged pages? Log pages via the chains, data pages
  // and overlays via the replayed DRAM maps.
  std::set<unsigned> log_damaged;
  std::set<unsigned> data_damaged;
  for (unsigned ino = 0; ino < kMaxInodes; ++ino) {
    DInode& di = inodes_[ino];
    if (!di.in_use) continue;
    try {
      walk_chain(ctx, di.log_head, /*staged=*/false, [&](std::uint64_t lp) {
        if (hw::Platform::touches_bad_line(bad, lp, kPage))
          log_damaged.insert(ino);
        return true;
      });
    } catch (const hw::MediaError&) {
      log_damaged.insert(ino);
    }
    for (auto& [idx, ps] : di.pages) {
      if (ps.page_off != 0 &&
          hw::Platform::touches_bad_line(bad, ps.page_off, kPage))
        data_damaged.insert(ino);
      // Drop overlays whose embedded bytes sit on a bad line: the base
      // page's older content wins, which is historical — never garbage.
      auto& ov = ps.overlays;
      const auto old_n = ov.size();
      ov.erase(std::remove_if(ov.begin(), ov.end(),
                              [&](const Embed& e) {
                                return hw::Platform::touches_bad_line(
                                    bad, e.data_off, e.len);
                              }),
               ov.end());
      if (ov.size() != old_n) data_damaged.insert(ino);
    }
  }

  // Scrub everything, then rebuild the damaged logs from DRAM state so a
  // later remount replays an intact chain instead of stopping at zeros:
  // the directory re-emits a dirent per live name.
  for (const std::uint64_t b : bad) scrub_line(ctx, b);
  for (const unsigned ino : log_damaged) {
    if (ino != 0) {
      clean_log(ctx, ino);
      continue;
    }
    rewrite_log(ctx, 0, [&] {
      for (const auto& [name, target] : namei_)
        append_dirent(ctx, kDirent, static_cast<unsigned>(target), name);
    });
  }
  for (const unsigned ino : data_damaged)
    recovery_.inodes_damaged.push_back(ino);
  for (const unsigned ino : log_damaged)
    if (data_damaged.count(ino) == 0)
      recovery_.inodes_damaged.push_back(ino);
}

Status NovaFs::fsck(ThreadCtx& ctx) {
  return pmem::run_check([&] { return fsck_impl(ctx); });
}

std::string NovaFs::fsck_impl(ThreadCtx& ctx) {
  if (const char* err = super_error(ns_.load_pod<Super>(ctx, 0))) return err;

  PageOwners pages(*this);
  for (unsigned ino = 0; ino < kMaxInodes; ++ino) {
    const auto pi = ns_.load_pod<PInode>(ctx, inode_off(ino));
    if (pi.in_use == 0) continue;
    const std::string tag = "inode " + std::to_string(ino);

    // Log chain: in-bounds, acyclic, and no page shared with another log
    // or data reference; then every entry obeys the entry rule up to the
    // first invalid magic.
    std::string err;
    const std::uint64_t back =
        walk_chain(ctx, pi.log_head, /*staged=*/false, [&](std::uint64_t lp) {
          err = pages.claim(lp, 'L', ino);
          return err.empty();
        });
    if (!err.empty()) return tag + " log: " + err;
    if (back != 0)
      return tag + " log: page @" + std::to_string(back) +
             " links outside the data area or back into its chain";
    if (pi.log_head == 0) continue;
    LogCursor at;
    walk_entries(ctx, pi.log_head, /*staged=*/false, at,
                 [](std::uint64_t, const LogEntry&) -> const char* {
                   return nullptr;
                 });
    if (at.why != nullptr)
      return tag + ": " + at.why + " @" + std::to_string(at.pos);
  }

  // Replayed references (built by mount): base pages owned exactly once
  // and never inside a log; embedded extents inside this inode's own log.
  for (unsigned ino = 0; ino < kMaxInodes; ++ino) {
    if (!inodes_[ino].in_use) continue;
    if (std::string err = claim_data(pages, ino); !err.empty()) return err;
  }

  // The allocator rule: every data page is claimed or free, never both
  // (a live page the allocator could hand out) and never neither (a page
  // leaked until the next mount).
  std::vector<bool> free(pages.count(), false);
  std::vector<const std::vector<std::uint64_t>*> pools{&free_pages_};
  for (const auto& list : free_by_channel_) pools.push_back(&list);
  for (const auto* pool : pools) {
    for (const std::uint64_t off : *pool) {
      const std::string at = "free page @" + std::to_string(off);
      if (!data_page(off)) return at + " outside the data area";
      if (pages.claimed(off)) return at + " is claimed";
      if (free[(off - kDataStart) / kPage]) return at + " listed twice";
      free[(off - kDataStart) / kPage] = true;
    }
  }
  for (std::size_t i = 0; i < free.size(); ++i) {
    const std::uint64_t off = kDataStart + i * kPage;
    if (!free[i] && !pages.claimed(off))
      return "page @" + std::to_string(off) + " is neither claimed nor free";
  }
  return "";
}

std::size_t NovaFs::log_pages(int ino) const {
  return inodes_[static_cast<unsigned>(ino)].log_page_count;
}

std::size_t NovaFs::overlay_count(int ino) const {
  std::size_t n = 0;
  for (const auto& [idx, ps] : inodes_[static_cast<unsigned>(ino)].pages)
    n += ps.overlays.size();
  return n;
}

}  // namespace xp::nova
