// Mini-NOVA: a log-structured file system for persistent memory
// (Xu & Swanson, FAST'16), with the paper's two optimizations:
//
//  * NOVA-datalog (§5.1.2, Figs 11/12): sub-page writes embed their data
//    in the inode log instead of copy-on-writing a whole 4 KB page,
//    turning small random writes into small *sequential* log appends
//    (EWR ~1 on the XP DIMM) while keeping atomic file updates. The read
//    path merges embedded extents over the base page; a threshold-driven
//    merge bounds read amplification, and the log cleaner tracks
//    embedded-data liveness.
//  * Multi-DIMM awareness (§5.3.1, Fig 17): the page allocator can pin
//    each thread's allocations to one interleave channel so writers don't
//    contend for the same DIMM's WPQ.
//
// Design mirrors NOVA: persistent state is the superblock, the inode
// table, per-inode logs (4 KB log pages linked by next pointers), and
// data pages; everything else (namei, per-file page maps, the allocator)
// lives in DRAM and is rebuilt by log replay on mount. The commit point
// of every operation is the 8-byte persist of the inode's log tail.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "novafs/vfs.h"
#include "pmemlib/linebatch.h"
#include "pmemlib/linereader.h"
#include "sim/status.h"

namespace xp::nova {

enum class AllocPolicy {
  kSpread,  // first-free page: files stripe across all DIMMs (stock NOVA)
  kPinned,  // per-thread channel pinning (multi-DIMM aware NOVA)
};

struct NovaOptions {
  bool datalog = false;        // enable embedded sub-page writes
  AllocPolicy alloc = AllocPolicy::kSpread;
  unsigned merge_threshold = 32;  // overlays per page before a merge
  unsigned clean_threshold = 256; // log pages per inode before cleaning
  // Append an 8-byte CRC32C footer to every log entry and verify it on
  // replay/fsck; a mismatch truncates the log at the damage point. Off by
  // default so the stock entry format and timing are unchanged.
  bool log_checksum = false;
  // Coalesce multi-entry log appends (multi-segment writes, rename) into
  // one contiguous burst per inode log: a single terminator + fence pair
  // and one tail persist for the whole batch instead of per entry
  // (§5.1/§5.2). The batch commits atomically — replay sees all of its
  // entries or none — which is also what makes rename() atomic. Off by
  // default so the stock entry-at-a-time path and timing are unchanged.
  bool batch_log_appends = false;
  // ---- Read path (§5.1), both off by default so the stock read behavior
  // ---- and timing are unchanged -----------------------------------------
  // XPLine-granular read combining: mount's log replay stages each 4 KB
  // log page as one line-aligned burst and walks its entries out of DRAM
  // (instead of a dependent 32 B load per entry), and read() fetches page
  // data and overlay extents as whole-line spans through a
  // pmem::LineReader.
  bool read_combine = false;
  // DRAM read-cache capacity in 256 B lines (0 = no cache; 4096 = 1 MiB).
  // Backs the LineReader — effective only with read_combine — so hot
  // log-page headers and data lines are re-served from DRAM with no DIMM
  // traffic. Volatile: empties on remount like any DRAM cache.
  std::size_t read_cache_lines = 0;
};

class NovaFs final : public FileSystem {
 public:
  static constexpr std::uint64_t kPageSize = 4096;
  static constexpr unsigned kMaxInodes = 4096;

  NovaFs(PmemNamespace& ns, NovaOptions options)
      : ns_(ns), opt_(options) {}

  // Write a fresh file system.
  void format(ThreadCtx& ctx);
  // Mount after restart/crash: replays every inode log. Returns false if
  // the namespace holds no NOVA file system.
  //
  // Media-error tolerant: a poisoned superblock falls back to the backup
  // copy; a poisoned inode-table line loses (and reports) the up-to-4
  // inodes on it; a log that stops replaying (poison or checksum failure)
  // is truncated at the damage point. Pages are claimed by fsck's
  // ownership rule, and a truncated log's reference to a page another
  // owner claims ends that log at the entry that set it (the inode goes
  // in inodes_damaged). Everything is reported through recovery() —
  // committed data can be lost to bad media, but never silently.
  bool mount(ThreadCtx& ctx);

  // What mount()/repair() had to do about damaged media.
  struct RecoveryInfo {
    bool super_restored = false;          // superblock rebuilt from backup
    std::vector<unsigned> inodes_lost;    // inode-table line poisoned
    std::vector<unsigned> logs_truncated; // replay stopped early
    std::vector<unsigned> inodes_damaged; // data/overlay bytes lost
    std::vector<std::string> dirents_dropped;  // named a lost inode
    std::vector<std::uint64_t> scrubbed_lines;
    std::string detail;
    bool damaged() const {
      return super_restored || !inodes_lost.empty() ||
             !logs_truncated.empty() || !inodes_damaged.empty() ||
             !dirents_dropped.empty();
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  // Scrub every remaining poisoned line: overlays hosted on bad lines are
  // dropped (the base page's older bytes win), inodes with damaged pages
  // or logs are reported, and damaged logs are rebuilt from the replayed
  // DRAM state so a later remount sees an intact log. Reads after
  // repair() never raise MediaError and never return unreported garbage.
  void repair(ThreadCtx& ctx);

  int create(ThreadCtx& ctx, const std::string& name) override;
  int open(ThreadCtx& ctx, const std::string& name) override;
  // Remove a file: its pages and log are reclaimed; the removal is
  // logged in the directory so it survives remount. Returns false if the
  // name does not exist.
  bool unlink(ThreadCtx& ctx, const std::string& name);
  // Rename `from` to `to`, replacing `to` if it exists. With
  // batch_log_appends the deletion and insertion dirents commit as one
  // atomic directory-log batch (a crash never loses or doubles the
  // name); without it they are two sequential appends, and a crash
  // between them can leave the file reachable under neither name.
  // Returns false if `from` does not exist.
  bool rename(ThreadCtx& ctx, const std::string& from, const std::string& to);
  // Shrink or extend the file. Shrinking discards data beyond new_size
  // (re-extension reads zeros); extension is a metadata-only size bump.
  // Crash-atomic: a shrink inside a page logs its zeroed copy of that
  // page and the new size as one batch.
  void truncate(ThreadCtx& ctx, int ino, std::uint64_t new_size);
  void write(ThreadCtx& ctx, int ino, std::uint64_t off,
             std::span<const std::uint8_t> data,
             bool charge_syscall = true) override;
  std::size_t read(ThreadCtx& ctx, int ino, std::uint64_t off,
                   std::span<std::uint8_t> out,
                   bool charge_syscall = true) override;
  void fsync(ThreadCtx& ctx, int ino) override;
  std::uint64_t size(ThreadCtx& ctx, int ino) override;
  const char* name() const override {
    return opt_.datalog ? "nova-datalog" : "nova";
  }

  // Recovery invariants (crashmc checker entry point). Call after mount():
  // validates the superblock, every in-use inode's log chain (in-bounds,
  // acyclic, well-formed entries, checksums when enabled) and page
  // ownership — no data page referenced twice, no page serving as both
  // log and data, embedded extents inside their own inode's log — and the
  // allocator: every data page is either owned or free, never both and
  // never neither.
  Status fsck(ThreadCtx& ctx);

  // Introspection for tests/benches.
  std::size_t log_pages(int ino) const;
  std::size_t overlay_count(int ino) const;
  std::uint64_t cleanings() const { return cleanings_; }

  // Directory listing (name -> inode, name order). The name index is
  // DRAM state rebuilt by mount; exposing it read-only lets the workload
  // layer's KV adapter implement ordered scans over file names.
  const std::map<std::string, int>& names() const { return namei_; }

 private:
  // ---- persistent layout -------------------------------------------------
  struct Super {
    std::uint64_t magic;
    std::uint64_t fs_size;
    std::uint64_t inode_table;
    std::uint64_t data_start;
  };
  struct PInode {  // 64 bytes in the inode table
    std::uint64_t in_use;
    std::uint64_t log_head;  // first log page (ns offset), 0 = none
    std::uint64_t log_tail;  // ns offset just past the last valid entry
    std::uint64_t size;      // advisory; authoritative size from replay
    std::uint64_t pad[4];
  };
  struct LogEntry {  // 32-byte header
    std::uint32_t magic_type;  // kEntryMagic | type
    std::uint32_t total_len;   // header + payload, 8-aligned
    std::uint64_t foff;        // file offset
    std::uint64_t page;        // kWrite: data page ns offset
    std::uint64_t new_size;    // file size after this entry
  };
  static constexpr std::uint64_t kMagic = 0x4e4f56414653ULL;  // "NOVAFS"
  static constexpr std::uint32_t kEntryMagic = 0x4e560000;
  enum EntryType : std::uint32_t {
    kWrite = 1,
    kEmbed = 2,
    kDirent = 3,     // payload: u32 target ino, u32 namelen, name chars
    kDirentDel = 4,  // same payload; removes the mapping
    kSetSize = 5,    // new_size is authoritative; pages beyond are dead
    kEndOfPage = 0xF,
  };
  static constexpr std::uint64_t kLogDataStart = 16;  // after page header
  // Redundant superblock copy, written at format() time; the primary's
  // line going bad must not take the whole file system with it.
  static constexpr std::uint64_t kSuperBackupOff = 2048;
  // First data page: the inode table (from the second 4 KB block) rounded
  // up to a page.
  static constexpr std::uint64_t kDataStart =
      (4096 + kMaxInodes * sizeof(PInode) + kPageSize - 1) / kPageSize *
      kPageSize;

  // ---- DRAM state ---------------------------------------------------------
  struct Embed {
    std::uint64_t data_off;  // ns offset of embedded bytes (inside a log)
    std::uint32_t in_page;
    std::uint32_t len;
  };
  struct PageState {
    std::uint64_t page_off = 0;  // 0 = hole (zeros)
    std::uint64_t entry_off = 0;  // the kWrite entry that set page_off
    std::vector<Embed> overlays;
  };
  struct DInode {
    bool in_use = false;
    std::uint64_t size = 0;
    std::uint64_t log_head = 0;
    std::uint64_t log_tail = 0;
    std::size_t log_page_count = 0;
    std::unordered_map<std::uint64_t, PageState> pages;
  };

  // Inode table starts at the second 4 KB block.
  std::uint64_t inode_off(unsigned ino) const {
    return 4096 + ino * sizeof(PInode);
  }

  std::uint64_t alloc_page(ThreadCtx& ctx);
  void free_page(std::uint64_t off);

  // ---- reading ------------------------------------------------------------
  // The read path's one switch: under `staged` the bytes come through the
  // line reader (staging `window` bytes ahead for a scan), otherwise from
  // one plain timed load.
  void pm_read(ThreadCtx& ctx, std::uint64_t off, std::span<std::uint8_t> out,
               bool staged, std::size_t window = 0);
  template <typename T>
  T pm_read_pod(ThreadCtx& ctx, std::uint64_t off, bool staged,
                std::size_t window = 0) {
    T v{};
    pm_read(ctx, off,
            std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v),
                                    sizeof(T)),
            staged, window);
    return v;
  }

  // The one walk of a log's page chain: visit(page) for each page from
  // `head` in link order, loading each page's `next` after its visit
  // (through the line reader when `staged`). Ends at next == 0, at a visit
  // that returns false, or at a link that is not a data_page() or leads
  // back to a page already visited: then it returns the page holding that
  // link (0 otherwise).
  template <typename Visit>
  std::uint64_t walk_chain(ThreadCtx& ctx, std::uint64_t head, bool staged,
                           Visit visit);

  // Whether `off` names a whole page of the data area: the bound on every
  // page reference (a log head or link, a kWrite entry's page) that mount
  // follows and fsck claims.
  bool data_page(std::uint64_t off) const;

  // The one page-ownership rule, which fsck checks and mount builds its
  // used-page set with: a page of the data area has at most one role
  // ('L' log page, 'D' base data page) and one owner.
  class PageOwners {
   public:
    explicit PageOwners(const NovaFs& fs);
    // Claim the page at `off` as `role` for `ino`. Returns why it cannot
    // be claimed (not a data_page(), or claimed already), or "".
    std::string claim(std::uint64_t off, char role, unsigned ino);
    void release(std::uint64_t off);  // unclaim the page at `off`
    bool claimed(std::uint64_t off) const;
    // Whether `off` lies in a log page that `ino` claimed.
    bool in_log_of(std::uint64_t off, unsigned ino) const;
    std::size_t count() const { return role_.size(); }  // data-area pages

   private:
    const NovaFs& fs_;
    std::vector<char> role_;  // 0 = unclaimed
    std::vector<unsigned> owner_;
  };
  // Claim `ino`'s replayed base pages as 'D' and check that its embedded
  // extents lie in its own log. Claims every page even past a clash, and
  // returns the first failure, or "".
  std::string claim_data(PageOwners& pages, unsigned ino) const;

  // Where an entry walk stopped: the end of the log, or the entry (or
  // end-of-page marker) at which it stopped early, and why.
  struct LogCursor {
    std::uint64_t pos = 0;
    std::size_t pages = 0;      // log pages entered
    const char* why = nullptr;  // null: a clean end of log
  };
  // The one walk of a log's entries, shared by replay and fsck: from the
  // head page in log order, following end-of-page links, to the first
  // invalid magic. Every entry that entry_error() accepts goes to
  // apply(pos, entry), which may reject it too (a non-null reason). The
  // walk stops early at the first rejected entry, and at an end-of-page
  // link that is not a data_page() or leads to a page it has already
  // walked. `at` tracks the walk, so a caller catching MediaError knows
  // where it struck.
  template <typename Apply>
  void walk_entries(ThreadCtx& ctx, std::uint64_t head, bool staged,
                    LogCursor& at, Apply apply);
  // The one entry rule: a known type, an 8-aligned length that fits its
  // page (footer and terminator included), an embed payload inside its
  // entry, a kWrite page that is a hole (0) or a data_page(), and the CRC
  // when log_checksum is on. Returns why the entry at `pos` is malformed,
  // or null.
  const char* entry_error(ThreadCtx& ctx, std::uint64_t pos,
                          const LogEntry& e);
  // The one superblock rule, for mount and fsck: returns why `s` is not
  // this namespace's superblock, or null.
  const char* super_error(const Super& s) const;

  // Replay `ino`'s log into its DRAM state. Returns whether the log was
  // truncated: replay kept only a prefix of it.
  bool replay_inode(ThreadCtx& ctx, unsigned ino);
  // Apply a well-formed entry to the DRAM state. Returns why a dirent is
  // malformed (a name that overruns its entry, or no such inode), else
  // null.
  const char* apply_entry(ThreadCtx& ctx, unsigned ino,
                          std::uint64_t entry_off, const LogEntry& e,
                          bool during_replay);

  // ---- appending ----------------------------------------------------------
  // Append one log entry (+payload); persists entry then tail. Returns
  // the ns offset of the entry.
  std::uint64_t log_append(ThreadCtx& ctx, unsigned ino, const LogEntry& e,
                           std::span<const std::uint8_t> payload);

  // Batched variant (batch_log_appends, and truncate's page copy):
  // append several entries to one inode's log as coalesced bursts — the
  // batch is split into chunks of consecutive entries sized to the log
  // page, each chunk getting one terminator + fence pair, with one tail
  // persist for the whole batch. Crash-atomic per chunk: a chunk's first
  // magic word is persisted after everything else in it, so replay sees
  // a durable prefix of whole chunks, never a torn entry. A batch that
  // fits in one log page starts on a page with room for all of it, so it
  // is one chunk and commits whole. Returns each entry's ns offset, in
  // order.
  struct PendingEntry {
    LogEntry e;
    std::span<const std::uint8_t> payload;
  };
  std::vector<std::uint64_t> log_append_batch(
      ThreadCtx& ctx, unsigned ino, std::span<const PendingEntry> entries);

  // The one entry encoder: stage `e` and its payload at the end of
  // batch_, zero-padded to e.total_len, with the CRC footer when enabled.
  void encode_entry(const LogEntry& e, std::span<const std::uint8_t> payload);

  // Make room in `ino`'s log for `needed` more bytes (+terminator):
  // allocates and links a fresh log page when the current one is full.
  void ensure_log_space(ThreadCtx& ctx, unsigned ino, std::uint32_t needed);

  // The one dirent builder: a kDirent or kDirentDel entry naming `target`,
  // with its payload (u32 target ino, u32 name length, the name's bytes).
  struct Dirent {
    LogEntry e;
    std::vector<std::uint8_t> payload;
  };
  Dirent make_dirent(EntryType type, unsigned target,
                     const std::string& name) const;
  std::uint64_t append_dirent(ThreadCtx& ctx, EntryType type,
                              unsigned target_ino, const std::string& name);

  // Copy-on-write the page containing file offset `page_idx*4K`, merging
  // current overlays and the optional new segment: copy_page(), then log
  // and apply its entry.
  void cow_page(ThreadCtx& ctx, unsigned ino, std::uint64_t page_idx,
                std::span<const std::uint8_t> seg, std::size_t seg_in_page);
  // Write that merged copy to a fresh page and return the kWrite entry
  // that would publish it (not yet logged).
  LogEntry copy_page(ThreadCtx& ctx, unsigned ino, std::uint64_t page_idx,
                     std::span<const std::uint8_t> seg,
                     std::size_t seg_in_page);

  void read_page(ThreadCtx& ctx, DInode& di, std::uint64_t page_idx,
                 std::size_t begin, std::size_t len, std::uint8_t* out);

  // The one log rewrite, for the cleaner and repair: collect the old
  // chain, re-emit the live state through emit() into a fresh chain with
  // the head persist suppressed, switch the inode's log_head with one
  // 8-byte persist, then free the old pages. A crash before the switch
  // leaves the old log authoritative; mount's reachability scan reclaims
  // the orphaned new chain.
  template <typename Emit>
  void rewrite_log(ThreadCtx& ctx, unsigned ino, Emit emit);
  // Log cleaner: merge overlays into pages, then rewrite the log as pure
  // kWrite entries.
  void clean_log(ThreadCtx& ctx, unsigned ino);
  void release_inode_storage(ThreadCtx& ctx, unsigned ino);

  // The header of an entry of `type` with `payload` bytes after it.
  LogEntry make_entry(EntryType type, std::size_t payload,
                      std::uint64_t foff = 0, std::uint64_t page = 0,
                      std::uint64_t new_size = 0) const {
    return {kEntryMagic | type, entry_len(payload), foff, page, new_size};
  }
  // Checksum footer bytes per entry (log_checksum).
  std::uint32_t footer() const { return opt_.log_checksum ? 8u : 0u; }
  // Total entry length for `payload` bytes (header + payload, 8-aligned,
  // plus the optional checksum footer).
  std::uint32_t entry_len(std::size_t payload) const {
    return static_cast<std::uint32_t>(
               (sizeof(LogEntry) + payload + 7) / 8 * 8) +
           footer();
  }
  void scrub_line(ThreadCtx& ctx, std::uint64_t line_off);
  // End the log durably at `pos` after media damage or a malformed entry:
  // scrub the page's bad lines, clear the page's `next` link (the pages
  // past it leave the log), write a terminator, persist the tail hint,
  // and report it.
  void truncate_log_at(ThreadCtx& ctx, unsigned ino, std::uint64_t pos,
                       const std::string& why);
  // Add `ino` to recovery().logs_truncated unless it is the last one
  // there (replay and mount's chain walk can both end one log).
  void report_truncated(unsigned ino);
  std::string fsck_impl(ThreadCtx& ctx);
  // Per-format/mount read-path state (pmem::reset_read_path); the line
  // cache is built only under read_combine.
  void init_read_path();

  PmemNamespace& ns_;
  NovaOptions opt_;
  std::vector<std::uint64_t> free_pages_;  // LIFO, kSpread policy
  std::vector<std::vector<std::uint64_t>> free_by_channel_;  // kPinned
  std::map<std::string, int> namei_;
  std::vector<DInode> inodes_;
  std::uint64_t cleanings_ = 0;
  RecoveryInfo recovery_;
  // Set while rewrite_log() builds a replacement chain, so the atomic head
  // switch can happen once, after the whole chain is persisted.
  bool suppress_head_persist_ = false;
  pmem::LineBatcher batch_;  // reused staging for both append paths
  // ---- read-path state (NovaOptions::read_combine), idle when off --------
  std::unique_ptr<pmem::ReadCache> rcache_;
  pmem::LineReader lreader_;
};

}  // namespace xp::nova
