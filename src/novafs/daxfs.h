// DAX file-system comparators: stand-ins for XFS-DAX and Ext4-DAX.
//
// These are the Linux file systems the paper's Fig 12 compares NOVA
// against. Both do *in-place* data writes (cached stores through the
// kernel's DAX path) and, in "-sync" mode, an fsync that flushes the
// written range and commits a metadata journal transaction. Neither
// provides data consistency across crashes — exactly the property the
// figure calls out.
//
// The two profiles differ in journal cost: the paper's Fig 12 shows
// Ext4-DAX-sync overwrites clipped at 40-57 us (jbd2 commit), while
// XFS-DAX-sync sits near 5 us (log-record insert).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "novafs/vfs.h"

namespace xp::nova {

struct DaxProfile {
  const char* name;
  sim::Time journal_commit;  // extra cost of an fsync's metadata commit
  std::uint64_t journal_bytes;  // sequential journal record size
};

inline DaxProfile xfs_profile() {
  return {"xfs-dax", sim::ns(2800), 512};
}
inline DaxProfile ext4_profile() {
  return {"ext4-dax", sim::us(36), 4096};
}

class DaxFs final : public FileSystem {
 public:
  // Occupies all of `ns`. `sync_mode` adds fsync after every write
  // (the "-sync" bars of Fig 12).
  DaxFs(PmemNamespace& ns, DaxProfile profile, bool sync_mode)
      : ns_(ns), profile_(profile), sync_mode_(sync_mode) {
    // Reserve a journal area at the front; blocks follow.
    next_block_ = (kJournalArea + kBlockSize - 1) / kBlockSize;
  }

  int create(ThreadCtx& ctx, const std::string& name) override;
  int open(ThreadCtx& ctx, const std::string& name) override;
  void write(ThreadCtx& ctx, int ino, std::uint64_t off,
             std::span<const std::uint8_t> data,
             bool charge_syscall = true) override;
  std::size_t read(ThreadCtx& ctx, int ino, std::uint64_t off,
                   std::span<std::uint8_t> out,
                   bool charge_syscall = true) override;
  void fsync(ThreadCtx& ctx, int ino) override;
  std::uint64_t size(ThreadCtx& ctx, int ino) override;
  const char* name() const override { return profile_.name; }

 private:
  static constexpr std::uint64_t kBlockSize = 4096;
  static constexpr std::uint64_t kJournalArea = 1 << 20;

  struct Inode {
    std::uint64_t size = 0;
    // file block index -> device block number (in-DRAM extent map; this
    // comparator doesn't model its own metadata persistence).
    std::map<std::uint64_t, std::uint64_t> blocks;
    // Dirty range since last fsync (for the flush in sync mode).
    std::uint64_t dirty_begin = ~std::uint64_t{0};
    std::uint64_t dirty_end = 0;
  };

  std::uint64_t block_for(ThreadCtx& ctx, Inode& inode,
                          std::uint64_t file_block);
  void do_fsync(ThreadCtx& ctx, Inode& inode);

  PmemNamespace& ns_;
  DaxProfile profile_;
  bool sync_mode_;
  std::map<std::string, int> namei_;
  std::vector<Inode> inodes_;
  std::uint64_t next_block_;
  std::uint64_t journal_tail_ = 0;
};

}  // namespace xp::nova
