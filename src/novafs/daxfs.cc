#include "novafs/daxfs.h"

#include <algorithm>
#include <cassert>

namespace xp::nova {

int DaxFs::create(ThreadCtx& ctx, const std::string& name) {
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(name);
  if (it != namei_.end()) return it->second;
  const int ino = static_cast<int>(inodes_.size());
  inodes_.emplace_back();
  namei_[name] = ino;
  return ino;
}

int DaxFs::open(ThreadCtx& ctx, const std::string& name) {
  ctx.advance_by(kFsCosts.open_syscall);
  auto it = namei_.find(name);
  return it == namei_.end() ? -1 : it->second;
}

std::uint64_t DaxFs::block_for(ThreadCtx& ctx, Inode& inode,
                               std::uint64_t file_block) {
  auto it = inode.blocks.find(file_block);
  if (it != inode.blocks.end()) return it->second;
  const std::uint64_t blk = next_block_++;
  assert((blk + 1) * kBlockSize <= ns_.size());
  inode.blocks[file_block] = blk;
  (void)ctx;
  return blk;
}

void DaxFs::write(ThreadCtx& ctx, int ino, std::uint64_t off,
                  std::span<const std::uint8_t> data, bool charge_syscall) {
  if (charge_syscall) ctx.advance_by(kFsCosts.write_syscall);
  Inode& inode = inodes_[static_cast<std::size_t>(ino)];
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t foff = off + pos;
    const std::uint64_t fblock = foff / kBlockSize;
    const std::uint64_t in_block = foff % kBlockSize;
    const std::size_t n = std::min<std::size_t>(data.size() - pos,
                                                kBlockSize - in_block);
    const std::uint64_t blk = block_for(ctx, inode, fblock);
    // In-place DAX write: cached stores through the kernel mapping.
    ns_.store(ctx, blk * kBlockSize + in_block, data.subspan(pos, n));
    pos += n;
  }
  inode.size = std::max(inode.size, off + data.size());
  inode.dirty_begin = std::min(inode.dirty_begin, off);
  inode.dirty_end = std::max(inode.dirty_end, off + data.size());
  if (sync_mode_) do_fsync(ctx, inode);
}

void DaxFs::do_fsync(ThreadCtx& ctx, Inode& inode) {
  ctx.advance_by(kFsCosts.fsync_syscall);
  if (inode.dirty_end > inode.dirty_begin) {
    // Flush the dirty file range back through the cache, block by block.
    for (std::uint64_t foff = inode.dirty_begin / kBlockSize * kBlockSize;
         foff < inode.dirty_end; foff += kBlockSize) {
      auto it = inode.blocks.find(foff / kBlockSize);
      if (it == inode.blocks.end()) continue;
      const std::uint64_t begin = std::max(inode.dirty_begin, foff);
      const std::uint64_t end =
          std::min(inode.dirty_end, foff + kBlockSize);
      ns_.clwb(ctx, it->second * kBlockSize + (begin - foff) +
                        (foff % kBlockSize),
               static_cast<std::size_t>(end - begin));
    }
    ns_.sfence(ctx);
  }
  // Metadata journal commit (sequential record + device flush).
  std::vector<std::uint8_t> rec(profile_.journal_bytes, 0x4a);
  if (journal_tail_ + rec.size() > kJournalArea) journal_tail_ = 0;
  ns_.ntstore_persist(ctx, journal_tail_, rec);
  journal_tail_ += rec.size();
  ctx.advance_by(profile_.journal_commit);
  inode.dirty_begin = ~std::uint64_t{0};
  inode.dirty_end = 0;
}

std::size_t DaxFs::read(ThreadCtx& ctx, int ino, std::uint64_t off,
                        std::span<std::uint8_t> out, bool charge_syscall) {
  if (charge_syscall) ctx.advance_by(kFsCosts.read_syscall);
  Inode& inode = inodes_[static_cast<std::size_t>(ino)];
  if (off >= inode.size) return 0;
  const std::size_t len =
      std::min<std::uint64_t>(out.size(), inode.size - off);
  std::size_t pos = 0;
  while (pos < len) {
    const std::uint64_t foff = off + pos;
    const std::uint64_t fblock = foff / kBlockSize;
    const std::uint64_t in_block = foff % kBlockSize;
    const std::size_t n =
        std::min<std::size_t>(len - pos, kBlockSize - in_block);
    auto it = inode.blocks.find(fblock);
    if (it == inode.blocks.end()) {
      std::memset(out.data() + pos, 0, n);
    } else {
      ns_.load(ctx, it->second * kBlockSize + in_block,
               out.subspan(pos, n));
    }
    pos += n;
  }
  return len;
}

void DaxFs::fsync(ThreadCtx& ctx, int ino) {
  do_fsync(ctx, inodes_[static_cast<std::size_t>(ino)]);
}

std::uint64_t DaxFs::size(ThreadCtx& ctx, int ino) {
  (void)ctx;
  return inodes_[static_cast<std::size_t>(ino)].size;
}

}  // namespace xp::nova
