// Minimal file-system interface shared by the NOVA reimplementation and
// the DAX comparators, plus the common kernel-crossing cost model.
//
// All implementations are driven by simulated threads and store real
// bytes in a PmemNamespace, so tests can verify data integrity and crash
// behavior, and FIO (src/fio) can drive any of them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sim/simtime.h"
#include "xpsim/platform.h"

namespace xp::nova {

using hw::PmemNamespace;
using sim::ThreadCtx;

// Per-syscall CPU costs (user/kernel crossing + VFS path); the paper's
// file-IO latencies include them on every file system.
struct FsCosts {
  sim::Time write_syscall = sim::ns(500);
  sim::Time read_syscall = sim::ns(400);
  sim::Time fsync_syscall = sim::ns(600);
  sim::Time open_syscall = sim::ns(900);
};
inline constexpr FsCosts kFsCosts{};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Returns the inode number, or -1 on failure.
  virtual int create(ThreadCtx& ctx, const std::string& name) = 0;
  virtual int open(ThreadCtx& ctx, const std::string& name) = 0;

  // `charge_syscall=false` lets callers (e.g. the FIO engine) split one
  // logical syscall into multiple calls without multiplying the kernel-
  // crossing cost.
  virtual void write(ThreadCtx& ctx, int ino, std::uint64_t off,
                     std::span<const std::uint8_t> data,
                     bool charge_syscall = true) = 0;
  virtual std::size_t read(ThreadCtx& ctx, int ino, std::uint64_t off,
                           std::span<std::uint8_t> out,
                           bool charge_syscall = true) = 0;
  virtual void fsync(ThreadCtx& ctx, int ino) = 0;
  virtual std::uint64_t size(ThreadCtx& ctx, int ino) = 0;

  virtual const char* name() const = 0;
};

}  // namespace xp::nova
