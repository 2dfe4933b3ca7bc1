// Volatile (DRAM) memtable: RocksDB's default design, rebuilt from the
// WAL on recovery. Host-side data structure; each operation charges a
// fixed CPU cost in simulated time (it does not touch the modeled
// persistent-memory system — that's the whole point of the design).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "lsmkv/common.h"
#include "sim/scheduler.h"

namespace xp::kv {

enum class FindResult { kFound, kTombstone, kNotFound };

class Memtable {
 public:
  void put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value,
           bool tombstone) {
    ctx.advance_by(kCpuMemtableOp);
    auto [it, inserted] =
        map_.insert_or_assign(std::string(key),
                              Value{std::string(value), tombstone});
    if (inserted) bytes_ += key.size();
    bytes_ += value.size();
  }

  FindResult get(sim::ThreadCtx& ctx, std::string_view key,
                 std::string* value) const {
    ctx.advance_by(kCpuMemtableOp);
    auto it = map_.find(key);
    if (it == map_.end()) return FindResult::kNotFound;
    if (it->second.tombstone) return FindResult::kTombstone;
    if (value != nullptr) *value = it->second.data;
    return FindResult::kFound;
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t entries() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  // Sorted iteration from the first key >= start, until fn(key, value,
  // tombstone) returns false.
  template <typename Fn>
  void for_each_from(std::string_view start, Fn&& fn) const {
    for (auto it = map_.lower_bound(start); it != map_.end(); ++it)
      if (!fn(it->first, it->second.data, it->second.tombstone)) return;
  }

  void clear() {
    map_.clear();
    bytes_ = 0;
  }

 private:
  struct Value {
    std::string data;
    bool tombstone;
  };
  std::map<std::string, Value, std::less<>> map_;
  std::size_t bytes_ = 0;
};

}  // namespace xp::kv
