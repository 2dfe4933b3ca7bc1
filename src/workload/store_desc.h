// One StoreIface configuration as the verification harnesses see it:
// how to build the store from scratch over fresh namespaces, which keys
// it is driven with and how long its values are. The crash, fault and
// schedule harnesses (crashmc/workloads.h, schedmc/targets.h) each run a
// generic target over these descriptors, so a bare family adapter and
// the sharded or replicated frontend are checked the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "lsmkv/common.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "sim/rng.h"
#include "workload/shard.h"

namespace xp::workload {

struct StoreDesc {
  // A family's own options build a bare adapter over one interleaved
  // namespace; ShardOptions build a ShardedStore over `shards` per-DIMM
  // namespaces.
  std::variant<kv::DbOptions, pmemkv::CMapOptions, pmemkv::STreeOptions,
               ShardOptions>
      options;
  unsigned shards = 1;
  std::uint64_t ns_bytes = 8ull << 20;  // per namespace
  unsigned keys = 8;                    // key(0) .. key(keys - 1)
  // Values are resized to value_min + value_step * U(value_choices)
  // bytes; value_min == 0 keeps them as generated.
  std::size_t value_min = 0;
  std::size_t value_step = 1;
  unsigned value_choices = 1;

  static std::string key(unsigned i);
  std::string shape_value(std::string v, sim::Rng& rng) const;

  bool frontend() const {
    return std::holds_alternative<ShardOptions>(options);
  }
  // Deferred lsmkv compaction: someone must donate background turns.
  bool defers_compaction() const;
  // Crash-atomic domain of `key`: its logical shard behind a frontend (a
  // cross-shard batch commits shard by shard), else the whole store.
  unsigned domain_of(std::string_view key) const {
    return frontend() ? shard_of(key, shards) : 0;
  }
  unsigned domains() const { return frontend() ? shards : 1; }

  std::vector<hw::PmemNamespace*> make_namespaces(hw::Platform& p) const;
  std::unique_ptr<StoreIface> build(
      std::span<hw::PmemNamespace* const> ns) const;
};

}  // namespace xp::workload
