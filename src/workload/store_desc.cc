#include "workload/store_desc.h"

#include <cstdio>
#include <type_traits>

namespace xp::workload {

std::string StoreDesc::key(unsigned i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%02u", i);
  return buf;
}

std::string StoreDesc::shape_value(std::string v, sim::Rng& rng) const {
  if (value_min != 0)
    v.resize(value_min + value_step * rng.uniform(value_choices), 'x');
  return v;
}

bool StoreDesc::defers_compaction() const {
  if (const auto* o = std::get_if<kv::DbOptions>(&options))
    return o->background_compaction;
  if (const auto* o = std::get_if<ShardOptions>(&options))
    return o->kind == StoreKind::kLsmkv && o->tuning.background_compaction;
  return false;
}

std::vector<hw::PmemNamespace*> StoreDesc::make_namespaces(
    hw::Platform& p) const {
  if (frontend()) return ShardedStore::make_namespaces(p, shards, ns_bytes);
  return {&p.optane(ns_bytes)};
}

std::unique_ptr<StoreIface> StoreDesc::build(
    std::span<hw::PmemNamespace* const> ns) const {
  return std::visit(
      [&](const auto& o) -> std::unique_ptr<StoreIface> {
        if constexpr (std::is_same_v<std::decay_t<decltype(o)>, ShardOptions>)
          return std::make_unique<ShardedStore>(ns, o);
        else
          return make_store(*ns[0], o);
      },
      options);
}

}  // namespace xp::workload
