#include "txallo/baselines/hash_allocator.h"

#include "txallo/common/sha256.h"

namespace txallo::baselines {

alloc::Allocation AllocateByHash(const chain::AccountRegistry* registry,
                                 size_t known, size_t domain,
                                 uint32_t num_shards) {
  alloc::Allocation allocation(domain, num_shards);
  for (size_t a = 0; a < domain; ++a) {
    const auto id = static_cast<chain::AccountId>(a);
    const uint64_t key = a < known ? registry->OrderKey(id)
                                   : Sha256::Hash64(static_cast<uint64_t>(a));
    allocation.Assign(id, static_cast<alloc::ShardId>(key % num_shards));
  }
  return allocation;
}

alloc::Allocation AllocateByHash(const chain::AccountRegistry& registry,
                                 uint32_t num_shards) {
  return AllocateByHash(&registry, registry.size(), registry.size(),
                        num_shards);
}

alloc::Allocation AllocateByHash(size_t num_accounts, uint32_t num_shards) {
  return AllocateByHash(nullptr, 0, num_accounts, num_shards);
}

}  // namespace txallo::baselines
