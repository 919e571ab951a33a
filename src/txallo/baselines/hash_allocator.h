// Hash-based random allocation — the traditional scheme of Chainspace /
// Monoxide / OmniLedger / RapidChain (paper §II-C): an account lives in
// shard SHA256(address) mod k. History-oblivious, so ~ (1 - 1/k) of
// two-account transactions land cross-shard (the paper's 98% at k = 60).
#pragma once

#include <cstdint>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/account.h"

namespace txallo::baselines {

/// Hash mapping over `domain` accounts: the address hash (registry
/// OrderKey) for the first `known` ids, SHA256(little-endian id) for the
/// synthetic tail beyond them. Keeps registry-known accounts' placement
/// stable as the domain grows — no global reshard when one synthetic id
/// appears. A pure function of its arguments: the registry only appends, so
/// the first `known` order keys never change. `registry` may be null when
/// `known` is 0.
alloc::Allocation AllocateByHash(const chain::AccountRegistry* registry,
                                 size_t known, size_t domain,
                                 uint32_t num_shards);

/// Allocates every account of `registry` by SHA256(address) mod k.
/// (The implementation uses the first 64 bits of the digest, which is
/// equivalent modulo the truncation and what OrderKey already caches.)
alloc::Allocation AllocateByHash(const chain::AccountRegistry& registry,
                                 uint32_t num_shards);

/// Id-keyed variant for synthetic account sets without a registry:
/// SHA256(little-endian id) mod k.
alloc::Allocation AllocateByHash(size_t num_accounts, uint32_t num_shards);

}  // namespace txallo::baselines
