#include "txallo/sim/reconfig.h"

#include <algorithm>

namespace txallo::sim {

ReconfigStats CompareAllocations(const alloc::Allocation& before,
                                 const alloc::Allocation& after) {
  ReconfigStats stats;
  const alloc::ShardId* b = before.raw().data();
  const alloc::ShardId* a = after.raw().data();
  const size_t n = std::min(before.num_accounts(), after.num_accounts());
  // One branch-free pass over both arrays (it vectorizes): an account
  // counts when both sides place it, and moves when the two places differ.
  constexpr alloc::ShardId kNone = alloc::kUnassignedShard;
  uint64_t compared = 0;
  uint64_t moved = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t both = static_cast<uint64_t>(b[i] != kNone) &
                          static_cast<uint64_t>(a[i] != kNone);
    compared += both;
    moved += both & static_cast<uint64_t>(b[i] != a[i]);
  }
  stats.accounts_compared = compared;
  stats.accounts_moved = moved;
  if (stats.accounts_compared > 0) {
    stats.moved_fraction = static_cast<double>(stats.accounts_moved) /
                           static_cast<double>(stats.accounts_compared);
  }
  return stats;
}

}  // namespace txallo::sim
