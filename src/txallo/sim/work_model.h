// Per-transaction work accounting of the paper's execution model.
//
// An intra-shard transaction costs 1 work unit on its one shard, a
// cross-shard transaction costs η on every involved shard (§III-B's workload
// factor), each shard processes λ work units per block, and a cross-shard
// transaction pays extra commit round(s) after its last part finishes (the
// additional round of consensus §I describes). engine::ParallelEngine
// executes these semantics; benches use the same struct to provision λ.
#pragma once

#include <cstdint>

namespace txallo::sim {

/// The η/λ/commit-round cost model.
struct WorkModel {
  /// Workload factor of a cross-shard transaction part.
  double eta = 2.0;
  /// Workload units one shard can process per block.
  double capacity_per_block = 100.0;
  /// Extra commit rounds a cross-shard transaction pays after its last
  /// shard part finishes.
  uint32_t cross_shard_commit_rounds = 1;

  /// Work one shard spends on its part of a transaction.
  double PartWork(bool cross_shard) const { return cross_shard ? eta : 1.0; }

  /// Block at which a transaction whose last part finished at
  /// `last_part_block` actually commits.
  uint64_t CommitBlock(uint64_t last_part_block, bool cross_shard) const {
    return cross_shard ? last_part_block + cross_shard_commit_rounds
                       : last_part_block;
  }
};

}  // namespace txallo::sim
