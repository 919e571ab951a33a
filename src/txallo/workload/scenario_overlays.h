// The primitive overlay generators the scenario registry composes (see
// scenario.h for the composition model). Each overlay is directly
// constructible for tests; spec-string defaults and validation live in
// scenario_registry.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "txallo/common/zipf.h"
#include "txallo/workload/scenario.h"

namespace txallo::workload {

/// NFT-mint flash crowd: one contract account ramps to a dominant share of
/// all traffic, with senders drawn from the whole background population.
/// Share is 0 before `start`, ramps linearly to `peak_share` over `ramp`
/// blocks, holds for `hold`, decays linearly over `decay`, then 0 again.
struct HotSpikeParams {
  uint64_t start = 0;
  uint64_t ramp = 1;
  uint64_t hold = 1;
  uint64_t decay = 1;
  double peak_share = 0.6;
};

class HotSpikeOverlay : public Overlay {
 public:
  explicit HotSpikeOverlay(HotSpikeParams params) : params_(params) {}
  Status Prepare(EthereumLikeGenerator* background) override;
  double Share(uint64_t block) const override;
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;
  chain::AccountId mint_account() const { return mint_; }

 private:
  HotSpikeParams params_;
  chain::AccountId mint_ = chain::kInvalidAccount;
};

/// Diurnal drift: a `share` of traffic is "time-of-day" dependent, rotating
/// through the communities once per `period` blocks — at any block only a
/// window of `width` communities is awake for that traffic. Stresses
/// allocations built on stale activity.
struct DiurnalParams {
  uint64_t period = 24;
  double share = 0.5;
  uint32_t width = 4;
};

class DiurnalOverlay : public Overlay {
 public:
  explicit DiurnalOverlay(DiurnalParams params) : params_(params) {}
  double Share(uint64_t /*block*/) const override { return params_.share; }
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;

 private:
  DiurnalParams params_;
};

/// Account churn beyond the background's late-born knob: a pool of
/// short-lived accounts with staggered births (one every
/// `horizon_blocks / pool` blocks) that stop transacting `lifetime` blocks
/// after birth. Feeds A-TxAllo's new-node path continuously and leaves dead
/// weight in stale allocations.
struct ChurnParams {
  uint64_t pool = 256;
  uint64_t lifetime = 16;
  double share = 0.3;
  /// Probability a churn transaction's counterparty is another live churn
  /// account (vs. a background account).
  double intra = 0.5;
  uint64_t horizon_blocks = 64;
};

class ChurnOverlay : public Overlay {
 public:
  explicit ChurnOverlay(ChurnParams params) : params_(params) {}
  Status Prepare(EthereumLikeGenerator* background) override;
  double Share(uint64_t /*block*/) const override { return params_.share; }
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;

 private:
  ChurnParams params_;
  // Pool account j is first_pool_ + j (the registry hands out
  // consecutive ids).
  chain::AccountId first_pool_ = chain::kInvalidAccount;
  uint64_t spacing_ = 1;
};

/// Multi-asset transfers (syscoin-style asset allocations): transfers carry
/// an extra asset-contract output. Communities prefer "their" asset
/// (community c leans on asset (c + Zipf) mod assets), so asset contracts
/// become shared hot accounts between communities.
struct MultiAssetParams {
  uint32_t assets = 8;
  double share = 0.4;
  double asset_skew = 1.0;
};

class MultiAssetOverlay : public Overlay {
 public:
  explicit MultiAssetOverlay(MultiAssetParams params) : params_(params) {}
  Status Prepare(EthereumLikeGenerator* background) override;
  double Share(uint64_t /*block*/) const override { return params_.share; }
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;

 private:
  MultiAssetParams params_;
  // Asset i is first_asset_ + i.
  chain::AccountId first_asset_ = chain::kInvalidAccount;
  std::unique_ptr<ZipfSampler> asset_zipf_;
};

/// Single-shard overload attack: `attackers` fresh accounts concentrate
/// `share` of all traffic on the background accounts that hash routing
/// (`OrderKey(id) % shards`) would place on shard `target`. Under the hash
/// baseline every one of these transactions lands on (or crosses into) the
/// victim shard; history-driven allocators can spread the victims.
struct ShardAttackParams {
  uint32_t shards = 8;
  uint32_t target = 0;
  uint32_t attackers = 64;
  double share = 0.4;
  double victim_skew = 1.0;
};

class ShardAttackOverlay : public Overlay {
 public:
  explicit ShardAttackOverlay(ShardAttackParams params) : params_(params) {}
  Status Prepare(EthereumLikeGenerator* background) override;
  double Share(uint64_t /*block*/) const override { return params_.share; }
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;
  size_t num_victims() const { return victims_.size(); }

 private:
  ShardAttackParams params_;
  // Attacker i is first_attacker_ + i.
  chain::AccountId first_attacker_ = chain::kInvalidAccount;
  std::vector<chain::AccountId> victims_;
  std::unique_ptr<ZipfSampler> victim_zipf_;
};

/// Sybil fan-out: a pool of fresh addresses born over the run, each
/// spraying `fanout`-output transactions at the (activity-skewed)
/// background population. Pure new-account pressure with no history to
/// exploit.
struct SybilParams {
  uint64_t sybils = 512;
  uint32_t fanout = 4;
  double share = 0.3;
  uint64_t horizon_blocks = 64;
};

class SybilOverlay : public Overlay {
 public:
  explicit SybilOverlay(SybilParams params) : params_(params) {}
  Status Prepare(EthereumLikeGenerator* background) override;
  double Share(uint64_t /*block*/) const override { return params_.share; }
  chain::Transaction Generate(uint64_t block, Rng* rng,
                              EthereumLikeGenerator* background) override;

 private:
  SybilParams params_;
  // Sybil i is first_sybil_ + i.
  chain::AccountId first_sybil_ = chain::kInvalidAccount;
  // Outputs of the transaction being built (reused).
  std::vector<chain::AccountId> outputs_;
};

}  // namespace txallo::workload
