// Synthetic Ethereum-like transaction workload.
//
// Substitute for the paper's dataset (Ethereum blocks 10,000,000-10,600,000;
// 91.8M transactions, 12.6M accounts), reproducing the statistics the paper
// documents and that drive every evaluated behaviour (§VI-A, Fig. 1):
//   * long-tail account activity (Zipf within and across latent
//     communities) — "most accounts ... only have very few records";
//   * one hub account involved in ~11% of all transactions — "about 11%
//     transactions are associated with the most active account";
//   * community structure (transactions prefer counterparties inside the
//     sender's latent community) — what graph-based allocation exploits;
//   * multi-input/multi-output transactions and self-loop transactions
//     (§V-B's pending-withdrawal example);
//   * account churn: a configurable fraction of each community is
//     "late-born" and first transacts partway through the ledger, feeding
//     A-TxAllo's new-node path.
// Deterministic for a given seed.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/rng.h"
#include "txallo/common/status.h"
#include "txallo/common/zipf.h"

namespace txallo::workload {

struct EthereumLikeConfig {
  uint64_t num_blocks = 2'000;
  uint64_t txs_per_block = 200;
  /// Total accounts created (some may never transact).
  uint64_t num_accounts = 64'000;
  /// Latent communities; sizes follow Zipf(community_size_skew).
  uint32_t num_communities = 400;
  double community_size_skew = 0.6;
  /// Within-community activity skew.
  double member_activity_skew = 1.1;
  /// Probability that a transaction's counterparty is drawn from the
  /// sender's own community (the community structure strength).
  double p_intra_community = 0.92;
  /// Probability a transaction involves the global hub account (the
  /// paper's most-active account, ~11%).
  double hub_share = 0.11;
  /// Fraction of hub transactions whose sender comes from the hub's own
  /// community (exchange/contract users cluster around it); the rest come
  /// from anywhere and are irreducibly cross-shard.
  double hub_sender_local_bias = 0.5;
  /// Community skew of the remaining hub senders: they are drawn from
  /// communities by Zipf(rank, hub_sender_skew) rather than uniformly by
  /// size. Real hub counterparties are the chain's active head — without
  /// this, every tail community acquires hub edges and the absorption
  /// phase snowballs them all into the hub's shard.
  double hub_sender_skew = 1.3;
  /// Probability of a self-transfer (single-account transaction).
  double self_loop_rate = 0.002;
  /// Probability a transaction touches more than two accounts.
  double multi_party_rate = 0.05;
  /// Max distinct accounts of a multi-party transaction.
  uint32_t max_parties = 5;
  /// Fraction of each community born only as the ledger progresses.
  double late_born_fraction = 0.3;
  /// Funding level for the engine's account-state backend: every account
  /// starts (lazily, at first touch) with this balance. Part of the
  /// workload description — benches and fixtures copy it into
  /// EngineConfig::state.initial_balance so the funded workload and the
  /// executing backend can never drift apart. Tight funding makes
  /// insufficient-balance aborts part of the workload.
  int64_t initial_balance = 1'000'000;
  /// Transaction-pattern drift: every `drift_interval_blocks` blocks,
  /// `drift_fraction` of communities are re-pointed at a new partner
  /// community and route `drift_partner_share` of their intra traffic to
  /// it. 0 disables drift. Drift is what makes stale allocations decay —
  /// the stress test for A-TxAllo and for recency-weighted history.
  uint64_t drift_interval_blocks = 0;
  double drift_fraction = 0.1;
  double drift_partner_share = 0.5;
  uint64_t seed = 42;

  /// InvalidArgument on a config that would otherwise proceed into UB or
  /// silent nonsense: zero blocks/txs/accounts, more accounts than the
  /// AccountId space holds, fewer accounts than communities, out-of-range
  /// probabilities, negative skews, max_parties < 2. Construction does not
  /// call this (the defaults are valid and hot paths trust their caller);
  /// the scenario registry and every spec-string entry point do.
  Status Validate() const;
};

/// Stateful block-by-block generator. Accounts are pre-interned into the
/// registry (ids are dense); "birth" only controls when an account may
/// first appear in a transaction.
class EthereumLikeGenerator {
 public:
  explicit EthereumLikeGenerator(EthereumLikeConfig config);

  /// Generates the next block (block numbers increase from 0).
  chain::Block NextBlock();

  /// Generates `n` consecutive blocks into a fresh ledger.
  chain::Ledger GenerateLedger(uint64_t n);

  const chain::AccountRegistry& registry() const { return registry_; }
  const EthereumLikeConfig& config() const { return config_; }

  /// Mutable registry access for scenario overlays that intern extra
  /// synthetic accounts (mint contracts, sybil pools, asset contracts) on
  /// top of the background population. Overlay accounts get ids after the
  /// background accounts; CommunityOf()/SampleAccount() never return them.
  chain::AccountRegistry* mutable_registry() { return &registry_; }

  /// The designated hub account.
  chain::AccountId hub_account() const { return hub_; }

  uint64_t blocks_generated() const { return next_block_; }

  /// Number of background accounts (excludes any overlay-interned extras).
  uint64_t num_background_accounts() const { return total_accounts_; }

  uint32_t num_communities() const {
    return static_cast<uint32_t>(sizes_.size());
  }

  // Sampling hooks for scenario overlays (scenario.cc): draw background
  // accounts with the generator's own activity/birth model and RNG, so
  // overlay traffic targets the same long-tail population the background
  // produces. All draws advance rng_; call order is part of the seed
  // contract.
  chain::AccountId SampleAccount();
  chain::AccountId SampleFromCommunity(uint32_t community);
  uint32_t CommunityOf(chain::AccountId account) const;

 private:
  chain::Transaction MakeTransaction();
  // Draws a community with probability proportional to its size.
  uint32_t SampleCommunity();
  void MaybeApplyDrift();

  EthereumLikeConfig config_;
  chain::AccountRegistry registry_;
  Rng rng_;
  uint64_t next_block_ = 0;
  // BornFraction(config_, next_block_), recomputed when a block is done.
  double born_fraction_ = 1.0;
  uint64_t total_accounts_ = 0;

  // Community c owns account ids [starts_[c], starts_[c] + sizes_[c]).
  std::vector<uint64_t> starts_;
  std::vector<uint64_t> sizes_;
  std::vector<double> community_cdf_;  // P(community) ∝ its size.
  ZipfSampler hub_sender_communities_;
  // Member activity: communities of equal size share one sampler, so
  // community c draws from member_samplers_[sampler_of_[c]].
  std::vector<ZipfSampler> member_samplers_;
  std::vector<uint32_t> sampler_of_;
  std::vector<uint32_t> partner_;  // Drift partner per community.
  chain::AccountId hub_ = 0;
  // Outputs of the multi-party transaction being built (reused).
  std::vector<chain::AccountId> multi_outputs_;
};

}  // namespace txallo::workload
