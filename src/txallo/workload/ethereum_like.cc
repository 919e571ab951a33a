#include "txallo/workload/ethereum_like.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace txallo::workload {

using chain::AccountId;

namespace {

Status CheckFraction(const char* field, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(
        std::string("EthereumLikeConfig.") + field +
        " must be in [0, 1], got " + std::to_string(value));
  }
  return Status::OK();
}

Status CheckNonNegative(const char* field, double value) {
  if (!(value >= 0.0)) {
    return Status::InvalidArgument(std::string("EthereumLikeConfig.") +
                                   field + " must be >= 0, got " +
                                   std::to_string(value));
  }
  return Status::OK();
}

// Birth gating: the share of each community born by block `next_block`.
// The late-born tail only becomes sampleable as the ledger progresses
// (fully born at 90% of num_blocks).
double BornFraction(const EthereumLikeConfig& config, uint64_t next_block) {
  const double progress =
      config.num_blocks > 0
          ? std::min(1.0, static_cast<double>(next_block) /
                              (0.9 * static_cast<double>(config.num_blocks)))
          : 1.0;
  return 1.0 - config.late_born_fraction * (1.0 - progress);
}

}  // namespace

Status EthereumLikeConfig::Validate() const {
  if (num_blocks == 0) {
    return Status::InvalidArgument("EthereumLikeConfig.num_blocks must be > 0");
  }
  if (txs_per_block == 0) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.txs_per_block must be > 0");
  }
  if (num_accounts < 2) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.num_accounts must be >= 2, got " +
        std::to_string(num_accounts));
  }
  if (num_accounts >= chain::kInvalidAccount) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.num_accounts must be < " +
        std::to_string(chain::kInvalidAccount) +
        " (the account id space), got " + std::to_string(num_accounts));
  }
  if (num_communities == 0) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.num_communities must be > 0");
  }
  if (num_accounts < num_communities) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.num_accounts (" + std::to_string(num_accounts) +
        ") must be >= num_communities (" + std::to_string(num_communities) +
        ")");
  }
  if (max_parties < 2) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.max_parties must be >= 2, got " +
        std::to_string(max_parties));
  }
  if (initial_balance < 0) {
    return Status::InvalidArgument(
        "EthereumLikeConfig.initial_balance must be >= 0, got " +
        std::to_string(initial_balance));
  }
  TXALLO_RETURN_NOT_OK(CheckNonNegative("community_size_skew",
                                        community_size_skew));
  TXALLO_RETURN_NOT_OK(CheckNonNegative("member_activity_skew",
                                        member_activity_skew));
  TXALLO_RETURN_NOT_OK(CheckNonNegative("hub_sender_skew", hub_sender_skew));
  TXALLO_RETURN_NOT_OK(CheckFraction("p_intra_community", p_intra_community));
  TXALLO_RETURN_NOT_OK(CheckFraction("hub_share", hub_share));
  TXALLO_RETURN_NOT_OK(CheckFraction("hub_sender_local_bias",
                                     hub_sender_local_bias));
  TXALLO_RETURN_NOT_OK(CheckFraction("self_loop_rate", self_loop_rate));
  TXALLO_RETURN_NOT_OK(CheckFraction("multi_party_rate", multi_party_rate));
  TXALLO_RETURN_NOT_OK(CheckFraction("late_born_fraction",
                                     late_born_fraction));
  TXALLO_RETURN_NOT_OK(CheckFraction("drift_fraction", drift_fraction));
  TXALLO_RETURN_NOT_OK(CheckFraction("drift_partner_share",
                                     drift_partner_share));
  return Status::OK();
}

EthereumLikeGenerator::EthereumLikeGenerator(EthereumLikeConfig config)
    : config_(config),
      rng_(config.seed),
      hub_sender_communities_(std::max<uint32_t>(1, config.num_communities),
                              config.hub_sender_skew) {
  // --- Community sizes: Zipf over community rank, padded/trimmed on the
  // largest community so the total is exactly num_accounts. ---
  const uint32_t nc = std::max<uint32_t>(1, config_.num_communities);
  std::vector<double> raw(nc);
  double raw_total = 0.0;
  for (uint32_t c = 0; c < nc; ++c) {
    raw[c] = 1.0 / std::pow(static_cast<double>(c + 1),
                            config_.community_size_skew);
    raw_total += raw[c];
  }
  sizes_.resize(nc);
  uint64_t assigned = 0;
  for (uint32_t c = 0; c < nc; ++c) {
    uint64_t size = static_cast<uint64_t>(
        std::llround(raw[c] / raw_total *
                     static_cast<double>(config_.num_accounts)));
    if (size == 0) size = 1;
    sizes_[c] = size;
    assigned += size;
  }
  // Rebalance community 0 to hit the exact account budget.
  if (assigned > config_.num_accounts) {
    const uint64_t excess = assigned - config_.num_accounts;
    sizes_[0] = sizes_[0] > excess ? sizes_[0] - excess : 1;
  } else {
    sizes_[0] += config_.num_accounts - assigned;
  }

  starts_.resize(nc);
  uint64_t cursor = 0;
  for (uint32_t c = 0; c < nc; ++c) {
    starts_[c] = cursor;
    cursor += sizes_[c];
  }
  const uint64_t total_accounts = cursor;
  total_accounts_ = total_accounts;

  // --- Register all accounts (ids dense, birth handled at sampling time).
  // The first two members of every community are contract accounts: the
  // hot smart contracts the community clusters around. ---
  uint32_t community = 0;  // Ids arrive in order: walk the communities.
  const Result<AccountId> created = registry_.CreateSynthetic(
      total_accounts, [this, &community](uint64_t id) {
        while (id >= starts_[community] + sizes_[community]) ++community;
        return id - starts_[community] < 2
                   ? chain::AccountType::kContract
                   : chain::AccountType::kExternallyOwned;
      });
  if (!created.ok()) {
    // Validate() bounds num_accounts by the id space; an unvalidated config
    // past it is a caller bug, not an input to recover from.
    std::fprintf(stderr, "EthereumLikeGenerator: %s\n",
                 created.status().ToString().c_str());
    std::abort();
  }
  hub_ = static_cast<AccountId>(starts_[0]);

  // --- Community selection CDF: P(c) ∝ size_c. ---
  community_cdf_.resize(nc);
  double acc = 0.0;
  for (uint32_t c = 0; c < nc; ++c) {
    acc += static_cast<double>(sizes_[c]);
    community_cdf_[c] = acc;
  }
  for (uint32_t c = 0; c < nc; ++c) {
    community_cdf_[c] /= acc;
  }
  community_cdf_[nc - 1] = 1.0;

  // --- Member activity samplers, one per distinct community size. ---
  std::vector<uint64_t> distinct_sizes = sizes_;
  std::sort(distinct_sizes.begin(), distinct_sizes.end());
  distinct_sizes.erase(
      std::unique(distinct_sizes.begin(), distinct_sizes.end()),
      distinct_sizes.end());
  member_samplers_.reserve(distinct_sizes.size());
  for (uint64_t size : distinct_sizes) {
    member_samplers_.emplace_back(size, config_.member_activity_skew);
  }
  sampler_of_.resize(nc);
  for (uint32_t c = 0; c < nc; ++c) {
    sampler_of_[c] = static_cast<uint32_t>(
        std::lower_bound(distinct_sizes.begin(), distinct_sizes.end(),
                         sizes_[c]) -
        distinct_sizes.begin());
  }

  partner_.resize(nc);
  for (uint32_t c = 0; c < nc; ++c) partner_[c] = c;
  born_fraction_ = BornFraction(config_, next_block_);
}

void EthereumLikeGenerator::MaybeApplyDrift() {
  if (config_.drift_interval_blocks == 0 || next_block_ == 0 ||
      next_block_ % config_.drift_interval_blocks != 0) {
    return;
  }
  const uint32_t nc = static_cast<uint32_t>(partner_.size());
  const uint64_t rewires = std::max<uint64_t>(
      1, static_cast<uint64_t>(config_.drift_fraction * nc));
  for (uint64_t i = 0; i < rewires; ++i) {
    const uint32_t c = static_cast<uint32_t>(rng_.NextBounded(nc));
    partner_[c] = static_cast<uint32_t>(rng_.NextBounded(nc));
  }
}

uint32_t EthereumLikeGenerator::CommunityOf(AccountId account) const {
  // Largest start <= account.
  auto it = std::upper_bound(starts_.begin(), starts_.end(),
                             static_cast<uint64_t>(account));
  return static_cast<uint32_t>(it - starts_.begin()) - 1;
}

chain::AccountId EthereumLikeGenerator::SampleFromCommunity(
    uint32_t community) {
  uint64_t rank = member_samplers_[sampler_of_[community]].Sample(&rng_);
  uint64_t born = static_cast<uint64_t>(
      std::ceil(born_fraction_ * static_cast<double>(sizes_[community])));
  if (born == 0) born = 1;
  if (rank >= born) rank %= born;
  return static_cast<AccountId>(starts_[community] + rank);
}

uint32_t EthereumLikeGenerator::SampleCommunity() {
  const double u = rng_.NextDouble();
  auto it = std::lower_bound(community_cdf_.begin(), community_cdf_.end(), u);
  return it == community_cdf_.end()
             ? static_cast<uint32_t>(community_cdf_.size() - 1)
             : static_cast<uint32_t>(it - community_cdf_.begin());
}

chain::AccountId EthereumLikeGenerator::SampleAccount() {
  return SampleFromCommunity(SampleCommunity());
}

chain::Transaction EthereumLikeGenerator::MakeTransaction() {
  if (rng_.NextBernoulli(config_.self_loop_rate)) {
    const AccountId a = SampleAccount();
    return chain::Transaction::Simple(a, a);
  }
  // The sender's community is known from its draw: no CommunityOf(sender).
  uint32_t community = 0;
  AccountId sender = chain::kInvalidAccount;
  AccountId receiver = chain::kInvalidAccount;
  if (rng_.NextBernoulli(config_.hub_share)) {
    receiver = hub_;
    community = rng_.NextBernoulli(config_.hub_sender_local_bias)
                    ? 0  // The hub is community 0's first account.
                    : static_cast<uint32_t>(
                          hub_sender_communities_.Sample(&rng_));
    sender = SampleFromCommunity(community);
  } else {
    community = SampleCommunity();
    sender = SampleFromCommunity(community);
    if (rng_.NextBernoulli(config_.p_intra_community)) {
      // Under drift, part of the community's traffic follows its partner.
      uint32_t c = community;
      if (partner_[c] != c &&
          rng_.NextBernoulli(config_.drift_partner_share)) {
        c = partner_[c];
      }
      receiver = SampleFromCommunity(c);
    } else {
      receiver = SampleAccount();
    }
  }
  if (receiver == sender) {
    receiver = SampleFromCommunity(community);
    if (receiver == sender) {
      // Still colliding (tiny/Zipf-heavy community): take the sender's
      // neighbor account so self-transfers stay at self_loop_rate.
      const uint64_t offset =
          (static_cast<uint64_t>(sender) - starts_[community] + 1) %
          sizes_[community];
      receiver = static_cast<AccountId>(starts_[community] + offset);
    }
  }

  if (config_.max_parties <= 2 ||
      !rng_.NextBernoulli(config_.multi_party_rate)) {
    return chain::Transaction::Simple(sender, receiver);
  }
  multi_outputs_.assign(1, receiver);
  const uint64_t extras = 1 + rng_.NextBounded(config_.max_parties - 2);
  for (uint64_t i = 0; i < extras; ++i) {
    if (rng_.NextBernoulli(config_.p_intra_community)) {
      multi_outputs_.push_back(SampleFromCommunity(community));
    } else {
      multi_outputs_.push_back(SampleAccount());
    }
  }
  const AccountId inputs[] = {sender};
  return chain::Transaction(inputs, multi_outputs_);
}

chain::Block EthereumLikeGenerator::NextBlock() {
  MaybeApplyDrift();
  std::vector<chain::Transaction> txs;
  txs.reserve(config_.txs_per_block);
  for (uint64_t i = 0; i < config_.txs_per_block; ++i) {
    txs.push_back(MakeTransaction());
  }
  chain::Block block(next_block_++, std::move(txs));
  born_fraction_ = BornFraction(config_, next_block_);
  return block;
}

chain::Ledger EthereumLikeGenerator::GenerateLedger(uint64_t n) {
  chain::Ledger ledger;
  for (uint64_t b = 0; b < n; ++b) {
    Status st = ledger.Append(NextBlock());
    if (!st.ok()) {
      // Block numbers are strictly increasing by construction; a failure
      // here means the generator contract itself broke — fail loudly
      // instead of silently dropping blocks from the experiment.
      std::fprintf(stderr, "EthereumLikeGenerator::GenerateLedger: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  return ledger;
}

}  // namespace txallo::workload
