#include "txallo/workload/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "txallo/workload/scenario_overlays.h"

namespace txallo::workload {

using chain::AccountId;

chain::Ledger Scenario::GenerateLedger(uint64_t n) {
  chain::Ledger ledger;
  for (uint64_t b = 0; b < n; ++b) {
    Status st = ledger.Append(NextBlock());
    if (!st.ok()) {
      std::fprintf(stderr, "Scenario::GenerateLedger (%s): %s\n",
                   spec_.c_str(), st.ToString().c_str());
      std::abort();
    }
  }
  return ledger;
}

OverlayScenario::OverlayScenario(
    std::string spec, const EthereumLikeConfig& background,
    std::vector<std::unique_ptr<Overlay>> overlays)
    : Scenario(std::move(spec)),
      background_(background),
      overlays_(std::move(overlays)),
      // Distinct stream from the background's RNG: overlay draws must not
      // perturb the background pattern of a scenario with share 0.
      overlay_rng_(background.seed ^ 0x9e3779b97f4a7c15ULL) {}

Result<std::unique_ptr<OverlayScenario>> OverlayScenario::Make(
    std::string spec, const EthereumLikeConfig& background,
    std::vector<std::unique_ptr<Overlay>> overlays) {
  std::unique_ptr<OverlayScenario> scenario(
      new OverlayScenario(std::move(spec), background, std::move(overlays)));
  for (std::unique_ptr<Overlay>& overlay : scenario->overlays_) {
    TXALLO_RETURN_NOT_OK(overlay->Prepare(&scenario->background_));
  }
  return scenario;
}

chain::Block OverlayScenario::NextBlock() {
  chain::Block block = background_.NextBlock();
  if (overlays_.empty()) return block;
  const uint64_t number = block.number();
  for (std::unique_ptr<Overlay>& overlay : overlays_) {
    overlay->BeginBlock(number, &overlay_rng_);
  }
  for (chain::Transaction& tx : block.mutable_transactions()) {
    const double u = overlay_rng_.NextDouble();
    double cumulative = 0.0;
    for (std::unique_ptr<Overlay>& overlay : overlays_) {
      cumulative += overlay->Share(number);
      if (u < cumulative) {
        tx = overlay->Generate(number, &overlay_rng_, &background_);
        break;
      }
    }
  }
  return block;
}

// --- Hot-contract spike -------------------------------------------------

Status HotSpikeOverlay::Prepare(EthereumLikeGenerator* background) {
  const Result<AccountId> mint =
      background->mutable_registry()->CreateSynthetic(
          1, chain::AccountType::kContract);
  if (!mint.ok()) return mint.status();
  mint_ = *mint;
  return Status::OK();
}

double HotSpikeOverlay::Share(uint64_t block) const {
  if (block < params_.start) return 0.0;
  uint64_t t = block - params_.start;
  if (t < params_.ramp) {
    return params_.peak_share * static_cast<double>(t + 1) /
           static_cast<double>(params_.ramp);
  }
  t -= params_.ramp;
  if (t < params_.hold) return params_.peak_share;
  t -= params_.hold;
  if (t < params_.decay) {
    return params_.peak_share * static_cast<double>(params_.decay - t) /
           static_cast<double>(params_.decay);
  }
  return 0.0;
}

chain::Transaction HotSpikeOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  (void)block;
  (void)rng;
  // The flash crowd comes from everywhere: senders follow the background's
  // full activity distribution, not one community.
  const AccountId sender = background->SampleAccount();
  return chain::Transaction({sender}, {mint_});
}

// --- Diurnal drift ------------------------------------------------------

chain::Transaction DiurnalOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  const uint32_t nc = background->num_communities();
  const uint32_t width = std::max<uint32_t>(1, std::min(params_.width, nc));
  // The awake window rotates through all communities once per period.
  const uint64_t base =
      (block % params_.period) * nc / std::max<uint64_t>(1, params_.period);
  const uint32_t c = static_cast<uint32_t>(
      (base + rng->NextBounded(width)) % nc);
  const AccountId sender = background->SampleFromCommunity(c);
  AccountId receiver = background->SampleFromCommunity(c);
  if (receiver == sender) receiver = background->SampleFromCommunity(c);
  return chain::Transaction({sender}, {receiver});
}

// --- Account churn ------------------------------------------------------

Status ChurnOverlay::Prepare(EthereumLikeGenerator* background) {
  const Result<AccountId> first =
      background->mutable_registry()->CreateSynthetic(params_.pool);
  if (!first.ok()) return first.status();
  first_pool_ = *first;
  spacing_ = std::max<uint64_t>(
      1, params_.horizon_blocks / std::max<uint64_t>(1, params_.pool));
  return Status::OK();
}

chain::Transaction ChurnOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  // Pool account j is born at j * spacing_ and dies lifetime blocks later.
  const uint64_t lo =
      block >= params_.lifetime ? (block - params_.lifetime) / spacing_ + 1
                                : 0;
  const uint64_t hi = std::min<uint64_t>(params_.pool - 1, block / spacing_);
  if (params_.pool == 0 || lo > hi) {
    // Between generations (long spacing, short lifetime): plain background
    // traffic.
    const AccountId sender = background->SampleAccount();
    const AccountId receiver = background->SampleAccount();
    return chain::Transaction({sender}, {receiver});
  }
  const uint64_t j = lo + rng->NextBounded(hi - lo + 1);
  const auto sender = static_cast<AccountId>(first_pool_ + j);
  AccountId receiver;
  if (hi > lo && rng->NextBernoulli(params_.intra)) {
    uint64_t j2 = lo + rng->NextBounded(hi - lo + 1);
    if (j2 == j) j2 = lo + (j2 - lo + 1) % (hi - lo + 1);
    receiver = static_cast<AccountId>(first_pool_ + j2);
  } else {
    receiver = background->SampleAccount();
  }
  return chain::Transaction({sender}, {receiver});
}

// --- Multi-asset transfers ----------------------------------------------

Status MultiAssetOverlay::Prepare(EthereumLikeGenerator* background) {
  const Result<AccountId> first =
      background->mutable_registry()->CreateSynthetic(
          params_.assets, chain::AccountType::kContract);
  if (!first.ok()) return first.status();
  first_asset_ = *first;
  asset_zipf_ =
      std::make_unique<ZipfSampler>(params_.assets, params_.asset_skew);
  return Status::OK();
}

chain::Transaction MultiAssetOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  (void)block;
  const AccountId sender = background->SampleAccount();
  const uint32_t c = background->CommunityOf(sender);
  const AccountId receiver = background->SampleFromCommunity(c);
  // Community c leans on "its" asset; the Zipf offset makes popular assets
  // shared across neighboring communities.
  const auto asset = static_cast<AccountId>(
      first_asset_ + (c + asset_zipf_->Sample(rng)) % params_.assets);
  return chain::Transaction({sender}, {receiver, asset});
}

// --- Single-shard overload attack ---------------------------------------

Status ShardAttackOverlay::Prepare(EthereumLikeGenerator* background) {
  const Result<AccountId> first =
      background->mutable_registry()->CreateSynthetic(params_.attackers);
  if (!first.ok()) return first.status();
  first_attacker_ = *first;
  // The victims are exactly the accounts hash routing pins to the target
  // shard: OrderKey(id) % shards == target (see baselines/hash_allocator).
  const chain::AccountRegistry& registry = background->registry();
  const uint64_t n = background->num_background_accounts();
  for (uint64_t id = 0; id < n; ++id) {
    if (registry.OrderKey(static_cast<AccountId>(id)) % params_.shards ==
        params_.target) {
      victims_.push_back(static_cast<AccountId>(id));
    }
  }
  if (victims_.empty()) victims_.push_back(background->hub_account());
  victim_zipf_ =
      std::make_unique<ZipfSampler>(victims_.size(), params_.victim_skew);
  return Status::OK();
}

chain::Transaction ShardAttackOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  (void)block;
  (void)background;
  const auto attacker = static_cast<AccountId>(
      first_attacker_ + rng->NextBounded(params_.attackers));
  const AccountId victim = victims_[victim_zipf_->Sample(rng)];
  return chain::Transaction({attacker}, {victim});
}

// --- Sybil fan-out ------------------------------------------------------

Status SybilOverlay::Prepare(EthereumLikeGenerator* background) {
  const Result<AccountId> first =
      background->mutable_registry()->CreateSynthetic(params_.sybils);
  if (!first.ok()) return first.status();
  first_sybil_ = *first;
  return Status::OK();
}

chain::Transaction SybilOverlay::Generate(
    uint64_t block, Rng* rng, EthereumLikeGenerator* background) {
  // Sybils are born at a constant rate across the horizon; the newest born
  // are as likely to act as the oldest (no activity skew — that is the
  // point of a sybil swarm).
  const uint64_t born = std::min<uint64_t>(
      params_.sybils,
      1 + block * params_.sybils /
              std::max<uint64_t>(1, params_.horizon_blocks));
  const AccountId inputs[] = {
      static_cast<AccountId>(first_sybil_ + rng->NextBounded(born))};
  outputs_.clear();
  for (uint32_t i = 0; i < params_.fanout; ++i) {
    outputs_.push_back(background->SampleAccount());
  }
  return chain::Transaction(inputs, outputs_);
}

}  // namespace txallo::workload
