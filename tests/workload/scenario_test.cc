// Behavioral tests of the overlay primitives (scenario.h /
// scenario_overlays.h): envelope shapes, who the generated traffic actually
// touches, and the composition contracts — zero overlays reproduce the raw
// Ethereum-like stream bit-identically, and overlay replacement never
// changes the per-block transaction count.
#include "txallo/workload/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "txallo/engine/replay.h"
#include "txallo/workload/scenario_overlays.h"

namespace txallo::workload {
namespace {

EthereumLikeConfig SmallConfig() {
  EthereumLikeConfig config;
  config.num_blocks = 32;
  config.txs_per_block = 60;
  config.num_accounts = 800;
  config.num_communities = 12;
  config.seed = 7;
  return config;
}

// OverlayScenario::Make, which fails only when the registry refuses an
// overlay's accounts.
std::unique_ptr<OverlayScenario> Prepared(
    std::string spec, const EthereumLikeConfig& config,
    std::vector<std::unique_ptr<Overlay>> overlays) {
  Result<std::unique_ptr<OverlayScenario>> made =
      OverlayScenario::Make(std::move(spec), config, std::move(overlays));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made.value());
}

// Counts the transactions in `ledger` with `id` among inputs or outputs.
uint64_t CountTouching(const chain::Ledger& ledger, chain::AccountId id) {
  uint64_t count = 0;
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      const auto& in = tx.inputs();
      const auto& out = tx.outputs();
      if (std::find(in.begin(), in.end(), id) != in.end() ||
          std::find(out.begin(), out.end(), id) != out.end()) {
        ++count;
      }
    }
  }
  return count;
}

TEST(OverlayScenarioTest, NoOverlaysMatchesRawGeneratorBitIdentically) {
  const EthereumLikeConfig config = SmallConfig();
  EthereumLikeGenerator raw(config);
  const chain::Ledger expected = raw.GenerateLedger(config.num_blocks);

  const std::unique_ptr<OverlayScenario> scenario =

      Prepared("ethereum", config, {});
  const chain::Ledger actual = scenario->GenerateLedger(config.num_blocks);

  EXPECT_EQ(engine::FingerprintLedger(actual),
            engine::FingerprintLedger(expected));
}

TEST(OverlayScenarioTest, OverlaysPreservePerBlockTransactionCount) {
  const EthereumLikeConfig config = SmallConfig();
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<SybilOverlay>(SybilParams{}));
  overlays.push_back(std::make_unique<HotSpikeOverlay>(HotSpikeParams{}));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("test", config, std::move(overlays));
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);
  ASSERT_EQ(ledger.num_blocks(), config.num_blocks);
  for (const chain::Block& block : ledger.blocks()) {
    EXPECT_EQ(block.transactions().size(), config.txs_per_block);
  }
}

TEST(OverlayScenarioTest, SameSpecSameSeedIsBitIdentical) {
  const EthereumLikeConfig config = SmallConfig();
  auto make = [&]() {
    std::vector<std::unique_ptr<Overlay>> overlays;
    overlays.push_back(
        std::make_unique<ShardAttackOverlay>(ShardAttackParams{}));
    overlays.push_back(std::make_unique<ChurnOverlay>(ChurnParams{}));
    const std::unique_ptr<OverlayScenario> scenario =
        Prepared("test", config, std::move(overlays));
    return scenario->GenerateLedger(config.num_blocks);
  };
  EXPECT_EQ(engine::FingerprintLedger(make()),
            engine::FingerprintLedger(make()));
}

TEST(HotSpikeOverlayTest, ShareFollowsRampHoldDecayEnvelope) {
  HotSpikeParams params;
  params.start = 10;
  params.ramp = 4;
  params.hold = 3;
  params.decay = 2;
  params.peak_share = 0.8;
  HotSpikeOverlay overlay(params);
  EXPECT_DOUBLE_EQ(overlay.Share(0), 0.0);
  EXPECT_DOUBLE_EQ(overlay.Share(9), 0.0);
  // Ramp: (t+1)/ramp of the peak at t blocks past start.
  EXPECT_DOUBLE_EQ(overlay.Share(10), 0.8 * 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(overlay.Share(13), 0.8);
  // Hold.
  EXPECT_DOUBLE_EQ(overlay.Share(14), 0.8);
  EXPECT_DOUBLE_EQ(overlay.Share(16), 0.8);
  // Decay.
  EXPECT_DOUBLE_EQ(overlay.Share(17), 0.8 * 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(overlay.Share(18), 0.8 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(overlay.Share(19), 0.0);
  EXPECT_DOUBLE_EQ(overlay.Share(100), 0.0);
}

TEST(HotSpikeOverlayTest, MintDominatesPeakBlocksOnly) {
  const EthereumLikeConfig config = SmallConfig();
  HotSpikeParams params;
  params.start = 8;
  params.ramp = 2;
  params.hold = 8;
  params.decay = 2;
  params.peak_share = 0.7;
  auto overlay = std::make_unique<HotSpikeOverlay>(params);
  HotSpikeOverlay* spike = overlay.get();
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::move(overlay));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("spike-test", config, std::move(overlays));
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);

  const chain::AccountId mint = spike->mint_account();
  ASSERT_NE(mint, chain::kInvalidAccount);
  uint64_t before = 0, peak = 0;
  for (const chain::Block& block : ledger.blocks()) {
    uint64_t touching = 0;
    for (const chain::Transaction& tx : block.transactions()) {
      const auto& out = tx.outputs();
      if (std::find(out.begin(), out.end(), mint) != out.end()) ++touching;
    }
    if (block.number() < params.start) {
      before += touching;
    } else if (block.number() >= 10 && block.number() < 18) {  // Hold window.
      peak += touching;
    }
  }
  EXPECT_EQ(before, 0u);
  // 8 hold blocks x 60 txs x 0.7 expected share: well above half even with
  // sampling noise.
  EXPECT_GT(peak, 8 * config.txs_per_block / 2);
}

TEST(ShardAttackOverlayTest, VictimsAreExactlyHashRoutedResidents) {
  const EthereumLikeConfig config = SmallConfig();
  ShardAttackParams params;
  params.shards = 4;
  params.target = 2;
  params.share = 0.5;
  auto overlay = std::make_unique<ShardAttackOverlay>(params);
  ShardAttackOverlay* attack = overlay.get();
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::move(overlay));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("attack-test", config, std::move(overlays));
  const uint64_t n = scenario->background().num_background_accounts();

  // The victim set matches a direct scan of the background population.
  uint64_t residents = 0;
  for (uint64_t id = 0; id < n; ++id) {
    if (scenario->registry().OrderKey(static_cast<chain::AccountId>(id)) %
            params.shards ==
        params.target) {
      ++residents;
    }
  }
  EXPECT_EQ(attack->num_victims(), residents);

  // Every transaction whose sender is an attacker (an account beyond the
  // background population) lands on a target-shard resident.
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);
  uint64_t attack_txs = 0;
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      if (tx.inputs()[0] < n) continue;
      ++attack_txs;
      ASSERT_EQ(tx.outputs().size(), 1u);
      EXPECT_EQ(scenario->registry().OrderKey(tx.outputs()[0]) % params.shards,
                params.target);
    }
  }
  // Half the traffic is attack traffic; require a healthy majority of it.
  EXPECT_GT(attack_txs, config.num_blocks * config.txs_per_block / 3);
}

TEST(SybilOverlayTest, FanOutAndStaggeredBirths) {
  const EthereumLikeConfig config = SmallConfig();
  SybilParams params;
  params.sybils = 64;
  params.fanout = 5;
  params.share = 0.4;
  params.horizon_blocks = config.num_blocks;
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<SybilOverlay>(params));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("sybil-test", config, std::move(overlays));
  const uint64_t n = scenario->background().num_background_accounts();
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);

  // Sybil senders are the accounts interned beyond the background; their
  // transactions carry `fanout` outputs, and no sybil acts before birth.
  uint64_t sybil_txs = 0;
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      const chain::AccountId sender = tx.inputs()[0];
      if (sender < n) continue;
      ++sybil_txs;
      EXPECT_EQ(tx.outputs().size(), params.fanout);
      const uint64_t index = sender - n;
      const uint64_t born = std::min<uint64_t>(
          params.sybils,
          1 + block.number() * params.sybils / params.horizon_blocks);
      EXPECT_LT(index, born) << "sybil acted before its birth block";
    }
  }
  EXPECT_GT(sybil_txs, 0u);
}

TEST(MultiAssetOverlayTest, AssetTransfersCarryAContractOutput) {
  const EthereumLikeConfig config = SmallConfig();
  MultiAssetParams params;
  params.assets = 6;
  params.share = 0.5;
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<MultiAssetOverlay>(params));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("asset-test", config, std::move(overlays));
  const uint64_t n = scenario->background().num_background_accounts();
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);

  uint64_t asset_txs = 0;
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      // Overlay transactions end with one of the `assets` fresh contracts.
      const chain::AccountId last = tx.outputs().back();
      if (last < n) continue;
      ++asset_txs;
      EXPECT_EQ(tx.outputs().size(), 2u);
      EXPECT_LT(last - n, params.assets);
    }
  }
  // Half the stream carries an asset output, modulo sampling noise.
  EXPECT_GT(asset_txs, config.num_blocks * config.txs_per_block / 3);
}

TEST(ChurnOverlayTest, DeadAccountsStopTransacting) {
  const EthereumLikeConfig config = SmallConfig();
  ChurnParams params;
  params.pool = 16;
  params.lifetime = 4;
  params.share = 0.5;
  params.intra = 0.0;  // Counterparties from the background: senders are the
                       // only churn accounts in the stream.
  params.horizon_blocks = config.num_blocks;
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<ChurnOverlay>(params));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("churn-test", config, std::move(overlays));
  const uint64_t n = scenario->background().num_background_accounts();
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);

  // Pool account j is born at j * spacing (spacing = horizon / pool) and
  // dies lifetime blocks later; no churn sender may act outside its window.
  const uint64_t spacing = params.horizon_blocks / params.pool;
  uint64_t churn_txs = 0;
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      const chain::AccountId sender = tx.inputs()[0];
      if (sender < n) continue;
      ++churn_txs;
      const uint64_t j = sender - n;
      const uint64_t birth = j * spacing;
      EXPECT_GE(block.number(), birth);
      EXPECT_LE(block.number(), birth + params.lifetime);
    }
  }
  EXPECT_GT(churn_txs, 0u);
}

TEST(DiurnalOverlayTest, TrafficFollowsTheAwakeWindow) {
  const EthereumLikeConfig config = SmallConfig();
  DiurnalParams params;
  params.period = 8;
  params.share = 1.0;  // The whole stream follows the window: every
                       // transaction must obey it.
  params.width = 2;
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<DiurnalOverlay>(params));
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("diurnal-test", config, std::move(overlays));
  // Access to CommunityOf requires the generator; overlay traffic samples
  // real community members, so community membership is checkable.
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);
  const EthereumLikeGenerator& background = scenario->background();
  const uint32_t nc = background.num_communities();
  for (const chain::Block& block : ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      const uint32_t c = background.CommunityOf(tx.inputs()[0]);
      const uint64_t base = (block.number() % params.period) * nc /
                            params.period;
      const uint32_t offset = (c + nc - static_cast<uint32_t>(base % nc)) % nc;
      EXPECT_LT(offset, params.width)
          << "block " << block.number() << " sender community " << c
          << " outside awake window starting at " << base;
    }
  }
}

TEST(ScenarioTest, CountTouchingHelperSeesHub) {
  // Sanity-check the helper against the background hub, which by
  // construction appears in a hub_share slice of the stream.
  const EthereumLikeConfig config = SmallConfig();
  const std::unique_ptr<OverlayScenario> scenario =
      Prepared("ethereum", config, {});
  const chain::Ledger ledger = scenario->GenerateLedger(config.num_blocks);
  EXPECT_GT(CountTouching(ledger, scenario->background().hub_account()), 0u);
}

}  // namespace
}  // namespace txallo::workload
