// Pins generated workloads bit for bit. The literals below are the ledger
// fingerprints, order-key digests and registry sizes of three registered
// scenarios, recorded before the generator, the registry and SHA-256 were
// optimised; any change to what is generated (a reordered RNG draw, a
// different account id, a different order key) fails here, not only as a
// drift in some benchmark's cross-shard ratio.
//
// The shape has 320 communities over 6,000 accounts, so many communities
// share a size (and, in the generator, a Zipf table); multi-party and
// sybil fan-out transactions exercise transactions that spill their ids
// to the heap.
#include <gtest/gtest.h>

#include <cstdint>

#include "txallo/common/sha256.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/scenario_registry.h"

namespace txallo::workload {
namespace {

ScenarioShape PinShape() {
  ScenarioShape shape;
  shape.num_blocks = 40;
  shape.txs_per_block = 100;
  shape.num_accounts = 6'000;
  shape.num_communities = 320;
  shape.seed = 42;
  return shape;
}

// SHA-256 over every account's order key, in id order.
uint64_t OrderKeyDigest(const chain::AccountRegistry& registry) {
  Sha256 hasher;
  for (size_t id = 0; id < registry.size(); ++id) {
    const uint64_t key = registry.OrderKey(static_cast<chain::AccountId>(id));
    hasher.Update(&key, sizeof(key));
  }
  const Sha256Digest digest = hasher.Finish();
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | digest[static_cast<size_t>(i)];
  return out;
}

struct Pin {
  const char* spec;
  uint64_t ledger_fingerprint;
  uint64_t order_key_digest;
  size_t registry_size;
};

constexpr Pin kPins[] = {
    {"ethereum", 0xb9597d867fa9456cULL, 0x5c53f00c722fe201ULL, 6000},
    {"churn", 0x0e12932b50f21300ULL, 0xcd5b3d4f1c2018b1ULL, 6375},
    {"sybil", 0xda3ae4e46f57b7c6ULL, 0xa7c7d82cb8629158ULL, 6512},
};

TEST(GenerationPinTest, LedgersAndOrderKeysMatchTheRecordedValues) {
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.spec);
    auto scenario = MakeScenarioFromSpec(pin.spec, PinShape());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const chain::Ledger ledger =
        (*scenario)->GenerateLedger((*scenario)->num_blocks());
    EXPECT_EQ(engine::FingerprintLedger(ledger), pin.ledger_fingerprint);
    EXPECT_EQ(OrderKeyDigest((*scenario)->registry()), pin.order_key_digest);
    EXPECT_EQ((*scenario)->registry().size(), pin.registry_size);
  }
}

}  // namespace
}  // namespace txallo::workload
