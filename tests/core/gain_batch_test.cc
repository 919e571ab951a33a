// JoinGainBatch must be bit-identical to per-community JoinDelta — the
// TxAllo sweeps switch between the two on a density heuristic, so any
// divergence would make the heuristic (a pure perf knob) change
// allocations. The batch reads the caller's clamp cache (before[q] ==
// ThroughputOf(q)) where the scalar JoinDelta recomputes the clamp, so the
// cache contract is pinned here too. Randomized states cover
// under-capacity, exactly-at-capacity and clamped (overloaded)
// communities, negative-σ corner values, and k from 1 to 257.
#include "txallo/core/gain.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "txallo/common/rng.h"

namespace txallo::core {
namespace {

using alloc::CommunityState;

CommunityState RandomState(Rng* rng, uint32_t k, double capacity) {
  CommunityState state;
  state.eta = 1.0 + rng->NextDouble() * 4.0;
  state.capacity = capacity;
  state.sigma.resize(k);
  state.lambda_hat.resize(k);
  for (uint32_t q = 0; q < k; ++q) {
    // Straddle the capacity clamp: roughly half the communities overloaded.
    state.sigma[q] = rng->NextDouble() * 2.0 * capacity;
    state.lambda_hat[q] = rng->NextDouble() * capacity;
  }
  return state;
}

std::vector<double> ClampCache(const CommunityState& state) {
  std::vector<double> before(state.num_communities());
  for (uint32_t q = 0; q < before.size(); ++q) {
    before[q] = state.ThroughputOf(q);
  }
  return before;
}

TEST(GainBatchTest, BitIdenticalToScalarJoinDelta) {
  Rng rng(77);
  for (const uint32_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 60u, 257u}) {
    for (int round = 0; round < 50; ++round) {
      CommunityState state = RandomState(&rng, k, 100.0);
      NodeProfile node{rng.NextDouble(), rng.NextDouble() * 20.0};
      std::vector<double> weight_to(k);
      for (double& w : weight_to) {
        w = rng.NextBounded(4) == 0 ? 0.0 : rng.NextDouble() * 8.0;
      }
      std::vector<double> gains(k, -1.0);
      const std::vector<double> before = ClampCache(state);
      JoinGainBatch(state, node, weight_to.data(), before.data(), k,
                    gains.data());
      for (uint32_t q = 0; q < k; ++q) {
        const double scalar =
            JoinDelta(state, q, node, weight_to[q]).throughput_gain;
        // Exact equality — same expression tree, element by element.
        EXPECT_EQ(gains[q], scalar) << "k=" << k << " q=" << q;
      }
    }
  }
}

TEST(GainBatchTest, ClampCornersMatchScalar) {
  CommunityState state;
  state.eta = 2.0;
  state.capacity = 10.0;
  // σ exactly at capacity, just above, zero, and negative (the clamp's
  // σ <= 0 escape), Λ̂ mixed.
  state.sigma = {10.0, 10.0 + 1e-12, 0.0, -5.0, 25.0};
  state.lambda_hat = {4.0, 4.0, 0.0, 1.0, 9.0};
  NodeProfile node{0.25, 3.0};
  const std::vector<double> weight_to = {0.0, 1.0, 2.0, 0.5, 4.0};
  const auto k = static_cast<uint32_t>(state.sigma.size());
  std::vector<double> gains(k);
  const std::vector<double> before = ClampCache(state);
  JoinGainBatch(state, node, weight_to.data(), before.data(), k, gains.data());
  for (uint32_t q = 0; q < k; ++q) {
    EXPECT_EQ(gains[q], JoinDelta(state, q, node, weight_to[q]).throughput_gain)
        << "q=" << q;
  }
}

TEST(GainBatchTest, ZeroCommunitiesIsANoop) {
  CommunityState state;
  state.eta = 2.0;
  state.capacity = 10.0;
  NodeProfile node{0.0, 0.0};
  // Must not touch memory.
  JoinGainBatch(state, node, nullptr, nullptr, 0, nullptr);
}

}  // namespace
}  // namespace txallo::core
