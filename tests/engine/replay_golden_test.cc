// Golden-trace replay: the determinism acceptance bar of the record/replay
// subsystem. A 3-epoch background-mode run is recorded once and must
// replay bit-identically — prepare order, 2PC outcome stream, per-step
// metrics series, alloc_overlap_ratio — under every thread count, and the
// committed fixture in testdata/ pins today's
// canonical execution against silent behaviour drift (regenerate it
// deliberately with the `regen-golden-trace` target).
#include <gtest/gtest.h>

#include <string>

#include "golden_trace_fixture.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

#ifndef TXALLO_TESTDATA_DIR
#error "TXALLO_TESTDATA_DIR must point at tests/engine/testdata"
#endif

namespace txallo {
namespace {

chain::Ledger GoldenLedger() {
  workload::EthereumLikeGenerator generator(testing::GoldenWorkloadConfig());
  return generator.GenerateLedger(testing::kGoldenBlocks);
}

Result<engine::PipelineResult> Replay(const chain::Ledger& ledger,
                                      const engine::ReplayLog& log,
                                      uint32_t threads,
                                      engine::ReplayLog* rerecord = nullptr) {
  // Synthetic spin (not part of the trace) so that ticks with 16 or more
  // queued parts reach the fork-join inline threshold: the multi-lane
  // replays run most ticks on the helpers, the 1-lane replay none.
  engine::EngineConfig config = testing::GoldenEngineConfig(threads);
  config.spin_iterations_per_unit = 1 << 12;
  engine::ParallelEngine engine(config, nullptr);
  engine::PipelineConfig pipeline;
  pipeline.record = rerecord;
  return engine::ReplayRecordedStream(ledger, log, &engine, pipeline);
}

TEST(ReplayGoldenTest, FreshRecordingReplaysAcrossThreadsAndProducers) {
  const chain::Ledger ledger = GoldenLedger();
  auto recorded = testing::RecordGoldenTrace();
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_EQ(recorded->epochs, 3u);  // The 3-epoch run the fixture pins.
  ASSERT_GE(recorded->installs.size(), 2u);
  ASSERT_FALSE(recorded->prepares.empty());
  // The state backend is on: every tick fingerprints committed state, and
  // the tight golden funding makes the abort path part of the pinned run.
  ASSERT_TRUE(recorded->meta.state_enabled);
  ASSERT_FALSE(recorded->state_roots.empty());
  uint64_t aborted = 0;
  for (const engine::CommitEvent& event : recorded->commits) {
    if (event.aborted) ++aborted;
  }
  EXPECT_GT(aborted, 0u) << "golden funding no longer exercises aborts";

  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    engine::ReplayLog rerecorded;
    auto replayed = Replay(ledger, *recorded, threads, &rerecorded);
    // ReplayRecordedStream verifies bit-identity internally; ok() IS the
    // assertion. The explicit re-compare below documents what that
    // means: the prepare stream, 2PC outcomes and step series are equal
    // event for event.
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    if (threads > 1) {
      EXPECT_GT(replayed->report.fanned_out_ticks, 0u);
    }
    EXPECT_EQ(engine::DescribeTraceDivergence(*recorded, rerecorded), "");
    // Structural state verification: the per-tick Merkle roots — not
    // just the event streams — reproduce bit-identically whatever the
    // thread count.
    EXPECT_EQ(rerecorded.state_roots, recorded->state_roots);
    ASSERT_EQ(replayed->steps.size(), recorded->steps.size());
    for (size_t i = 0; i < recorded->steps.size(); ++i) {
      EXPECT_EQ(replayed->steps[i], recorded->steps[i])
          << "step " << i << " diverged";
    }
    // Wall-clock observations are preserved verbatim, so even the
    // overlap ratio is bit-identical across replays.
    EXPECT_EQ(replayed->alloc_overlap_ratio, recorded->alloc_overlap_ratio);
    EXPECT_EQ(replayed->alloc_seconds, recorded->alloc_seconds);
    EXPECT_EQ(replayed->accounts_moved, recorded->accounts_moved);
    EXPECT_EQ(replayed->epochs, recorded->epochs);
  }
}

TEST(ReplayGoldenTest, CommittedFixtureReplaysBitIdentically) {
  const std::string path =
      std::string(TXALLO_TESTDATA_DIR) + "/" + testing::kGoldenTraceFile;
  auto fixture = engine::LoadReplayLog(path);
  ASSERT_TRUE(fixture.ok())
      << fixture.status().ToString()
      << " — regenerate with: cmake --build <build> --target "
         "regen-golden-trace";
  const chain::Ledger ledger = GoldenLedger();
  ASSERT_EQ(fixture->meta.ledger_fingerprint,
            engine::FingerprintLedger(ledger))
      << "the golden workload drifted; the fixture no longer matches";
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto replayed = Replay(ledger, *fixture, threads);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    if (threads > 1) {
      EXPECT_GT(replayed->report.fanned_out_ticks, 0u);
    }
  }
}

TEST(ReplayGoldenTest, CommittedFixtureMatchesFreshRecording) {
  // The strongest drift guard: recording the golden scenario today must
  // produce byte-for-byte the deterministic content committed in the
  // fixture — engine execution, ingest order, allocator output and install
  // schedule all pinned at once.
  const std::string path =
      std::string(TXALLO_TESTDATA_DIR) + "/" + testing::kGoldenTraceFile;
  auto fixture = engine::LoadReplayLog(path);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto fresh = testing::RecordGoldenTrace();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(engine::DescribeTraceDivergence(*fixture, *fresh), "")
      << "intentional change? regenerate via the regen-golden-trace target "
         "and review the fixture diff";
}

}  // namespace
}  // namespace txallo
