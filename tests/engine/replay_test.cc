// ReplayLog plumbing: binary round-trip fidelity, corruption and range
// rejection, CSV dump shape, field-named divergence reports, ledger
// fingerprinting, and the replay-mode input guards (wrong engine config /
// wrong workload / stale engine).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "txallo/allocator/registry.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

chain::Ledger MakeLedger(uint64_t blocks = 16, uint64_t seed = 5) {
  workload::EthereumLikeConfig config;
  config.num_blocks = blocks;
  config.txs_per_block = 25;
  config.num_accounts = 400;
  config.num_communities = 8;
  config.seed = seed;
  workload::EthereumLikeGenerator generator(config);
  return generator.GenerateLedger(blocks);
}

engine::EngineConfig SmallEngineConfig() {
  engine::EngineConfig config;
  config.num_shards = 4;
  config.work.capacity_per_block = 8.0;
  config.hash_route_unassigned = true;
  return config;
}

engine::ReplayLog RecordSmallRun(const chain::Ledger& ledger,
                                 const std::string& workload_spec = "") {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), 4, 2.0);
  auto made = allocator::MakeAllocatorFromSpec("metis", options);
  EXPECT_TRUE(made.ok());
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  engine::ReplayLog log;
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 4;
  pipeline.workload_spec = workload_spec;
  pipeline.record = &log;
  auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                             &engine, pipeline);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return log;
}

TEST(ReplayLogTest, BinaryRoundTripIsLossless) {
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordSmallRun(ledger);
  ASSERT_FALSE(log.prepares.empty());
  ASSERT_FALSE(log.installs.empty());
  const std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(engine::SaveReplayLog(log, path).ok());
  auto loaded = engine::LoadReplayLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(engine::DescribeTraceDivergence(log, *loaded), "");
  // Wall-clock fields round-trip exactly too (f64 bit patterns).
  EXPECT_EQ(loaded->alloc_seconds, log.alloc_seconds);
  EXPECT_EQ(loaded->alloc_wait_seconds, log.alloc_wait_seconds);
  EXPECT_EQ(loaded->alloc_overlap_ratio, log.alloc_overlap_ratio);
  EXPECT_EQ(loaded->epochs, log.epochs);
  ASSERT_EQ(loaded->steps.size(), log.steps.size());
  for (size_t i = 0; i < log.steps.size(); ++i) {
    EXPECT_EQ(loaded->steps[i], log.steps[i]) << "step " << i;
  }
  // And the loaded trace actually replays.
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  auto replayed = engine::ReplayRecordedStream(ledger, *loaded, &engine,
                                               engine::PipelineConfig{});
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
}

TEST(ReplayLogTest, RejectsMissingGarbageAndTruncatedFiles) {
  EXPECT_EQ(engine::LoadReplayLog(TempPath("nonexistent.trace"))
                .status()
                .code(),
            StatusCode::kIOError);

  const std::string garbage_path = TempPath("garbage.trace");
  {
    std::ofstream file(garbage_path, std::ios::binary);
    file << "definitely not a trace";
  }
  EXPECT_EQ(engine::LoadReplayLog(garbage_path).status().code(),
            StatusCode::kCorruption);

  // A valid trace cut short anywhere must be rejected, not misparsed.
  const engine::ReplayLog log = RecordSmallRun(MakeLedger());
  const std::string full_path = TempPath("full.trace");
  ASSERT_TRUE(engine::SaveReplayLog(log, full_path).ok());
  std::ifstream full(full_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(full)),
                    std::istreambuf_iterator<char>());
  const std::string truncated_path = TempPath("truncated.trace");
  for (const size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_EQ(engine::LoadReplayLog(truncated_path).status().code(),
              StatusCode::kCorruption)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
  // Trailing junk is corruption too (the format is self-delimiting).
  std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out << "junk";
  out.close();
  EXPECT_EQ(engine::LoadReplayLog(truncated_path).status().code(),
            StatusCode::kCorruption);
}

TEST(ReplayLogTest, CsvDumpContainsEverySection) {
  const engine::ReplayLog log = RecordSmallRun(MakeLedger());
  const std::string path = TempPath("dump.csv");
  ASSERT_TRUE(engine::DumpReplayLogCsv(log, path).ok());
  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line.rfind("kind,", 0), 0u);
  size_t metas = 0, steps = 0, installs = 0, prepares = 0, commits = 0;
  while (std::getline(file, line)) {
    if (line.rfind("meta,", 0) == 0) ++metas;
    if (line.rfind("step,", 0) == 0) ++steps;
    if (line.rfind("install,", 0) == 0) ++installs;
    if (line.rfind("prepare,", 0) == 0) ++prepares;
    if (line.rfind("commit,", 0) == 0) ++commits;
  }
  EXPECT_GE(metas, 8u);
  EXPECT_EQ(steps, log.steps.size());
  EXPECT_EQ(installs, log.installs.size());
  EXPECT_EQ(prepares, log.prepares.size());
  EXPECT_EQ(commits, log.commits.size());

  // Doubles dump at round-trip precision: a difference the divergence
  // check reports (here eta at the 9th significant digit) changes the dump.
  engine::ReplayLog nudged = log;
  nudged.meta.eta += nudged.meta.eta * 1e-8;
  ASSERT_NE(engine::DescribeTraceDivergence(log, nudged), "");
  const std::string nudged_path = TempPath("dump_nudged.csv");
  ASSERT_TRUE(engine::DumpReplayLogCsv(nudged, nudged_path).ok());
  const auto read_all = [](const std::string& file_path) {
    std::ifstream in(file_path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_TRUE(read_all(path) != read_all(nudged_path))
      << "a 9th-digit eta change left the dump unchanged";
}

TEST(ReplayLogTest, FingerprintTracksLedgerContentAndOrder) {
  const chain::Ledger a = MakeLedger(8, /*seed=*/5);
  const chain::Ledger b = MakeLedger(8, /*seed=*/5);
  const chain::Ledger c = MakeLedger(8, /*seed=*/6);
  EXPECT_EQ(engine::FingerprintLedger(a), engine::FingerprintLedger(b));
  EXPECT_NE(engine::FingerprintLedger(a), engine::FingerprintLedger(c));
  EXPECT_NE(engine::FingerprintLedger(a),
            engine::FingerprintLedger(chain::Ledger()));
}

TEST(ReplayLogTest, ReplayGuardsRejectWrongConfigWorkloadAndStaleEngine) {
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordSmallRun(ledger);

  // A refused replay names the meta field that differs.
  const auto refused_naming = [](const Result<engine::PipelineResult>& run,
                                 const std::string& field) {
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().ToString().find(field), std::string::npos)
        << run.status().ToString();
  };
  {
    // Wrong shard count.
    engine::EngineConfig config = SmallEngineConfig();
    config.num_shards = 8;
    engine::ParallelEngine engine(config, nullptr);
    refused_naming(engine::ReplayRecordedStream(ledger, log, &engine,
                                                engine::PipelineConfig{}),
                   "meta.num_shards: recorded 4 vs replayed 8");
  }
  {
    // Wrong work model.
    engine::EngineConfig config = SmallEngineConfig();
    config.work.capacity_per_block += 1.0;
    engine::ParallelEngine engine(config, nullptr);
    refused_naming(engine::ReplayRecordedStream(ledger, log, &engine,
                                                engine::PipelineConfig{}),
                   "meta.capacity_per_block");
  }
  {
    // Wrong workload.
    engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
    refused_naming(
        engine::ReplayRecordedStream(MakeLedger(16, /*seed=*/99), log,
                                     &engine, engine::PipelineConfig{}),
        "meta.ledger_fingerprint");
  }
  {
    // Stale engine (already ticked): the trace covers block 0 onward.
    engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
    engine.Tick();
    auto replayed = engine::ReplayRecordedStream(ledger, log, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Pre-installed snapshot: the trace's install stream provides the
    // initial mapping, so replay refuses rather than skewing
    // accounts_moved.
    auto preinstalled = std::make_shared<alloc::Allocation>(400, 4u);
    for (size_t a = 0; a < 400; ++a) {
      preinstalled->Assign(static_cast<chain::AccountId>(a),
                           static_cast<alloc::ShardId>(a % 4));
    }
    engine::ParallelEngine engine(SmallEngineConfig(), preinstalled);
    auto replayed = engine::ReplayRecordedStream(ledger, log, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Pre-submitted traffic (no tick yet, so the block clock alone cannot
    // tell): recording such an engine would leave phantom events.
    auto preinstalled = std::make_shared<alloc::Allocation>(400, 4u);
    for (size_t a = 0; a < 400; ++a) {
      preinstalled->Assign(static_cast<chain::AccountId>(a),
                           static_cast<alloc::ShardId>(a % 4));
    }
    engine::ParallelEngine engine(SmallEngineConfig(), preinstalled);
    ASSERT_TRUE(
        engine.SubmitBlock(ledger.blocks()[0].transactions()).ok());
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), 4, 2.0);
    auto made = allocator::MakeAllocatorFromSpec("hash", options);
    ASSERT_TRUE(made.ok());
    engine::ReplayLog record;
    engine::PipelineConfig pipeline;
    pipeline.blocks_per_epoch = 4;
    pipeline.record = &record;
    auto recorded = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                                 &engine, pipeline);
    EXPECT_EQ(recorded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ReplayLogTest, WorkloadSpecIsCheckedOnlyWhenGiven) {
  // The spec is descriptive: a replay that does not name one verifies
  // against the recorded spec, one that names the recorded spec passes,
  // and one that names another workload is refused up front.
  const chain::Ledger ledger = MakeLedger();
  const std::string spec = "ethereum-like:accounts=400,seed=5";
  const engine::ReplayLog log = RecordSmallRun(ledger, spec);
  ASSERT_EQ(log.meta.workload_spec, spec);
  for (const std::string& replay_spec : {std::string(), spec}) {
    engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
    engine::ReplayLog rerecorded;
    engine::PipelineConfig pipeline;
    pipeline.workload_spec = replay_spec;
    pipeline.record = &rerecorded;
    auto replayed =
        engine::ReplayRecordedStream(ledger, log, &engine, pipeline);
    EXPECT_TRUE(replayed.ok())
        << "replay spec '" << replay_spec
        << "': " << replayed.status().ToString();
    EXPECT_EQ(rerecorded.meta.workload_spec, spec);
  }
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  engine::PipelineConfig pipeline;
  pipeline.workload_spec = "ethereum-like:accounts=400,seed=6";
  auto replayed = engine::ReplayRecordedStream(ledger, log, &engine, pipeline);
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

engine::EngineConfig StateEngineConfig() {
  engine::EngineConfig config = SmallEngineConfig();
  config.state.enabled = true;
  config.state.initial_balance = 32;  // Tight: aborts appear in the trace.
  config.state.migration_work_per_account = 1.0;
  return config;
}

engine::ReplayLog RecordStateRun(const chain::Ledger& ledger) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), 4, 2.0);
  auto made = allocator::MakeAllocatorFromSpec("metis", options);
  EXPECT_TRUE(made.ok());
  engine::ParallelEngine engine(StateEngineConfig(), nullptr);
  engine::ReplayLog log;
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 4;
  pipeline.record = &log;
  auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                             &engine, pipeline);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return log;
}

TEST(ReplayLogTest, StateSectionsSurviveTheBinaryRoundTrip) {
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordStateRun(ledger);
  ASSERT_TRUE(log.meta.state_enabled);
  EXPECT_EQ(log.meta.state_initial_balance, 32);
  ASSERT_FALSE(log.state_roots.empty());
  bool any_aborted = false;
  for (const engine::CommitEvent& event : log.commits) {
    any_aborted = any_aborted || event.aborted;
  }
  EXPECT_TRUE(any_aborted) << "funding too generous to record an abort";

  const std::string path = TempPath("state_roundtrip.trace");
  ASSERT_TRUE(engine::SaveReplayLog(log, path).ok());
  auto loaded = engine::LoadReplayLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(engine::DescribeTraceDivergence(log, *loaded), "");
  EXPECT_EQ(loaded->state_roots, log.state_roots);
  EXPECT_EQ(loaded->commits, log.commits);
  EXPECT_EQ(loaded->meta.state_initial_balance,
            log.meta.state_initial_balance);
  EXPECT_EQ(loaded->meta.state_migration_work, log.meta.state_migration_work);

  // The loaded trace replays, and the replayed run re-derives the same
  // per-tick Merkle roots (verified inside the replay harness).
  engine::ParallelEngine engine(StateEngineConfig(), nullptr);
  auto replayed = engine::ReplayRecordedStream(ledger, *loaded, &engine,
                                               engine::PipelineConfig{});
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();

  // The CSV dump carries the new sections.
  const std::string csv_path = TempPath("state_dump.csv");
  ASSERT_TRUE(engine::DumpReplayLogCsv(log, csv_path).ok());
  std::ifstream file(csv_path);
  std::string line;
  size_t roots = 0;
  while (std::getline(file, line)) {
    if (line.rfind("state_root,", 0) == 0) ++roots;
  }
  EXPECT_EQ(roots, log.state_roots.size());
}

TEST(ReplayLogTest, ReplayGuardsRejectStateConfigMismatch) {
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordStateRun(ledger);
  {
    // Backend off vs recorded on: the roots could never be re-derived.
    engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
    auto replayed = engine::ReplayRecordedStream(ledger, log, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Different funding: deterministically different abort stream.
    engine::EngineConfig config = StateEngineConfig();
    config.state.initial_balance += 1;
    engine::ParallelEngine engine(config, nullptr);
    auto replayed = engine::ReplayRecordedStream(ledger, log, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(replayed.status().ToString().find("meta.state_initial_balance"),
              std::string::npos)
        << replayed.status().ToString();
  }
  {
    // A stateless trace refuses a stateful engine just the same.
    const engine::ReplayLog stateless = RecordSmallRun(ledger);
    engine::ParallelEngine engine(StateEngineConfig(), nullptr);
    auto replayed = engine::ReplayRecordedStream(ledger, stateless, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  }
}

std::string SavedBytes(const engine::ReplayLog& log, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(engine::SaveReplayLog(log, path).ok());
  std::ifstream file(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

TEST(ReplayLogTest, DivergenceNamesTheFirstDifferingField) {
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordStateRun(ledger);
  ASSERT_GE(log.prepares.size(), 2u);
  ASSERT_GE(log.commits.size(), 2u);
  ASSERT_GE(log.state_roots.size(), 2u);
  ASSERT_GE(log.installs.size(), 2u);
  ASSERT_GE(log.steps.size(), 2u);
  ASSERT_EQ(engine::DescribeTraceDivergence(log, log), "");

  const auto diverged = [&](const std::function<void(engine::ReplayLog&)>&
                                mutate) {
    engine::ReplayLog replayed = log;
    mutate(replayed);
    return engine::DescribeTraceDivergence(log, replayed);
  };
  // One mutation of each record kind; the report names the field.
  const struct {
    std::string expected;
    std::function<void(engine::ReplayLog&)> mutate;
  } cases[] = {
      {"prepare[1].seq: ", [](engine::ReplayLog& l) { l.prepares[1].seq++; }},
      {"prepare count: ", [](engine::ReplayLog& l) { l.prepares.pop_back(); }},
      {"commit[1].aborted: ",
       [](engine::ReplayLog& l) {
         l.commits[1].aborted = !l.commits[1].aborted;
       }},
      {"state_root[1].root: ",
       [](engine::ReplayLog& l) { l.state_roots[1].root[0] ^= 1; }},
      {"install[1].allocation: ",
       [](engine::ReplayLog& l) {
         alloc::Allocation& mapping = l.installs[1].allocation;
         mapping.Assign(0, (mapping.shard_of(0) + 1) % mapping.num_shards());
       }},
      {"install[1].block: ",
       [](engine::ReplayLog& l) { l.installs[1].block++; }},
      {"meta.eta: ", [](engine::ReplayLog& l) { l.meta.eta += 0.5; }},
      {"meta.workload_spec: ",
       [](engine::ReplayLog& l) { l.meta.workload_spec = "other"; }},
      {"step[1].committed: ",
       [](engine::ReplayLog& l) { l.steps[1].committed++; }},
      {"epochs: ", [](engine::ReplayLog& l) { l.epochs++; }},
      {"accounts_moved: ", [](engine::ReplayLog& l) { l.accounts_moved++; }},
  };
  for (const auto& c : cases) {
    const std::string message = diverged(c.mutate);
    EXPECT_EQ(message.rfind(c.expected, 0), 0u)
        << "expected '" << c.expected << "...', got '" << message << "'";
  }
  // The recorded and replayed values are both printed.
  const uint64_t p99 = log.steps[1].latency_p99_ticks;
  EXPECT_EQ(diverged([](engine::ReplayLog& l) {
              l.steps[1].latency_p99_ticks++;
            }),
            "step[1].latency_p99_ticks: recorded " + std::to_string(p99) +
                " vs replayed " + std::to_string(p99 + 1));

  // Wall-clock fields are not reproducible and never compared.
  EXPECT_EQ(diverged([](engine::ReplayLog& l) {
              l.steps[0].alloc_seconds += 1.0;
              l.steps[1].alloc_wait_seconds += 1.0;
              l.alloc_seconds += 1.0;
              l.alloc_wait_seconds += 1.0;
              l.alloc_overlap_ratio += 0.5;
            }),
            "");
}

TEST(ReplayLogTest, ReplayOfAnAlteredTraceFailsInternal) {
  const chain::Ledger ledger = MakeLedger();
  engine::ReplayLog log = RecordSmallRun(ledger);
  ASSERT_GE(log.steps.size(), 2u);
  log.steps[1].submitted += 1;
  const std::string path = TempPath("altered.trace");
  ASSERT_TRUE(engine::SaveReplayLog(log, path).ok());
  auto loaded = engine::LoadReplayLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  auto replayed = engine::ReplayRecordedStream(ledger, *loaded, &engine,
                                               engine::PipelineConfig{});
  EXPECT_EQ(replayed.status().code(), StatusCode::kInternal);
  EXPECT_NE(replayed.status().ToString().find("step[1].submitted"),
            std::string::npos)
      << replayed.status().ToString();
}

TEST(ReplayLogTest, ReplayAndSaveRejectOutOfRangeEnumMeta) {
  // An in-memory log never passes the loader: the replay guard and the
  // writer range-check its enum fields themselves.
  const chain::Ledger ledger = MakeLedger();
  const engine::ReplayLog log = RecordSmallRun(ledger);
  const struct {
    const char* field;
    std::function<void(engine::ReplayLog&)> mutate;
  } cases[] = {
      {"meta.ingest_mode",
       [](engine::ReplayLog& l) { l.meta.ingest_mode = 7; }},
      {"meta.admission_policy",
       [](engine::ReplayLog& l) { l.meta.admission_policy = 9; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    engine::ReplayLog hostile = log;
    c.mutate(hostile);
    engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
    auto replayed = engine::ReplayRecordedStream(ledger, hostile, &engine,
                                                 engine::PipelineConfig{});
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(replayed.status().ToString().find(c.field), std::string::npos)
        << replayed.status().ToString();
    const Status saved =
        engine::SaveReplayLog(hostile, TempPath("hostile_meta.trace"));
    EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(saved.ToString().find(c.field), std::string::npos)
        << saved.ToString();
  }
}

TEST(ReplayLogTest, LoaderRejectsOutOfRangeBoolAndEnumBytes) {
  const engine::ReplayLog log = RecordStateRun(MakeLedger());
  ASSERT_FALSE(log.commits.empty());
  const std::string bytes = SavedBytes(log, "range_base.trace");
  // Each case finds the byte that holds one field by saving the log with
  // that field changed, then writes an out-of-range value into it.
  const struct {
    const char* field;
    std::function<void(engine::ReplayLog&)> mutate;
    char bad;
  } cases[] = {
      {"meta.state_enabled",
       [](engine::ReplayLog& l) { l.meta.state_enabled = false; }, 2},
      {"commit[0].aborted",
       [](engine::ReplayLog& l) {
         l.commits[0].aborted = !l.commits[0].aborted;
       },
       static_cast<char>(0xff)},
      {"meta.ingest_mode",
       [](engine::ReplayLog& l) { l.meta.ingest_mode = 1; }, 7},
      {"meta.admission_policy",
       [](engine::ReplayLog& l) { l.meta.admission_policy = 1; }, 9},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    engine::ReplayLog changed = log;
    c.mutate(changed);
    const std::string changed_bytes = SavedBytes(changed, "range_probe.trace");
    ASSERT_EQ(changed_bytes.size(), bytes.size());
    size_t offset = 0;
    while (offset < bytes.size() && bytes[offset] == changed_bytes[offset]) {
      ++offset;
    }
    ASSERT_LT(offset, bytes.size());
    // The in-range value loads ...
    const std::string path = TempPath("range_hostile.trace");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << changed_bytes;
    }
    EXPECT_TRUE(engine::LoadReplayLog(path).ok());
    // ... the out-of-range one is Corruption naming the field.
    std::string hostile = bytes;
    hostile[offset] = c.bad;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << hostile;
    }
    auto loaded = engine::LoadReplayLog(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().ToString().find(c.field), std::string::npos)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace txallo
