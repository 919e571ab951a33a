// Engine scaling: committed transactions per second vs. worker thread
// count, at k in {8, 16, 32, 64} shards.
//
// The engine's own 1-thread row is the baseline: logical results do not
// depend on the worker count, so the win from more threads is wall-clock.
// Synthetic per-unit execution cost (--spin, LCG iterations per work unit)
// stands in for real transaction execution. A tick whose parts, weighted
// by the spin, fall below common::kInlineWorkThreshold runs every lane on
// the driver: at --spin=0 the ~1,000-part ticks here all do, so every
// thread count runs inline and the speedup stays near 1. This sweep is how
// the threshold was calibrated: it sits where two lanes start to beat one.
//
//   ./build/bench/engine_scaling [--threads=N] [--spin=2000] [--txs=...]
//
// --threads bounds the sweep: powers of two up to N, default 8
// (TXALLO_THREADS works too, via the shared scale resolver).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "txallo/alloc/metrics.h"
#include "txallo/common/fork_join.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/common/stopwatch.h"
#include "txallo/sim/work_model.h"

namespace txallo::bench {
namespace {

struct ScalingPoint {
  double seconds = 0.0;
  uint64_t committed = 0;
  double stall_seconds = 0.0;
};

ScalingPoint RunOnce(const chain::Ledger& ledger,
                     const alloc::Allocation& allocation,
                     engine::EngineConfig config) {
  engine::ParallelEngine engine(
      config, std::make_shared<alloc::Allocation>(allocation));
  Stopwatch watch;
  for (const chain::Block& block : ledger.blocks()) {
    if (!engine.SubmitBlock(block.transactions()).ok()) std::abort();
    engine.Tick();
  }
  engine::EngineReport report = engine.DrainAndReport();
  ScalingPoint point;
  point.seconds = watch.ElapsedSeconds();
  point.committed = report.sim.committed;
  point.stall_seconds = report.worker_stall_seconds;
  return point;
}

int Main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  BenchScale scale = ResolveBenchScale(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double eta = flags.GetDouble("eta", 2.0);
  const uint64_t spin =
      static_cast<uint64_t>(flags.GetInt("spin", 2'000));
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");

  // A slice of the scale's transaction budget: the sweep runs
  // |ks| x |threads| times over the same ledger.
  workload::EthereumLikeConfig gen_config;
  gen_config.txs_per_block = 500;
  gen_config.num_blocks = std::max<uint64_t>(
      20, scale.num_transactions / (gen_config.txs_per_block * 8));
  gen_config.num_accounts = scale.num_accounts;
  gen_config.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(64, scale.num_accounts / 160));
  gen_config.seed = seed;
  workload::EthereumLikeGenerator generator(gen_config);
  chain::Ledger ledger = generator.GenerateLedger(gen_config.num_blocks);

  // Powers of two up to --threads (default 8), always ending exactly at
  // the cap so `--threads=2` really bounds parallelism on a shared host.
  const int max_threads = scale.num_threads > 0 ? scale.num_threads : 8;
  std::vector<int> thread_sweep;
  for (int t = 1; t <= max_threads; t *= 2) thread_sweep.push_back(t);
  if (thread_sweep.back() != max_threads) thread_sweep.push_back(max_threads);

  std::printf(
      "==============================================================\n"
      "engine_scaling — committed tx/sec vs worker threads\n"
      "workload: %" PRIu64 " transactions, %zu accounts, seed %" PRIu64
      ", spin=%" PRIu64 " iters/work-unit\n"
      "hash allocation (cross-shard heavy): every part pays eta=%g, every\n"
      "cross-shard commit pays the 2PC round\n"
      "host: %u hardware thread(s) — speedup saturates there; on a 1-core\n"
      "host this bench only measures engine overhead (speedup ~= 1.0)\n"
      "==============================================================\n",
      ledger.num_transactions(), generator.registry().size(), seed, spin,
      eta, std::thread::hardware_concurrency());

  for (uint32_t k : {8u, 16u, 32u, 64u}) {
    alloc::Allocation allocation =
        baselines::AllocateByHash(generator.registry(), k);
    // Provision each shard with ~1.3x the average per-block work so queues
    // stay shallow but shards are busy every tick.
    double total_work = 0.0;
    sim::WorkModel model{eta, 0.0, 1};
    ledger.ForEachTransaction([&](const chain::Transaction& tx) {
      const uint32_t parts = alloc::ShardsTouched(tx, allocation);
      if (parts == 0) std::abort();  // Hash placement covers every account.
      total_work += model.PartWork(parts > 1) * static_cast<double>(parts);
    });
    const double capacity =
        1.3 * total_work /
        (static_cast<double>(ledger.num_blocks()) * static_cast<double>(k));

    SeriesTable table(
        "k = " + std::to_string(k) + " shards (capacity " + Fmt(capacity, 1) +
            " work-units/block/shard)",
        {"threads", "seconds", "committed/s", "speedup", "stall-s"});
    double baseline_seconds = 0.0;
    for (int threads : thread_sweep) {
      engine::EngineConfig config =
          MakeEngineConfig(scale, k, eta, capacity, threads);
      config.spin_iterations_per_unit = spin;
      ScalingPoint point = RunOnce(ledger, allocation, config);
      if (threads == 1) baseline_seconds = point.seconds;
      table.AddRow({std::to_string(threads), Fmt(point.seconds),
                    Fmt(static_cast<double>(point.committed) / point.seconds,
                        0),
                    Fmt(baseline_seconds / point.seconds, 2),
                    Fmt(point.stall_seconds, 2)});
    }
    table.Print();
    table.WriteCsv(csv_dir, "engine_scaling_k" + std::to_string(k) + ".csv");
  }
  std::printf(
      "\nExpected: with enough spin that ticks reach the fork-join inline\n"
      "threshold (%" PRIu64 " work items), committed/s grows from 1 -> 8\n"
      "threads (speedup > 1); below it every lane runs on the driver and\n"
      "the speedup stays near 1. Past the shard count extra threads are\n"
      "clamped. CSV series written to %s/engine_scaling_k*.csv\n",
      common::kInlineWorkThreshold,
      csv_dir.c_str());
  std::printf("peak rss: %.1f MiB (%zu accounts; TXALLO_ACCOUNTS to sweep)\n",
              PeakRssMegabytes(), generator.registry().size());
  return 0;
}

}  // namespace
}  // namespace txallo::bench

int main(int argc, char** argv) { return txallo::bench::Main(argc, argv); }
