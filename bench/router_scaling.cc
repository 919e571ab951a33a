// Router scaling: nanoseconds per routed transaction vs batch size, for
// 1 and N producer lanes, on both producer routers — engine::IngestRouter
// (a block into the engine's per-shard staging) and mempool::SubmitRouter
// (a batch into the mempool's staging buffer).
//
// Each router passes its batch size, times its per-transaction weight, to
// common::ForkJoinPool::Run as the work estimate, so a batch below the
// inline threshold runs every lane on the driver and the N-producer row
// matches the 1-producer row. The rows say where the rule puts each batch
// size ("inline" / "fork"). To see where fan-out itself starts to pay,
// build with common::kInlineWorkThreshold set to 0 (every Run forks) and
// find the smallest batch at which N producers beat one: each router's
// weight (IngestRouter::kItemsPerRoutedTx, SubmitRouter::kItemsPerRoutedTx)
// puts that batch at the threshold.
//
//   ./build/bench/router_scaling [--producers=2] [--reps=2000]
//
// Only the submit calls are timed; between them the driver drains what
// was routed (a one-lane engine tick, a mempool seal and take), untimed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/bench_common.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/common/fork_join.h"
#include "txallo/common/stopwatch.h"
#include "txallo/engine/ingest_router.h"
#include "txallo/mempool/mempool.h"
#include "txallo/mempool/submit_router.h"

namespace txallo::bench {
namespace {

constexpr uint32_t kShards = 16;

// Mean ns per transaction over `reps` IngestRouter::SubmitBlock calls of
// `batch` transactions each.
double IngestNsPerTx(const std::vector<chain::Transaction>& txs,
                     const alloc::Allocation& allocation, size_t batch,
                     uint32_t producers, int reps) {
  engine::EngineConfig config;
  config.num_shards = kShards;
  config.num_threads = 1;
  config.work.capacity_per_block = 1e12;  // Every tick drains the staging.
  engine::ParallelEngine engine(
      config, std::make_shared<alloc::Allocation>(allocation));
  engine::IngestRouter router(&engine, producers);
  std::vector<chain::Transaction> block;
  double seconds = 0.0;
  size_t next = 0;
  for (int rep = 0; rep < reps; ++rep) {
    block.clear();
    for (size_t i = 0; i < batch; ++i) {
      block.push_back(txs[next]);
      next = (next + 1) % txs.size();
    }
    Stopwatch watch;
    if (!router.SubmitBlock(block).ok()) std::abort();
    seconds += watch.ElapsedSeconds();
    engine.Tick();
  }
  return seconds * 1e9 / (static_cast<double>(batch) * reps);
}

// Mean ns per transaction over `reps` SubmitRouter::SubmitBatch calls of
// `batch` transactions each.
double MempoolNsPerTx(const std::vector<chain::Transaction>& txs, size_t batch,
                      uint32_t producers, int reps) {
  mempool::MempoolConfig config;
  config.capacity = 0;
  config.staging_capacity = batch;
  mempool::Mempool pool(config);
  mempool::SubmitRouter router(&pool, producers);
  std::vector<chain::Transaction> slice;
  std::vector<uint64_t> fees(batch);
  double seconds = 0.0;
  size_t next = 0;
  for (int rep = 0; rep < reps; ++rep) {
    slice.clear();
    for (size_t i = 0; i < batch; ++i) {
      slice.push_back(txs[next]);
      fees[i] = 1 + (next % 7);
      next = (next + 1) % txs.size();
    }
    const uint64_t tick = static_cast<uint64_t>(rep);
    const uint64_t seq_base = pool.ReserveSequenceRange(batch);
    Stopwatch watch;
    if (router.SubmitBatch(slice.data(), fees.data(), batch, tick,
                           seq_base) != batch) {
      std::abort();
    }
    seconds += watch.ElapsedSeconds();
    pool.SealTick(tick);
    (void)pool.TakeBatch(batch);
  }
  return seconds * 1e9 / (static_cast<double>(batch) * reps);
}

const char* Path(uint64_t work) {
  return work < common::kInlineWorkThreshold ? "inline" : "fork";
}

int Main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  BenchScale scale = ResolveBenchScale(flags);
  const uint32_t producers =
      static_cast<uint32_t>(std::max<int64_t>(2, flags.GetInt("producers", 2)));
  // Each point routes about reps x 128 transactions: more calls at small
  // batches, fewer at large ones.
  const int reps = static_cast<int>(flags.GetInt("reps", 2'000));
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");

  workload::EthereumLikeConfig gen_config;
  gen_config.txs_per_block = 1'000;
  gen_config.num_blocks = 32;
  gen_config.num_accounts = scale.num_accounts;
  gen_config.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(64, scale.num_accounts / 160));
  gen_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  workload::EthereumLikeGenerator generator(gen_config);
  const chain::Ledger ledger = generator.GenerateLedger(gen_config.num_blocks);
  std::vector<chain::Transaction> txs;
  ledger.ForEachTransaction(
      [&](const chain::Transaction& tx) { txs.push_back(tx); });
  const alloc::Allocation allocation =
      baselines::AllocateByHash(generator.registry(), kShards);

  std::printf(
      "==============================================================\n"
      "router_scaling — ns per routed transaction vs batch size\n"
      "1 vs %u producer lanes, %zu distinct transactions, k = %u\n"
      "inline threshold: %" PRIu64 " work items (common/fork_join.h)\n"
      "==============================================================\n",
      producers, txs.size(), kShards, common::kInlineWorkThreshold);

  SeriesTable table("producer routers",
                    {"batch", "ingest path", "ingest 1 ns/tx",
                     "ingest N ns/tx", "ingest speedup", "mempool path",
                     "mempool 1 ns/tx", "mempool N ns/tx",
                     "mempool speedup"});
  for (const size_t batch :
       {32u, 64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u, 16384u,
        32768u, 65536u}) {
    const int calls = std::max(20, static_cast<int>(
                                       static_cast<size_t>(reps) * 128 / batch));
    const double ingest_one = IngestNsPerTx(txs, allocation, batch, 1, calls);
    const double ingest_n =
        IngestNsPerTx(txs, allocation, batch, producers, calls);
    const double pool_one = MempoolNsPerTx(txs, batch, 1, calls);
    const double pool_n = MempoolNsPerTx(txs, batch, producers, calls);
    table.AddRow({std::to_string(batch),
                  Path(batch * engine::IngestRouter::kItemsPerRoutedTx),
                  Fmt(ingest_one, 0), Fmt(ingest_n, 0),
                  Fmt(ingest_one / ingest_n, 2),
                  Path(batch * mempool::SubmitRouter::kItemsPerRoutedTx),
                  Fmt(pool_one, 0), Fmt(pool_n, 0),
                  Fmt(pool_one / pool_n, 2)});
  }
  table.Print();
  table.WriteCsv(csv_dir, "router_scaling.csv");
  std::printf(
      "\nExpected: on the inline rows N producers cost what one does (both\n"
      "run on the driver); on the fork rows N producers are at least as\n"
      "fast. CSV series written to %s/router_scaling.csv\n",
      csv_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace txallo::bench

int main(int argc, char** argv) { return txallo::bench::Main(argc, argv); }
