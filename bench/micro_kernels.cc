// google-benchmark micro-kernels for the hot paths: SHA-256, Zipf
// sampling, transaction-graph construction, Louvain, one optimization
// sweep, a full G-TxAllo run, the gain kernel, metric evaluation, and the
// Shard Scheduler's per-transaction cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <span>
#include <unordered_map>

#include "txallo/alloc/metrics.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/baselines/shard_scheduler.h"
#include "txallo/chain/account.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/flat_map.h"
#include "txallo/common/rng.h"
#include "txallo/common/sha256.h"
#include "txallo/common/zipf.h"
#include "txallo/core/gain.h"
#include "txallo/core/global.h"
#include "txallo/engine/engine.h"
#include "txallo/graph/builder.h"
#include "txallo/graph/louvain.h"
#include "txallo/workload/ethereum_like.h"

namespace {

using namespace txallo;

// google-benchmark binaries don't parse our --flags; TXALLO_ACCOUNTS is the
// scale channel for 1e5 → 1e7 account sweeps (block count grows with it so
// the graph keeps non-trivial density per account).
size_t BenchAccounts() {
  if (const char* env = std::getenv("TXALLO_ACCOUNTS")) {
    const long long v = std::strtoll(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 20'000;
}

const workload::EthereumLikeGenerator& SharedGenerator() {
  static auto* generator = [] {
    workload::EthereumLikeConfig config;
    const size_t accounts = BenchAccounts();
    config.num_blocks = static_cast<uint32_t>(
        std::max<size_t>(250, accounts / 80));
    config.txs_per_block = 200;
    config.num_accounts = accounts;
    config.num_communities = 128;
    config.seed = 7;
    return new workload::EthereumLikeGenerator(config);
  }();
  return *generator;
}

const chain::Ledger& SharedLedger() {
  static auto* ledger = [] {
    auto* generator =
        const_cast<workload::EthereumLikeGenerator*>(&SharedGenerator());
    const auto blocks = static_cast<uint32_t>(
        std::max<size_t>(250, BenchAccounts() / 80));
    return new chain::Ledger(generator->GenerateLedger(blocks));
  }();
  return *ledger;
}

const graph::TransactionGraph& SharedGraph() {
  static auto* g = [] {
    auto* built =
        new graph::TransactionGraph(graph::BuildTransactionGraph(SharedLedger()));
    built->EnsureNodeCount(SharedGenerator().registry().size());
    built->Consolidate();
    return built;
  }();
  return *g;
}

void BM_Sha256_1KiB(benchmark::State& state) {
  std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Sha256_AccountBucket(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash64(i++) % 60);
  }
}
BENCHMARK(BM_Sha256_AccountBucket);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 1.1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1'000)->Arg(100'000);

// Set-up: the three parts of generating a workload, at TXALLO_ACCOUNTS
// accounts. BM_GenerateLedger takes perf_ledger's closed-hash-1m shape (one
// community per 160 accounts, two transactions per account in blocks of
// 1000) and times the generator's construction (registry and samplers)
// plus the ledger.
void BM_RegistryCreateSynthetic(benchmark::State& state) {
  const size_t accounts = BenchAccounts();
  for (auto _ : state) {
    chain::AccountRegistry registry;
    benchmark::DoNotOptimize(registry.CreateSynthetic(accounts).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(accounts));
}
BENCHMARK(BM_RegistryCreateSynthetic)->Unit(benchmark::kMillisecond);

void BM_GenerateLedger(benchmark::State& state) {
  const size_t accounts = BenchAccounts();
  workload::EthereumLikeConfig config;
  config.num_accounts = accounts;
  config.num_communities =
      static_cast<uint32_t>(std::max<size_t>(32, accounts / 160));
  config.txs_per_block = 1000;
  config.num_blocks = std::max<size_t>(1, 2 * accounts / 1000);
  for (auto _ : state) {
    workload::EthereumLikeGenerator generator(config);
    benchmark::DoNotOptimize(
        generator.GenerateLedger(config.num_blocks).num_transactions());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(config.num_blocks *
                                               config.txs_per_block));
}
BENCHMARK(BM_GenerateLedger)->Unit(benchmark::kMillisecond);

// One input and range(0) outputs: 1 and 2 stay inline, 4 spills.
void BM_TransactionBuild(benchmark::State& state) {
  const size_t n = BenchAccounts();
  const auto outputs = static_cast<size_t>(state.range(0));
  std::vector<chain::AccountId> ids(outputs + 1);
  std::vector<chain::Transaction> txs;
  txs.reserve(n);
  for (auto _ : state) {
    txs.clear();
    for (size_t i = 0; i < n; ++i) {
      std::iota(ids.begin(), ids.end(), static_cast<chain::AccountId>(i));
      txs.emplace_back(std::span<const chain::AccountId>(ids).first(1),
                       std::span<const chain::AccountId>(ids).subspan(1));
    }
    benchmark::DoNotOptimize(txs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TransactionBuild)->Arg(1)->Arg(2)->Arg(4);

void BM_GraphBuild(benchmark::State& state) {
  const chain::Ledger& ledger = SharedLedger();
  for (auto _ : state) {
    graph::TransactionGraph g = graph::BuildTransactionGraph(ledger);
    benchmark::DoNotOptimize(g.TotalWeight());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ledger.num_transactions()));
}
BENCHMARK(BM_GraphBuild);

// The shared graph's node order: range 0 visits in id order, range 1 in
// account-hash order, the order G-TxAllo runs in.
std::vector<graph::NodeId> BenchOrder(bool hash_order) {
  if (hash_order) return SharedGenerator().registry().IdsInHashOrder();
  std::vector<graph::NodeId> order(SharedGraph().num_nodes());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

void BM_Louvain(benchmark::State& state) {
  const graph::TransactionGraph& g = SharedGraph();
  const std::vector<graph::NodeId> order = BenchOrder(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::RunLouvain(g, order));
  }
}
BENCHMARK(BM_Louvain)->ArgName("hash_order")->Arg(0)->Arg(1);

void BM_GainKernel(benchmark::State& state) {
  alloc::CommunityState community_state;
  community_state.eta = 4.0;
  community_state.capacity = 100.0;
  community_state.sigma.assign(60, 80.0);
  community_state.lambda_hat.assign(60, 60.0);
  core::NodeProfile node{0.5, 12.0};
  uint32_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::MoveGain(community_state, q % 60, (q + 1) % 60, node, 3.0,
                       4.0));
    ++q;
  }
}
BENCHMARK(BM_GainKernel);

void BM_OptimizeSweep(benchmark::State& state) {
  const graph::TransactionGraph& g = SharedGraph();
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  alloc::AllocationParams params = alloc::AllocationParams::ForExperiment(
      SharedLedger().num_transactions(), k, 4.0);
  std::vector<graph::NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    alloc::Allocation allocation = baselines::AllocateByHash(
        g.num_nodes(), k);
    alloc::CommunityState community_state =
        alloc::ComputeCommunityState(g, allocation, params);
    core::GlobalOptions options;
    options.max_sweeps = 1;
    state.ResumeTiming();
    core::OptimizeSweeps(g, order, params, options, &allocation,
                         &community_state);
    benchmark::DoNotOptimize(community_state.TotalThroughput());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_OptimizeSweep)->Arg(8)->Arg(60);

// A full G-TxAllo run to convergence in account-hash order: Louvain, the
// absorption of every node outside the top-k communities and every
// phase-2 sweep, the tail ones included (BM_OptimizeSweep stops after
// one). Registered accounts that never transact are zero-degree nodes, as
// on a churning ledger; the counters give their share and the sweeps run.
void BM_GlobalTxAllo(benchmark::State& state) {
  const graph::TransactionGraph& g = SharedGraph();
  const auto k = static_cast<uint32_t>(state.range(0));
  const alloc::AllocationParams params =
      alloc::AllocationParams::ForExperiment(
          SharedLedger().num_transactions(), k, 4.0);
  const std::vector<graph::NodeId> order = BenchOrder(/*hash_order=*/true);
  core::GlobalRunInfo info;
  for (auto _ : state) {
    auto allocation = core::RunGlobalTxAllo(g, order, params, {}, &info);
    if (!allocation.ok()) {
      state.SkipWithError(allocation.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(allocation->raw().data());
  }
  size_t zero_degree = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.Neighbors(v).empty() && g.SelfLoop(v) == 0.0) ++zero_degree;
  }
  state.counters["zero_degree_share"] =
      static_cast<double>(zero_degree) / static_cast<double>(g.num_nodes());
  state.counters["sweeps"] = info.sweeps;
}
BENCHMARK(BM_GlobalTxAllo)->Arg(8)->Arg(60)->Unit(benchmark::kMillisecond);

// Builds a graph with ~`frozen_edges` frozen into the CSR core, then a
// fixed 1024-edge delta left in the log: what a strategy's BeginRebalance()
// copies. Snapshot cost must track the delta, not the core — the point of
// the delta-log design.
graph::TransactionGraph MakeOverlaidGraph(size_t frozen_edges) {
  graph::TransactionGraph g;
  const auto n = static_cast<graph::NodeId>(
      std::max<size_t>(1024, frozen_edges / 8));
  Rng rng(11);
  for (size_t e = 0; e < frozen_edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextBounded(n));
    const auto v = static_cast<graph::NodeId>(rng.NextBounded(n));
    g.AddEdge(u, v, 1.0);
  }
  g.Consolidate();
  for (size_t e = 0; e < 1024; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextBounded(n));
    const auto v = static_cast<graph::NodeId>(rng.NextBounded(n));
    g.AddEdge(u, v, 1.0);
  }
  return g;
}

void BM_GraphSnapshotCopy(benchmark::State& state) {
  const graph::TransactionGraph g =
      MakeOverlaidGraph(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    graph::TransactionGraph snapshot = g;
    benchmark::DoNotOptimize(snapshot.num_edges());
  }
  state.counters["frozen_edges"] =
      static_cast<double>(g.frozen_edges());
  state.counters["snapshot_bytes"] = static_cast<double>(g.SnapshotBytes());
  state.counters["full_copy_bytes"] = static_cast<double>(g.FullCopyBytes());
}
// The flat time across this range (frozen E grows 64×, the delta is fixed)
// is the "snapshot time independent of frozen-edge count" acceptance check.
BENCHMARK(BM_GraphSnapshotCopy)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// One A-TxAllo step's consolidation: a frozen core (TXALLO_ACCOUNTS
// nodes, 8 random edges logged from each) plus a delta log that touches
// one node in seven (~14%), one edge from each node of the slice. The
// slice is strided, not contiguous, like the accounts a drift step
// touches. Each iteration copies the graph (core shared, log copied) and
// consolidates the copy, as a rebalance task does.
graph::TransactionGraph MakeDriftStep() {
  graph::TransactionGraph g;
  const auto n = static_cast<graph::NodeId>(BenchAccounts());
  Rng rng(13);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (int e = 0; e < 8; ++e) {
      g.AddEdge(u, static_cast<graph::NodeId>(rng.NextBounded(n)), 1.0);
    }
  }
  g.Consolidate();
  for (graph::NodeId u = 0; u < n; u += 7) {
    g.AddEdge(u, static_cast<graph::NodeId>(rng.NextBounded(n)), 1.0);
  }
  return g;
}

void BM_GraphConsolidate(benchmark::State& state) {
  const graph::TransactionGraph g = MakeDriftStep();
  for (auto _ : state) {
    graph::TransactionGraph step = g;
    step.Consolidate();
    benchmark::DoNotOptimize(step.core());
  }
  state.counters["frozen_edges"] = static_cast<double>(g.frozen_edges());
  state.counters["delta_edges"] = static_cast<double>(g.delta_edges());
}
BENCHMARK(BM_GraphConsolidate);

void BM_JoinGainBatch(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  alloc::CommunityState community_state;
  community_state.eta = 4.0;
  community_state.capacity = 100.0;
  community_state.sigma.assign(k, 80.0);
  community_state.lambda_hat.assign(k, 60.0);
  core::NodeProfile node{0.5, 12.0};
  std::vector<double> weight_to(k, 3.0);
  std::vector<double> before(k);
  for (uint32_t q = 0; q < k; ++q) before[q] = community_state.ThroughputOf(q);
  std::vector<double> gains(k, 0.0);
  for (auto _ : state) {
    core::JoinGainBatch(community_state, node, weight_to.data(), before.data(),
                        k, gains.data());
    benchmark::DoNotOptimize(gains.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_JoinGainBatch)->Arg(8)->Arg(60)->Arg(256);

// contiguous_miss:0 finds random present keys. contiguous_miss:1 holds
// the run [0, n) and looks up absent keys i + 2^24, which an identity hash
// would send into the run's probe cluster — the state DB's Commit/Abort
// probing every shard's staged sequence numbers.
void BM_FlatMapLookup(benchmark::State& state) {
  common::FlatMap<uint32_t, uint64_t> map;
  const bool contiguous_miss = state.range(1) != 0;
  Rng rng(5);
  std::vector<uint32_t> keys(static_cast<size_t>(state.range(0)));
  for (size_t k = 0; k < keys.size(); ++k) {
    const auto key = contiguous_miss ? static_cast<uint32_t>(k)
                                     : static_cast<uint32_t>(rng.NextUint64());
    map.emplace(key, static_cast<uint64_t>(key) * 3);
    keys[k] = contiguous_miss ? key + (uint32_t{1} << 24) : key;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_FlatMapLookup)
    ->ArgNames({"n", "contiguous_miss"})
    ->Args({1 << 10, 0})
    ->Args({1 << 16, 0})
    ->Args({1 << 10, 1})
    ->Args({1 << 16, 1});

void BM_UnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<uint32_t, uint64_t> map;
  Rng rng(5);
  std::vector<uint32_t> keys(static_cast<size_t>(state.range(0)));
  for (auto& key : keys) {
    key = static_cast<uint32_t>(rng.NextUint64());
    map.emplace(key, static_cast<uint64_t>(key) * 3);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(1 << 10)->Arg(1 << 16);

void BM_EvaluateAllocation(benchmark::State& state) {
  const chain::Ledger& ledger = SharedLedger();
  alloc::Allocation allocation =
      baselines::AllocateByHash(SharedGenerator().registry(), 20);
  alloc::AllocationParams params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), 20, 2.0);
  for (auto _ : state) {
    auto report = alloc::EvaluateAllocation(ledger, allocation, params);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ledger.num_transactions()));
}
BENCHMARK(BM_EvaluateAllocation);

void BM_ShardSchedulerPerTx(benchmark::State& state) {
  const chain::Ledger& ledger = SharedLedger();
  auto txs = ledger.AllTransactions();
  size_t i = 0;
  baselines::ShardScheduler scheduler(20, 2.0);
  for (auto _ : state) {
    scheduler.Process(txs[i]);
    i = (i + 1) % txs.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardSchedulerPerTx);

// The engine's ingest over a hash mapping of 1M accounts (4 MB, more than
// an L2): SubmitBlock() routes 1,000-transaction blocks of uniform random
// transfers into 64 shards. Two untimed ticks after each block drain it, so
// the staging buffers and the 2PC window stay small.
void BM_SubmitBlock(benchmark::State& state) {
  constexpr size_t kAccounts = 1'000'000;
  constexpr uint32_t kShards = 64;
  constexpr size_t kTxsPerBlock = 1000;
  constexpr size_t kBlocks = 64;
  engine::EngineConfig config;
  config.num_shards = kShards;
  config.num_threads = 1;
  config.hash_route_unassigned = true;
  config.work.capacity_per_block = 1e9;
  engine::ParallelEngine engine(
      config, std::make_shared<const alloc::Allocation>(
                  baselines::AllocateByHash(kAccounts, kShards)));
  Rng rng(11);
  std::vector<std::vector<chain::Transaction>> blocks(kBlocks);
  for (std::vector<chain::Transaction>& block : blocks) {
    for (size_t i = 0; i < kTxsPerBlock; ++i) {
      block.push_back(chain::Transaction::Simple(
          static_cast<chain::AccountId>(rng.NextBounded(kAccounts)),
          static_cast<chain::AccountId>(rng.NextBounded(kAccounts))));
    }
  }
  size_t b = 0;
  for (auto _ : state) {
    const Status submitted = engine.SubmitBlock(blocks[b]);
    benchmark::DoNotOptimize(submitted.ok());
    state.PauseTiming();
    engine.Tick();
    engine.Tick();
    state.ResumeTiming();
    b = (b + 1) % kBlocks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTxsPerBlock));
}
BENCHMARK(BM_SubmitBlock);

}  // namespace

BENCHMARK_MAIN();
