// Deterministic hot-path counters for the delta-log graph and the G-TxAllo
// sweep, dumped as integer-only JSON (--json-out=PATH). Every value is a
// count or a byte size — no timings, no floats — so the committed
// BENCH_kernels.json snapshot byte-diffs cleanly in CI on any machine.
//
// Scenario (fixed seed, fixed scale — TXALLO_SCALE intentionally ignored):
//  1. Build the transaction graph from a synthetic ledger and consolidate
//     it into the CSR core.
//  2. Log one more block of traffic (the steady-state delta between
//     per-block adaptive rebalances) without consolidating it.
//  3. Record what a BeginRebalance() snapshot copies at that point
//     (SnapshotBytes: the shared core is not copied, the log is) vs what
//     the legacy full-graph copy duplicated (FullCopyBytes) — the
//     bytes_ratio is the ">= 10x smaller snapshot" acceptance check.
//  4. Consolidate the last block, run one global G-TxAllo allocation and
//     record its integer outcomes (Louvain communities, sweep count) to
//     pin the batched gain kernel's behavior.
#include <cstdio>
#include <fstream>
#include <string>

#include "txallo/chain/ledger.h"
#include "txallo/common/flags.h"
#include "txallo/core/global.h"
#include "txallo/graph/builder.h"
#include "txallo/graph/graph.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags = Flags::ParseOrExit(argc, argv, {"json-out"});
  const std::string json_out = flags.GetString("json-out", "");

  workload::EthereumLikeConfig config;
  config.num_blocks = 248;
  config.txs_per_block = 200;
  config.num_accounts = 100'000;
  config.num_communities = 128;
  config.seed = 7;
  workload::EthereumLikeGenerator generator(config);
  chain::Ledger ledger = generator.GenerateLedger(config.num_blocks);

  // Freeze all but the last block into the CSR core; the final block is
  // the delta log a rebalance snapshot has to copy — the steady-state
  // shape when a strategy rebalances once per block.
  graph::TransactionGraph graph;
  graph::GraphBuilder builder(&graph);
  const size_t frozen_blocks = ledger.num_blocks() - 1;
  for (size_t b = 0; b < frozen_blocks; ++b) {
    builder.AddBlock(ledger.blocks()[b]);
  }
  builder.Finish();
  for (size_t b = frozen_blocks; b < ledger.num_blocks(); ++b) {
    builder.AddBlock(ledger.blocks()[b]);
  }
  const size_t frozen_edges = graph.frozen_edges();
  const size_t snapshot_bytes = graph.SnapshotBytes();
  const size_t full_copy_bytes = graph.FullCopyBytes();
  builder.Finish();
  graph.EnsureNodeCount(generator.registry().size());

  // One global allocation over the whole graph: integer outcomes only (the
  // throughput doubles stay out of the committed snapshot).
  alloc::AllocationParams params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), 20, 4.0);
  std::vector<graph::NodeId> order = generator.registry().IdsInHashOrder();
  core::GlobalRunInfo info;
  Result<alloc::Allocation> allocation =
      core::RunGlobalTxAllo(graph, order, params, core::GlobalOptions{}, &info);
  if (!allocation.ok()) {
    std::fprintf(stderr, "global allocation failed: %s\n",
                 allocation.status().ToString().c_str());
    return 1;
  }

  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"bench\": \"kernels_snapshot\",\n"
      "  \"seed\": %llu,\n"
      "  \"nodes\": %zu,\n"
      "  \"edges\": %zu,\n"
      "  \"frozen_edges\": %zu,\n"
      "  \"snapshot_bytes\": %zu,\n"
      "  \"full_copy_bytes\": %zu,\n"
      "  \"bytes_ratio\": %zu,\n"
      "  \"louvain_communities\": %u,\n"
      "  \"sweeps\": %d\n"
      "}\n",
      static_cast<unsigned long long>(config.seed), graph.num_nodes(),
      graph.num_edges(),
      frozen_edges, snapshot_bytes, full_copy_bytes,
      snapshot_bytes > 0 ? full_copy_bytes / snapshot_bytes : 0,
      info.louvain_communities, info.sweeps);
  std::fputs(buffer, stdout);
  if (!json_out.empty()) {
    std::ofstream file(json_out, std::ios::trunc);
    file << buffer;
    std::printf("wrote kernel counters to %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace txallo::bench

int main(int argc, char** argv) { return txallo::bench::Main(argc, argv); }
