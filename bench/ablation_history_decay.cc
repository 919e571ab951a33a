// Extension bench (paper §VIII future work: "prediction of future
// transactions"): on a DRIFTING workload, compare three history policies
// for G-TxAllo, each evaluated on the NEXT (unseen) window — i.e., as a
// predictor of future transaction patterns:
//   full    — the whole history, unweighted (the paper's default);
//   decayed — exponential recency weighting (ScaleWeights per window);
//   fresh   — only the most recent windows, older history dropped.
//
// Expected: without drift the three tie; with drift, recency-weighted
// history adapts faster and wins on next-window cross-shard ratio and
// throughput. This quantifies the paper's own §VI-A advice to initialize
// from recent history ("prevents noise from out-of-date transactions").
#include <cstdio>
#include <utility>

#include "common/bench_common.h"
#include "txallo/core/global.h"
#include "txallo/graph/builder.h"

namespace {

using namespace txallo;

struct PolicyScore {
  double gamma_sum = 0.0;
  double throughput_sum = 0.0;
  int windows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::Flags::ParseOrExit(argc, argv,
      {"blocks-per-window", "csv-dir", "decay", "eta", "fresh", "k", "seed",
       "windows"});
  const int64_t k_flag = flags.GetInt("k", 12);
  const uint32_t k = static_cast<uint32_t>(k_flag);
  const double eta = flags.GetDouble("eta", 4.0);
  const int windows = static_cast<int>(flags.GetInt("windows", 12));
  const int blocks_per_window =
      static_cast<int>(flags.GetInt("blocks-per-window", 60));
  const double decay = flags.GetDouble("decay", 0.5);
  const int fresh_windows = static_cast<int>(flags.GetInt("fresh", 2));
  // Each flag out of range exits 1 naming it; decay is a factor in (0, 1],
  // as TxAlloController::ApplyHistoryDecay requires (NaN fails too).
  for (const auto& [ok, bound] : {
           std::pair{k_flag >= 1, "'k' must be >= 1"},
           std::pair{windows >= 1, "'windows' must be >= 1"},
           std::pair{blocks_per_window >= 1,
                     "'blocks-per-window' must be >= 1"},
           std::pair{decay > 0.0 && decay <= 1.0, "'decay' must be in (0, 1]"},
           std::pair{fresh_windows >= 1, "'fresh' must be >= 1"}}) {
    if (!ok) {
      std::fprintf(stderr, "%s\n", bound);
      return 1;
    }
  }

  std::printf("==============================================================\n");
  std::printf("Extension: history policies on a drifting workload "
              "(k=%u, eta=%g, decay=%g)\n", k, eta, decay);
  std::printf("Each policy re-runs G-TxAllo per window; scored on the NEXT "
              "window's transactions.\n");
  std::printf("==============================================================\n");

  for (bool drift : {false, true}) {
    workload::EthereumLikeConfig config;
    config.txs_per_block = 120;
    config.num_blocks = static_cast<uint64_t>((windows + 2) *
                                              blocks_per_window);
    config.num_accounts = 16'000;
    config.num_communities = 100;
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 9));
    if (drift) {
      config.drift_interval_blocks = blocks_per_window;
      config.drift_fraction = 0.25;
      config.drift_partner_share = 0.8;
    }
    workload::EthereumLikeGenerator gen(config);

    // Pre-generate all windows so every policy sees identical traffic.
    std::vector<std::vector<chain::Block>> window_blocks(windows + 1);
    for (int w = 0; w <= windows; ++w) {
      for (int b = 0; b < blocks_per_window; ++b) {
        window_blocks[w].push_back(gen.NextBlock());
      }
    }
    const std::vector<graph::NodeId> order =
        gen.registry().IdsInHashOrder();

    enum Policy { kFull = 0, kDecayed = 1, kFresh = 2 };
    const char* names[] = {"full history", "decayed", "fresh-only"};
    PolicyScore scores[3];

    for (int policy = kFull; policy <= kFresh; ++policy) {
      graph::TransactionGraph g;
      g.EnsureNodeCount(gen.registry().size());
      for (int w = 0; w < windows; ++w) {
        if (policy == kDecayed) {
          g.Consolidate();
          g.ScaleWeights(decay);
        }
        if (policy == kFresh) {
          // Rebuild from only the last `fresh_windows` windows.
          g = graph::TransactionGraph();
          g.EnsureNodeCount(gen.registry().size());
          graph::GraphBuilder rebuilder(&g);
          for (int back = std::max(0, w - fresh_windows + 1); back <= w;
               ++back) {
            for (const chain::Block& blk : window_blocks[back]) {
              rebuilder.AddBlock(blk);
            }
          }
        } else {
          graph::GraphBuilder builder(&g);
          for (const chain::Block& blk : window_blocks[w]) {
            builder.AddBlock(blk);
          }
        }
        g.Consolidate();

        alloc::AllocationParams params;
        params.num_shards = k;
        params.eta = eta;
        params.capacity = g.TotalWeight() / k;  // λ tracks live weight.
        params.epsilon = 1e-5 * g.TotalWeight();
        auto allocation = core::RunGlobalTxAllo(g, order, params);
        if (!allocation.ok()) {
          std::fprintf(stderr, "G-TxAllo failed: %s\n",
                       allocation.status().ToString().c_str());
          return 1;
        }
        // Score on the NEXT window.
        std::vector<chain::Transaction> next;
        for (const chain::Block& blk : window_blocks[w + 1]) {
          next.insert(next.end(), blk.transactions().begin(),
                      blk.transactions().end());
        }
        alloc::AllocationParams next_params =
            alloc::AllocationParams::ForExperiment(next.size(), k, eta);
        auto report =
            alloc::EvaluateAllocation(next, allocation.value(), next_params);
        if (!report.ok()) {
          std::fprintf(stderr, "next-window evaluation failed: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        scores[policy].gamma_sum += report->cross_shard_ratio;
        scores[policy].throughput_sum += report->normalized_throughput;
        ++scores[policy].windows;
      }
    }

    bench::SeriesTable table(
        std::string("Next-window prediction quality — drift ") +
            (drift ? "ON" : "OFF"),
        {"policy", "mean gamma(next)", "mean Lambda/lambda(next)"});
    for (int policy = kFull; policy <= kFresh; ++policy) {
      table.AddRow({names[policy],
                    bench::Fmt(scores[policy].gamma_sum /
                               scores[policy].windows),
                    bench::Fmt(scores[policy].throughput_sum /
                               scores[policy].windows)});
    }
    table.Print();
    table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                   drift ? "ablation_decay_drift_on.csv"
                         : "ablation_decay_drift_off.csv");
  }
  return 0;
}
