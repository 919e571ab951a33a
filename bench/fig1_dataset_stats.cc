// Figure 1 (paper §VI-A): the dataset's structure. The paper shows a force
// layout of 300k sampled transactions; the text rendition here reports the
// same properties the figure is there to demonstrate — a heavy hub account
// (~11% of transactions), long-tail activity, and community structure.
#include <cinttypes>
#include <cstdio>

#include "common/bench_common.h"
#include "txallo/graph/louvain.h"
#include "txallo/graph/stats.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv, {"seed"});
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner(
      "Figure 1: Dataset structure (text rendition of the paper's "
      "transaction-graph visualization)",
      scale, fixture, seed);

  const graph::TransactionGraph& g = fixture.graph();
  graph::GraphStats stats = graph::ComputeGraphStats(g);

  std::printf("\nGlobal structure\n");
  std::printf("  nodes (accounts)           : %zu\n", stats.num_nodes);
  std::printf("  edges (account pairs)      : %zu\n", stats.num_edges);
  std::printf("  total edge weight (= |T|)  : %.1f\n", stats.total_weight);
  std::printf("  connected components       : %zu\n",
              graph::CountConnectedComponents(g));

  std::printf("\nHub account (paper: ~11%% of transactions)\n");
  std::printf("  most active account        : %u\n", stats.max_strength_node);
  std::printf("  hub weight share           : %.1f%%\n",
              100.0 * stats.hub_weight_share);

  std::printf("\nLong tail (paper: most accounts have very few records)\n");
  std::printf("  mean degree                : %.2f\n", stats.mean_degree);
  std::printf("  max degree                 : %zu\n", stats.max_degree);
  std::printf("  fraction with degree <= 2  : %.1f%%\n",
              100.0 * stats.low_degree_fraction);
  std::printf("  activity Gini coefficient  : %.3f\n", stats.strength_gini);

  std::printf("\nDegree histogram (log2 buckets)\n");
  auto hist = graph::DegreeHistogramLog2(g);
  for (size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) continue;
    std::printf("  degree in [%zu, %zu): %" PRIu64 "\n", size_t{1} << b,
                size_t{1} << (b + 1), hist[b]);
  }

  std::printf("\nCommunity structure (what graph-based allocation exploits)\n");
  graph::LouvainResult louvain =
      graph::RunLouvain(g, fixture.node_order());
  std::printf("  Louvain communities        : %u\n", louvain.num_communities);
  std::printf("  modularity Q               : %.3f\n",
              graph::Modularity(g, louvain.community));
  std::printf("  aggregation levels         : %d\n", louvain.levels);
  return 0;
}
