// Descriptive statistics of a transaction graph. Backs the Figure-1
// reproduction (dataset structure: long-tail activity, hub share) and the
// workload generator's self-validation tests.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/graph/graph.h"

namespace txallo::graph {

/// Summary statistics of a consolidated transaction graph.
struct GraphStats {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  double total_weight = 0.0;
  double max_strength = 0.0;
  NodeId max_strength_node = 0;
  /// Share of total weight incident to the most active node — the paper's
  /// "about 11% transactions are associated with the most active account".
  double hub_weight_share = 0.0;
  double mean_degree = 0.0;
  size_t max_degree = 0;
  /// Fraction of nodes with degree <= 2 (the long tail).
  double low_degree_fraction = 0.0;
  /// Gini coefficient of node strengths: 0 = perfectly uniform activity,
  /// -> 1 = activity concentrated on few accounts.
  double strength_gini = 0.0;
};

/// Computes summary statistics. Every function here requires
/// graph.consolidated().
GraphStats ComputeGraphStats(const TransactionGraph& graph);

/// Degree histogram on a log2 scale: bucket i counts nodes with degree in
/// [2^i, 2^(i+1)). Bucket 0 holds degrees 0 and 1.
std::vector<uint64_t> DegreeHistogramLog2(const TransactionGraph& graph);

/// Number of connected components (self-loops ignored).
size_t CountConnectedComponents(const TransactionGraph& graph);

}  // namespace txallo::graph
