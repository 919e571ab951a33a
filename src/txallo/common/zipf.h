// Bounded Zipf(s) sampler over ranks {0, ..., n-1}.
//
// The Ethereum transaction pattern the paper evaluates on is long-tail
// distributed (paper Fig. 1: "Most accounts are not active and only have very
// few transaction records"). The workload generator draws account activity
// ranks from this distribution.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/common/rng.h"

namespace txallo {

/// Zipf sampler: the inverse CDF over a cumulative table of all n ranks,
/// built once per (n, s).
///
/// P(rank = i) ∝ 1 / (i + 1)^s for i in [0, n).
class ZipfSampler {
 public:
  /// Builds the sampler. Precondition: n >= 1, s >= 0. s = 0 degenerates to
  /// the uniform distribution.
  ZipfSampler(uint64_t n, double s);

  /// Draws a rank in [0, n). Rank 0 is the most probable.
  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// Probability mass of a given rank.
  double Pmf(uint64_t rank) const;

 private:
  uint64_t n_;
  double s_;
  double normalizer_;
  // Cumulative probabilities; each draw binary-searches them (n doubles,
  // log2 n probes). Draws concentrate on a few large tables, which stay in
  // cache: EthereumLikeGenerator shares one sampler per distinct community
  // size. BM_ZipfSample measures a draw; an indexed (guide-table) search was
  // measured slower on the generated ledger.
  std::vector<double> cdf_;
};

}  // namespace txallo
