// Lint fixture: hash-order iteration in a graph path. The delta-log CSR
// promises bit-identical reads across copy / fold, so txallo/graph/
// is in unordered-iter scope; hot paths use common::FlatMap (insertion
// order) and must not regress to hash-order. Expected findings:
// unordered-iter on the range-for over the unordered strength map —
// none on the vector loop.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace txallo::graph {

struct BadOverlayFold {
  std::unordered_map<uint32_t, double> shadow_strength;
  std::vector<double> frozen_strength;

  double TotalStrength() const {
    double total = 0.0;
    for (const auto& entry : shadow_strength) {
      total += entry.second;
    }
    for (double s : frozen_strength) {
      total += s;
    }
    return total;
  }
};

}  // namespace txallo::graph
