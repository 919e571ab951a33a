#include "txallo/common/math.h"

#include <cmath>

namespace txallo {

uint64_t EdgeSplitCount(uint64_t num_accounts) {
  if (num_accounts <= 1) return 1;  // Self-loop convention.
  return num_accounts * (num_accounts - 1) / 2;
}

double AverageLatencyBlocks(double workload, double capacity) {
  if (capacity <= 0.0) return 1.0;
  double norm = workload / capacity;
  if (norm <= 1.0) return 1.0;
  // ∫_0^σ̂ ⌈x⌉ dx  =  m(m+1)/2 + (σ̂ - m)·⌈σ̂⌉   with m = ⌊σ̂⌋.
  double m = std::floor(norm);
  double ceil = std::ceil(norm);
  double integral = m * (m + 1.0) / 2.0 + (norm - m) * ceil;
  return integral / norm;
}

double WorstCaseLatencyBlocks(double workload, double capacity) {
  if (capacity <= 0.0 || workload <= 0.0) return 1.0;
  double t = std::ceil(workload / capacity);
  return t < 1.0 ? 1.0 : t;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PopulationStdDev(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double mean = Mean(values);
  double sq = 0.0;
  for (double v : values) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(values.size()));
}

}  // namespace txallo
