#include "txallo/core/gain.h"

namespace txallo::core {

void JoinGainBatch(const alloc::CommunityState& state, const NodeProfile& node,
                   const double* weight_to, const double* before, uint32_t k,
                   double* gains) {
  const double eta = state.eta;
  const double cap = state.capacity;
  // Loop-invariant pieces of JoinDelta, factored without reassociating:
  // d_sigma   = (ℓ + η·s) + (1 − 2η)·w_q   — the scalar kernel's own tree.
  // d_lambda_hat = ℓ + 0.5·s                — constant across q.
  const double sigma_base = node.self_loop + eta * node.strength;
  const double w_coef = 1.0 - 2.0 * eta;
  const double d_lambda_hat = node.self_loop + 0.5 * node.strength;
  const double* sigma = state.sigma.data();
  const double* lambda_hat = state.lambda_hat.data();
  for (uint32_t q = 0; q < k; ++q) {
    const double d_sigma = sigma_base + w_coef * weight_to[q];
    const double after =
        ClampThroughput(lambda_hat[q] + d_lambda_hat, sigma[q] + d_sigma, cap);
    gains[q] = after - before[q];
  }
}

double MoveGain(const alloc::CommunityState& state, uint32_t p, uint32_t q,
                const NodeProfile& node, double weight_to_p,
                double weight_to_q) {
  return LeaveDelta(state, p, node, weight_to_p).throughput_gain +
         JoinDelta(state, q, node, weight_to_q).throughput_gain;
}

void ApplyJoin(alloc::CommunityState* state, uint32_t q,
               const NodeProfile& node, double weight_to_q) {
  CommunityDelta delta = JoinDelta(*state, q, node, weight_to_q);
  state->sigma[q] += delta.d_sigma;
  state->lambda_hat[q] += delta.d_lambda_hat;
}

void ApplyLeave(alloc::CommunityState* state, uint32_t p,
                const NodeProfile& node, double weight_to_p) {
  CommunityDelta delta = LeaveDelta(*state, p, node, weight_to_p);
  state->sigma[p] += delta.d_sigma;
  state->lambda_hat[p] += delta.d_lambda_hat;
}

}  // namespace txallo::core
