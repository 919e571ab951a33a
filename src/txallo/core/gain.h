// Closed-form throughput-gain kernel of TxAllo (paper §V-B).
//
// For a node v with self-loop weight ℓ = w{v,v}, strength s = w{v, V\v},
// and edge weight c_X = w{v, V_X \ v} to a community X:
//
//   join q  (v ∉ V_q):  Δσ_q = ℓ + η·s + (1 − 2η)·c_q
//                       ΔΛ̂_q = ℓ + s/2
//   leave p (v ∈ V_p):  Δσ_p = −ℓ − η·(s − c_p) + (η − 1)·c_p
//                       ΔΛ̂_p = −ℓ − s/2
//
// and the throughput gain of a move uses the capacity-clamped Λ (Eq. 7)
// evaluated before/after, so Δ(i,p,q)Λ = ΔΛ_p + ΔΛ_q (Eq. 8). By Lemma 1,
// no other community's throughput changes — the property tests verify this
// against a from-scratch recomputation.
#pragma once

#include <cstdint>

#include "txallo/alloc/graph_metrics.h"
#include "txallo/common/math.h"

namespace txallo::core {

/// Per-node quantities the delta formulas need.
struct NodeProfile {
  double self_loop = 0.0;  // ℓ
  double strength = 0.0;   // s
};

/// Workload/throughput deltas for one community affected by a move.
struct CommunityDelta {
  double d_sigma = 0.0;
  double d_lambda_hat = 0.0;
  /// Λ'_X − Λ_X under the capacity clamp.
  double throughput_gain = 0.0;
};

/// Deltas for community q when `v` joins it. `weight_to_q` = w{v, V_q}.
/// `before_q` must equal state.ThroughputOf(q), q's clamped throughput as
/// it stands: callers that evaluate many moves against one state cache it
/// instead of recomputing the clamp per gain. Precondition: v is not
/// currently in q.
inline CommunityDelta JoinDelta(const alloc::CommunityState& state, uint32_t q,
                                const NodeProfile& node, double weight_to_q,
                                double before_q) {
  CommunityDelta delta;
  const double eta = state.eta;
  delta.d_sigma = node.self_loop + eta * node.strength +
                  (1.0 - 2.0 * eta) * weight_to_q;
  delta.d_lambda_hat = node.self_loop + 0.5 * node.strength;
  const double after =
      ClampThroughput(state.lambda_hat[q] + delta.d_lambda_hat,
                      state.sigma[q] + delta.d_sigma, state.capacity);
  delta.throughput_gain = after - before_q;
  return delta;
}

inline CommunityDelta JoinDelta(const alloc::CommunityState& state, uint32_t q,
                                const NodeProfile& node, double weight_to_q) {
  return JoinDelta(state, q, node, weight_to_q, state.ThroughputOf(q));
}

/// Deltas for community p when `v` leaves it. `weight_to_p` = w{v, V_p\v};
/// `before_p` as for JoinDelta. Precondition: v is currently in p.
inline CommunityDelta LeaveDelta(const alloc::CommunityState& state,
                                 uint32_t p, const NodeProfile& node,
                                 double weight_to_p, double before_p) {
  CommunityDelta delta;
  const double eta = state.eta;
  delta.d_sigma = -node.self_loop - eta * (node.strength - weight_to_p) +
                  (eta - 1.0) * weight_to_p;
  delta.d_lambda_hat = -node.self_loop - 0.5 * node.strength;
  const double after =
      ClampThroughput(state.lambda_hat[p] + delta.d_lambda_hat,
                      state.sigma[p] + delta.d_sigma, state.capacity);
  delta.throughput_gain = after - before_p;
  return delta;
}

inline CommunityDelta LeaveDelta(const alloc::CommunityState& state,
                                 uint32_t p, const NodeProfile& node,
                                 double weight_to_p) {
  return LeaveDelta(state, p, node, weight_to_p, state.ThroughputOf(p));
}

/// Δ(i,p,q)Λ for moving v from p to q (Eq. 8). Precondition: p != q.
double MoveGain(const alloc::CommunityState& state, uint32_t p, uint32_t q,
                const NodeProfile& node, double weight_to_p,
                double weight_to_q);

/// Batched join kernel: gains[q] = JoinDelta(state, q, node, weight_to[q],
/// before[q]).throughput_gain for every q in [0, k), in one pass over the
/// contiguous σ/Λ̂ arrays (CommunityState is SoA). `before` is the caller's
/// per-call clamp cache, before[q] == state.ThroughputOf(q) for every q, so
/// each element costs one clamp (at most one division), not two.
/// Bit-identical to the scalar JoinDelta per element: the expression tree
/// is the same and the strict -std build forbids FP contraction, so the
/// only difference is memory access order — which FP addition does not
/// see. The TxAllo sweeps use this for their Eq. 9 candidate evaluation
/// whenever the candidate set is dense.
void JoinGainBatch(const alloc::CommunityState& state, const NodeProfile& node,
                   const double* weight_to, const double* before, uint32_t k,
                   double* gains);

/// Applies a join to the running state (σ_q, Λ̂_q updated in place).
void ApplyJoin(alloc::CommunityState* state, uint32_t q,
               const NodeProfile& node, double weight_to_q);

/// Applies a leave to the running state.
void ApplyLeave(alloc::CommunityState* state, uint32_t p,
                const NodeProfile& node, double weight_to_p);

}  // namespace txallo::core
