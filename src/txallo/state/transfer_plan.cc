#include "txallo/state/transfer_plan.h"

#include <algorithm>
#include <map>

namespace txallo::state {

int64_t TransferAmount(uint64_t seq) {
  return 1 + static_cast<int64_t>(seq % 7);
}

std::vector<Op> BuildTransferOps(const chain::Transaction& tx, uint64_t seq) {
  const int64_t amount = TransferAmount(seq);
  // Ordered map: the result must come out sorted by account id regardless
  // of the input/output orderings.
  std::map<chain::AccountId, Op> by_account;
  auto op_for = [&](chain::AccountId account) -> Op& {
    Op& op = by_account[account];
    op.account = account;
    return op;
  };
  int64_t pot = 0;
  for (chain::AccountId a : tx.inputs()) {
    op_for(a).debit += amount;
    pot += amount;
  }
  const std::span<const chain::AccountId> outputs = tx.outputs();
  if (!outputs.empty()) {
    const int64_t n = static_cast<int64_t>(outputs.size());
    const int64_t base = pot / n;
    for (chain::AccountId a : outputs) op_for(a).credit += base;
    op_for(outputs.front()).credit += pot - base * n;
  }
  std::vector<Op> ops;
  ops.reserve(by_account.size());
  for (const auto& [account, op] : by_account) ops.push_back(op);
  return ops;
}

}  // namespace txallo::state
