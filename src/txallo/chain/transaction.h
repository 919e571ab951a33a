// Transaction model, paper §III-A: a transaction is the pair of its input
// and output account sets, Tx := (A_in, A_out), both non-empty. Everything
// the allocation problem needs — whether a transaction is cross-shard, how
// many shards process it — is a function of A_Tx = A_in ∪ A_out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "txallo/chain/account.h"

namespace txallo::chain {

/// A multi-input multi-output account-based transaction.
///
/// Inputs, outputs and the sorted distinct account set are stored back to
/// back in one buffer. A transaction with at most kInlineParties inputs and
/// outputs together — one input and one or two outputs, nearly every
/// Ethereum transaction — keeps that buffer inside the object and owns no
/// heap memory; a larger one spills it into one heap block.
class Transaction {
 public:
  static constexpr size_t kInlineParties = 3;

  Transaction() = default;

  /// Builds a transaction; deduplicates and sorts the distinct account set.
  /// Inputs/outputs may overlap (a self-transfer has A_in == A_out).
  Transaction(std::span<const AccountId> inputs,
              std::span<const AccountId> outputs);
  Transaction(std::initializer_list<AccountId> inputs,
              std::initializer_list<AccountId> outputs)
      : Transaction(std::span<const AccountId>(inputs.begin(), inputs.size()),
                    std::span<const AccountId>(outputs.begin(),
                                               outputs.size())) {}

  Transaction(const Transaction& other);
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(const Transaction& other);
  Transaction& operator=(Transaction&& other) noexcept;
  ~Transaction() {
    if (spilled_) delete[] heap_;
  }

  /// Convenience 1-input-1-output constructor (the dominant Ethereum case).
  static Transaction Simple(AccountId from, AccountId to) {
    return Transaction({from}, {to});
  }

  std::span<const AccountId> inputs() const {
    const Layout l = layout();
    return {l.ids, l.inputs};
  }
  std::span<const AccountId> outputs() const {
    const Layout l = layout();
    return {l.ids + l.inputs, l.outputs};
  }

  /// A_Tx = A_in ∪ A_out, sorted ascending, no duplicates.
  std::span<const AccountId> accounts() const {
    const Layout l = layout();
    return {l.ids + l.inputs + l.outputs, l.accounts};
  }

  /// |A_Tx|.
  size_t NumDistinctAccounts() const { return layout().accounts; }

  /// True when the transaction touches exactly one account (self-transfer,
  /// e.g. an Ethereum pending-transaction withdrawal, paper §V-B).
  bool IsSelfLoop() const { return NumDistinctAccounts() == 1; }

 private:
  // Inputs + outputs + distinct accounts of an inline transaction.
  static constexpr size_t kInlineIds = 2 * kInlineParties;
  // A spilled heap block: the three counts, then the ids.
  static constexpr size_t kSpillHeader = 3;

  struct Layout {
    const AccountId* ids;
    uint32_t inputs;
    uint32_t outputs;
    uint32_t accounts;
  };
  Layout layout() const {
    if (spilled_) return {heap_ + kSpillHeader, heap_[0], heap_[1], heap_[2]};
    return {inline_, inline_inputs_, inline_outputs_, inline_accounts_};
  }
  // CopyFrom and StealFrom fill an empty transaction; Release empties one.
  void CopyFrom(const Transaction& other);
  void StealFrom(Transaction& other);
  void Release();

  // Counts of an inline transaction; a spilled one keeps them in its block.
  uint8_t inline_inputs_ = 0;
  uint8_t inline_outputs_ = 0;
  uint8_t inline_accounts_ = 0;
  bool spilled_ = false;
  union {
    AccountId inline_[kInlineIds] = {};
    uint32_t* heap_;
  };
};

static_assert(sizeof(Transaction) <= 32);

}  // namespace txallo::chain
