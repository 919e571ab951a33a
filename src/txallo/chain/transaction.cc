#include "txallo/chain/transaction.h"

#include <algorithm>

namespace txallo::chain {

Transaction::Transaction(std::span<const AccountId> inputs,
                         std::span<const AccountId> outputs) {
  const size_t parties = inputs.size() + outputs.size();
  AccountId* ids = inline_;
  if (parties > kInlineParties) {
    heap_ = new uint32_t[kSpillHeader + 2 * parties];
    spilled_ = true;
    ids = heap_ + kSpillHeader;
  }
  AccountId* accounts = std::copy(inputs.begin(), inputs.end(), ids);
  accounts = std::copy(outputs.begin(), outputs.end(), accounts);
  AccountId* accounts_end = std::copy(ids, accounts, accounts);
  std::sort(accounts, accounts_end);
  accounts_end = std::unique(accounts, accounts_end);
  const auto distinct = static_cast<uint32_t>(accounts_end - accounts);
  if (spilled_) {
    heap_[0] = static_cast<uint32_t>(inputs.size());
    heap_[1] = static_cast<uint32_t>(outputs.size());
    heap_[2] = distinct;
  } else {
    inline_inputs_ = static_cast<uint8_t>(inputs.size());
    inline_outputs_ = static_cast<uint8_t>(outputs.size());
    inline_accounts_ = static_cast<uint8_t>(distinct);
  }
}

Transaction::Transaction(const Transaction& other) { CopyFrom(other); }

Transaction::Transaction(Transaction&& other) noexcept { StealFrom(other); }

Transaction& Transaction::operator=(const Transaction& other) {
  if (this != &other) {
    Release();
    CopyFrom(other);
  }
  return *this;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    Release();
    StealFrom(other);
  }
  return *this;
}

void Transaction::CopyFrom(const Transaction& other) {
  inline_inputs_ = other.inline_inputs_;
  inline_outputs_ = other.inline_outputs_;
  inline_accounts_ = other.inline_accounts_;
  spilled_ = other.spilled_;
  if (!spilled_) {
    for (size_t i = 0; i < kInlineIds; ++i) inline_[i] = other.inline_[i];
    return;
  }
  const Layout l = other.layout();
  const size_t words =
      kSpillHeader + size_t{l.inputs} + l.outputs + l.accounts;
  heap_ = new uint32_t[words];
  std::copy(other.heap_, other.heap_ + words, heap_);
}

void Transaction::StealFrom(Transaction& other) {
  if (other.spilled_) {
    heap_ = other.heap_;
    spilled_ = true;
    other.spilled_ = false;
  } else {
    CopyFrom(other);
  }
  other.Release();  // Moved-from transactions are empty, as vectors were.
}

void Transaction::Release() {
  if (spilled_) delete[] heap_;
  spilled_ = false;
  inline_inputs_ = inline_outputs_ = inline_accounts_ = 0;
  for (size_t i = 0; i < kInlineIds; ++i) inline_[i] = 0;
}

}  // namespace txallo::chain
