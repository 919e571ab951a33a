#include "txallo/state/shard_state_db.h"

#include <algorithm>

namespace txallo::state {

namespace {

void HashLe(Sha256* hasher, uint64_t v, int bytes) {
  uint8_t buf[8];
  for (int i = 0; i < bytes; ++i) {
    buf[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
  hasher->Update(buf, static_cast<size_t>(bytes));
}

Sha256Digest LeafDigest(chain::AccountId account, const AccountState& record) {
  Sha256 hasher;
  HashLe(&hasher, account, 4);
  HashLe(&hasher, static_cast<uint64_t>(record.balance), 8);
  HashLe(&hasher, record.sequence, 8);
  return hasher.Finish();
}

}  // namespace

ShardStateDb::ShardStateDb(int64_t initial_balance)
    : initial_balance_(initial_balance) {}

const AccountState* ShardStateDb::Find(chain::AccountId account) const {
  auto it = records_.find(account);
  return it == records_.end() ? nullptr : &it->second;
}

void ShardStateDb::MarkDirty(chain::AccountId account) {
  dirty_.emplace(account, true);
}

void ShardStateDb::Put(chain::AccountId account, AccountState record) {
  records_[account] = record;
  MarkDirty(account);
}

std::optional<AccountState> ShardStateDb::Extract(chain::AccountId account) {
  // Any staged op pins the record here until its 2PC round decides —
  // including credit-only ops, whose commit thunk carries no reservation
  // but still applies against THIS shard's record.
  if (pinned_.count(account) != 0) return std::nullopt;
  auto it = records_.find(account);
  if (it == records_.end()) return std::nullopt;
  const AccountState record = it->second;
  records_.erase(it);
  MarkDirty(account);
  return record;
}

int64_t ShardStateDb::AvailableBalance(chain::AccountId account) const {
  const AccountState* record = Find(account);
  if (record == nullptr) return 0;
  auto it = reserved_.find(account);
  const int64_t reserved = it == reserved_.end() ? 0 : it->second;
  return record->balance - reserved;
}

bool ShardStateDb::StageOp(uint64_t seq, const Op& op) {
  const AccountState* record = Find(op.account);
  if (record == nullptr) {
    // Lazy creation is a committed-state change: the account now exists,
    // funded, whatever the transaction's fate.
    Put(op.account, AccountState{initial_balance_, 0});
    record = Find(op.account);
  }
  if (op.require_sequence != kAnySequence &&
      record->sequence != op.require_sequence) {
    return false;  // Bad nonce.
  }
  if (op.debit > 0) {
    int64_t& reserved = reserved_[op.account];
    if (record->balance - reserved < op.debit) {
      return false;  // Insufficient spendable balance.
    }
    reserved += op.debit;
  }
  staged_[seq].push_back(op);
  ++pinned_[op.account];
  return true;
}

void ShardStateDb::Unpin(chain::AccountId account) {
  auto it = pinned_.find(account);
  if (--it->second == 0) pinned_.erase(it);
}

size_t ShardStateDb::CommitStaged(uint64_t seq) {
  auto it = staged_.find(seq);
  if (it == staged_.end()) return 0;
  const std::vector<Op> ops = std::move(it->second);
  staged_.erase(it);
  for (const Op& op : ops) {
    AccountState& record = records_[op.account];
    record.balance += op.credit - op.debit;
    if (op.debit > 0) {
      ++record.sequence;
      auto reserved = reserved_.find(op.account);
      reserved->second -= op.debit;
      if (reserved->second == 0) reserved_.erase(reserved);
    }
    MarkDirty(op.account);
    Unpin(op.account);
  }
  return ops.size();
}

size_t ShardStateDb::AbortStaged(uint64_t seq) {
  auto it = staged_.find(seq);
  if (it == staged_.end()) return 0;
  const std::vector<Op> ops = std::move(it->second);
  staged_.erase(it);
  for (const Op& op : ops) {
    if (op.debit > 0) {
      auto reserved = reserved_.find(op.account);
      reserved->second -= op.debit;
      if (reserved->second == 0) reserved_.erase(reserved);
    }
    Unpin(op.account);
  }
  return ops.size();
}

const Sha256Digest& ShardStateDb::RootHash() {
  for (const auto& [account, unused] : dirty_) {
    const AccountState* record = Find(account);
    if (record != nullptr) {
      trie_.Update(account, LeafDigest(account, *record));
    } else {
      trie_.Remove(account);
    }
  }
  dirty_.clear();
  return trie_.Root();
}

std::vector<std::pair<chain::AccountId, AccountState>>
ShardStateDb::SortedRecords() const {
  std::vector<std::pair<chain::AccountId, AccountState>> out;
  out.reserve(records_.size());
  // FlatMap iterates in insertion order (deterministic); sorted by account
  // id immediately below.
  for (const auto& [account, record] : records_) {
    out.emplace_back(account, record);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace txallo::state
