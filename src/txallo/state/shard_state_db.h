// One shard's account database with 2PC staging (txallo::state).
//
// Modeled on speedex's memory_database (user_account / revertable_asset):
// side effects are *staged* while a transaction prepares — the debit is
// checked against the spendable balance and reserved, nothing is applied —
// then applied on commit or dropped on abort. A cross-shard transaction
// that aborts after some shards voted PREPARED therefore reverts to the
// exact pre-transaction state, which the abort-path property tests pin
// byte-identically against a serial reference.
//
// Reservations and staged thunks live beside the committed records, never
// in them: Find() and the Merkle root always read committed state only.
//
// Fingerprint: a MerkleTrie whose leaves are SHA256 over (account id,
// balance, sequence). Mutations hash nothing; they only add the account to
// a deduplicated dirty set. RootHash() re-hashes the leaves of the dirty
// accounts (removing the ones no longer held), clears the set and returns
// the trie root, so its cost is O(accounts changed since the last root ·
// depth), however many commits touched them. The root is a pure function
// of the committed records: when it is read does not change it.
//
// Thread-safety: none. The engine drives every ShardStateDb from the
// driver thread between tick barriers (see engine.cc); tests may use it
// single-threaded.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/common/flat_map.h"
#include "txallo/common/sha256.h"
#include "txallo/state/account_state.h"
#include "txallo/state/merkle.h"

namespace txallo::state {

class ShardStateDb {
 public:
  // Flat open-addressing map with deterministic (insertion-order)
  // iteration — the record index is hot on every staged op.
  using Records = common::FlatMap<chain::AccountId, AccountState>;

  /// `initial_balance` funds accounts lazily created by their first staged
  /// op (StateConfig::initial_balance).
  explicit ShardStateDb(int64_t initial_balance);

  size_t num_accounts() const { return records_.size(); }
  bool Contains(chain::AccountId account) const {
    return records_.count(account) != 0;
  }
  /// Committed record, or nullptr when absent. Invalidated by any mutation.
  const AccountState* Find(chain::AccountId account) const;

  /// Inserts or overwrites a committed record (funding, migration insert).
  void Put(chain::AccountId account, AccountState record);

  /// Removes and returns the committed record (migration extract). Fails
  /// (nullopt, no change) when absent or when the account participates in
  /// any staged-but-undecided op — an account mid-2PC must not move
  /// shards. Credit-only participants count too: their commit thunk still
  /// targets this shard's record.
  std::optional<AccountState> Extract(chain::AccountId account);

  /// Stages one op of transaction `seq`: creates the record when missing
  /// (funded with the initial balance), checks the nonce, and reserves the
  /// debit against the spendable balance (balance minus prior
  /// reservations). Returns false — staging nothing for THIS op — when a
  /// check fails; ops already staged under `seq` stay put until
  /// CommitStaged/AbortStaged (the 2PC decision cleans up after a failed
  /// vote).
  bool StageOp(uint64_t seq, const Op& op);

  /// Applies everything staged under `seq` (balance += credit - debit;
  /// sequence bumps once per op with a debit) and releases the
  /// reservations. Returns the number of ops applied (0 when nothing was
  /// staged here).
  size_t CommitStaged(uint64_t seq);

  /// Drops everything staged under `seq`, releasing the reservations and
  /// leaving committed state untouched. Returns the number of ops dropped.
  size_t AbortStaged(uint64_t seq);

  bool HasStaged(uint64_t seq) const { return staged_.count(seq) != 0; }
  /// Transactions with staged-but-undecided ops (invariant: 0 between
  /// fully drained ticks).
  size_t pending_transactions() const { return staged_.size(); }

  /// Spendable balance: committed balance minus pending reservations
  /// (0 when the account is absent).
  int64_t AvailableBalance(chain::AccountId account) const;

  /// Merkle root over the committed records (all-zero when empty). Hashes
  /// the accounts changed since the previous call.
  const Sha256Digest& RootHash();

  /// Committed records sorted by account id (tests, serial references).
  std::vector<std::pair<chain::AccountId, AccountState>> SortedRecords()
      const;

  int64_t initial_balance() const { return initial_balance_; }

 private:
  // Queues `account`'s leaf for the next RootHash().
  void MarkDirty(chain::AccountId account);
  // Drops one staged-op pin (precondition: the account is pinned).
  void Unpin(chain::AccountId account);

  const int64_t initial_balance_;
  Records records_;
  common::FlatMap<chain::AccountId, int64_t> reserved_;
  common::FlatMap<uint64_t, std::vector<Op>> staged_;
  // How many staged ops target each account (reservations only cover
  // debits; this pins credit-only participants against Extract too).
  common::FlatMap<chain::AccountId, uint32_t> pinned_;
  // Leaves as of the last RootHash(), and the accounts whose committed
  // record was written or removed since (a set: at most one entry per
  // account the shard has held).
  MerkleTrie trie_;
  common::FlatMap<chain::AccountId, bool> dirty_;
};

}  // namespace txallo::state
