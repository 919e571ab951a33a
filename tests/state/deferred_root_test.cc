// ShardStateDb hashes its Merkle leaves when a root is read, not when a
// record changes. These tests pin that the deferred root is exactly the
// root an eagerly maintained trie would report: a test-local MerkleTrie
// updated after every mutation (the leaf is SHA256 over the account id,
// balance and sequence, little-endian), and a fresh database rebuilt from
// SortedRecords(). Seeded random sequences of Put / StageOp / CommitStaged
// / AbortStaged / Extract read roots at random points on one database and
// only once at the end on a twin.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "txallo/common/rng.h"
#include "txallo/common/sha256.h"
#include "txallo/state/merkle.h"
#include "txallo/state/shard_state_db.h"

namespace txallo::state {
namespace {

constexpr int64_t kFunding = 50;

Sha256Digest EagerLeaf(chain::AccountId account, const AccountState& record) {
  uint8_t bytes[20];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<uint8_t>(account >> 8 * i);
  const auto balance = static_cast<uint64_t>(record.balance);
  for (int i = 0; i < 8; ++i) {
    bytes[4 + i] = static_cast<uint8_t>(balance >> 8 * i);
    bytes[12 + i] = static_cast<uint8_t>(record.sequence >> 8 * i);
  }
  Sha256 hasher;
  hasher.Update(bytes, sizeof(bytes));
  return hasher.Finish();
}

// The pre-deferral fingerprint: one trie update per committed-state change.
class EagerMirror {
 public:
  void Sync(const ShardStateDb& db, chain::AccountId account) {
    const AccountState* record = db.Find(account);
    if (record != nullptr) {
      trie_.Update(account, EagerLeaf(account, *record));
    } else {
      trie_.Remove(account);
    }
  }
  const Sha256Digest& Root() { return trie_.Root(); }

 private:
  MerkleTrie trie_;
};

Sha256Digest RebuiltRoot(const ShardStateDb& db) {
  ShardStateDb fresh(db.initial_balance());
  for (const auto& [account, record] : db.SortedRecords()) {
    fresh.Put(account, record);
  }
  return fresh.RootHash();
}

Op Debit(chain::AccountId account, int64_t amount,
         uint64_t nonce = kAnySequence) {
  Op op;
  op.account = account;
  op.debit = amount;
  op.require_sequence = nonce;
  return op;
}

TEST(DeferredRootTest, ExtractThenPutBackBeforeARoot) {
  ShardStateDb db(kFunding);
  EagerMirror eager;
  db.Put(3, AccountState{10, 1});
  db.Put(4, AccountState{20, 2});
  eager.Sync(db, 3);
  eager.Sync(db, 4);
  const Sha256Digest before = db.RootHash();
  ASSERT_EQ(before, eager.Root());

  // Out and back unchanged, no root in between: the same fingerprint.
  std::optional<AccountState> record = db.Extract(3);
  ASSERT_TRUE(record.has_value());
  db.Put(3, *record);
  EXPECT_EQ(db.RootHash(), before);

  // Out and back with a different record: the new leaf, not the old one.
  record = db.Extract(4);
  ASSERT_TRUE(record.has_value());
  db.Put(4, AccountState{21, 2});
  eager.Sync(db, 4);
  EXPECT_NE(db.RootHash(), before);
  EXPECT_EQ(db.RootHash(), eager.Root());
  EXPECT_EQ(db.RootHash(), RebuiltRoot(db));
}

TEST(DeferredRootTest, LazyCreationSurvivesAnAbortedTransaction) {
  ShardStateDb db(kFunding);
  EagerMirror eager;
  // Creation is committed state even though the transaction aborts, and
  // even when the op itself fails its nonce check.
  ASSERT_TRUE(db.StageOp(1, Debit(7, 5)));
  EXPECT_FALSE(db.StageOp(1, Debit(8, 5, /*nonce=*/3)));
  EXPECT_EQ(db.AbortStaged(1), 1u);
  eager.Sync(db, 7);
  eager.Sync(db, 8);
  ASSERT_TRUE(db.Contains(7));
  ASSERT_TRUE(db.Contains(8));
  EXPECT_NE(db.RootHash(), Sha256Digest{});
  EXPECT_EQ(db.RootHash(), eager.Root());
  EXPECT_EQ(db.RootHash(), RebuiltRoot(db));
}

TEST(DeferredRootTest, RemovingTheLastAccountGivesTheEmptyRoot) {
  ShardStateDb db(kFunding);
  db.Put(0xFFFFFFF0u, AccountState{1, 0});
  EXPECT_NE(db.RootHash(), Sha256Digest{});
  ASSERT_TRUE(db.Extract(0xFFFFFFF0u).has_value());
  EXPECT_EQ(db.RootHash(), Sha256Digest{});

  // Created and removed between two reads: never reaches the trie.
  db.Put(9, AccountState{1, 0});
  ASSERT_TRUE(db.Extract(9).has_value());
  EXPECT_EQ(db.RootHash(), Sha256Digest{});
}

// One random step applied identically to both databases; `eager` follows
// `db` after every change of committed state.
class RandomDriver {
 public:
  explicit RandomDriver(uint64_t seed) : rng_(seed) {}

  chain::AccountId Account() {
    // Dense low ids plus a few near the top of the key space, so trie
    // paths share prefixes and also diverge at the first nibble.
    const auto index = static_cast<chain::AccountId>(rng_.NextBounded(24));
    return index < 20 ? index : 0xFFFFFF00u + index;
  }

  void Step(ShardStateDb* db, ShardStateDb* twin, EagerMirror* eager) {
    const uint64_t kind = rng_.NextBounded(100);
    if (kind < 10) {
      const chain::AccountId a = Account();
      const AccountState record{static_cast<int64_t>(rng_.NextBounded(100)),
                                rng_.NextBounded(4)};
      db->Put(a, record);
      twin->Put(a, record);
      eager->Sync(*db, a);
    } else if (kind < 45) {
      const uint64_t seq = next_seq_++;
      std::vector<chain::AccountId>& accounts = pending_.emplace_back();
      const uint64_t ops = 1 + rng_.NextBounded(3);
      for (uint64_t i = 0; i < ops; ++i) {
        Op op;
        op.account = Account();
        op.debit = static_cast<int64_t>(rng_.NextBounded(30));
        op.credit = static_cast<int64_t>(rng_.NextBounded(30));
        if (rng_.NextBernoulli(0.2)) op.require_sequence = rng_.NextBounded(3);
        const bool staged = db->StageOp(seq, op);
        EXPECT_EQ(twin->StageOp(seq, op), staged);
        eager->Sync(*db, op.account);
        accounts.push_back(op.account);
      }
      seqs_.push_back(seq);
    } else if (kind < 80) {
      if (seqs_.empty()) return;
      const size_t pick = rng_.NextBounded(seqs_.size());
      const uint64_t seq = seqs_[pick];
      if (kind < 65) {
        EXPECT_EQ(twin->CommitStaged(seq), db->CommitStaged(seq));
      } else {
        EXPECT_EQ(twin->AbortStaged(seq), db->AbortStaged(seq));
      }
      for (chain::AccountId a : pending_[pick]) eager->Sync(*db, a);
      seqs_.erase(seqs_.begin() + static_cast<std::ptrdiff_t>(pick));
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const chain::AccountId a = Account();
      const std::optional<AccountState> out = db->Extract(a);
      EXPECT_EQ(twin->Extract(a), out);
      eager->Sync(*db, a);
    }
  }

  bool NextBernoulli(double p) { return rng_.NextBernoulli(p); }

 private:
  Rng rng_;
  uint64_t next_seq_ = 1;
  std::vector<uint64_t> seqs_;
  std::vector<std::vector<chain::AccountId>> pending_;
};

TEST(DeferredRootTest, RandomSequencesMatchTheEagerRoot) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    RandomDriver driver(seed);
    ShardStateDb sampled(kFunding);  // Roots read at random points.
    ShardStateDb final_only(kFunding);  // One root, at the end.
    EagerMirror eager;
    size_t reads = 0;
    for (int step = 0; step < 400; ++step) {
      driver.Step(&sampled, &final_only, &eager);
      if (driver.NextBernoulli(0.05)) {
        ++reads;
        ASSERT_EQ(sampled.RootHash(), eager.Root()) << "step " << step;
        // A second read with nothing changed in between is stable.
        ASSERT_EQ(sampled.RootHash(), eager.Root()) << "step " << step;
      }
    }
    EXPECT_GT(reads, 0u);
    ASSERT_EQ(final_only.SortedRecords(), sampled.SortedRecords());
    EXPECT_EQ(sampled.RootHash(), eager.Root());
    EXPECT_EQ(final_only.RootHash(), eager.Root());
    EXPECT_EQ(final_only.RootHash(), RebuiltRoot(final_only));
  }
}

}  // namespace
}  // namespace txallo::state
