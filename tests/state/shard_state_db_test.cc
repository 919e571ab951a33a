// ShardStateDb semantics: commit-thunk staging (reserve at prepare, apply
// at commit, drop at abort), lazy funded creation, nonce checks and the
// migration extract/insert contract.
#include <gtest/gtest.h>

#include <optional>

#include "txallo/state/shard_state_db.h"

namespace txallo::state {
namespace {

constexpr int64_t kFunding = 100;

Op Debit(chain::AccountId account, int64_t amount,
         uint64_t nonce = kAnySequence) {
  Op op;
  op.account = account;
  op.debit = amount;
  op.require_sequence = nonce;
  return op;
}

Op Credit(chain::AccountId account, int64_t amount) {
  Op op;
  op.account = account;
  op.credit = amount;
  return op;
}

TEST(ShardStateDbTest, LazyCreationFundsAtFirstTouch) {
  ShardStateDb db(kFunding);
  EXPECT_FALSE(db.Contains(7));
  ASSERT_TRUE(db.StageOp(/*seq=*/1, Debit(7, 30)));
  // Creation is a committed-state change even before the 2PC decision —
  // the record exists at the initial balance; only the debit is pending.
  ASSERT_TRUE(db.Contains(7));
  EXPECT_EQ(db.Find(7)->balance, kFunding);
  EXPECT_EQ(db.AvailableBalance(7), kFunding - 30);
  EXPECT_EQ(db.CommitStaged(1), 1u);
  EXPECT_EQ(db.Find(7)->balance, kFunding - 30);
  EXPECT_EQ(db.Find(7)->sequence, 1u);
}

TEST(ShardStateDbTest, CommitAppliesCreditMinusDebitAndBumpsNonce) {
  ShardStateDb db(kFunding);
  Op both = Debit(3, 10);
  both.credit = 4;
  ASSERT_TRUE(db.StageOp(5, both));
  ASSERT_TRUE(db.StageOp(5, Credit(4, 6)));
  EXPECT_EQ(db.CommitStaged(5), 2u);
  EXPECT_EQ(db.Find(3)->balance, kFunding - 10 + 4);
  EXPECT_EQ(db.Find(3)->sequence, 1u);  // Debited: nonce bumps.
  EXPECT_EQ(db.Find(4)->balance, kFunding + 6);
  EXPECT_EQ(db.Find(4)->sequence, 0u);  // Credit-only: nonce untouched.
}

TEST(ShardStateDbTest, AbortRevertsToTheExactPreStagingState) {
  ShardStateDb db(kFunding);
  ASSERT_TRUE(db.StageOp(1, Debit(1, 40)));
  ASSERT_TRUE(db.CommitStaged(1) == 1u);
  const AccountState committed = *db.Find(1);
  const Sha256Digest root = db.RootHash();

  ASSERT_TRUE(db.StageOp(2, Debit(1, 50)));
  ASSERT_TRUE(db.StageOp(2, Credit(1, 10)));
  EXPECT_EQ(db.AvailableBalance(1), kFunding - 40 - 50);
  EXPECT_EQ(db.AbortStaged(2), 2u);
  EXPECT_EQ(*db.Find(1), committed);
  EXPECT_EQ(db.AvailableBalance(1), committed.balance);
  EXPECT_EQ(db.RootHash(), root);
  EXPECT_EQ(db.pending_transactions(), 0u);
}

TEST(ShardStateDbTest, ReservationsGuardAgainstDoubleSpend) {
  ShardStateDb db(kFunding);
  // Two in-flight transactions each within the committed balance, but not
  // jointly: the second must fail at prepare, not at commit.
  ASSERT_TRUE(db.StageOp(1, Debit(9, 70)));
  // The reservation is pending, not committed: Find reads the funded
  // balance.
  EXPECT_EQ(db.Find(9)->balance, kFunding);
  EXPECT_FALSE(db.StageOp(2, Debit(9, 70)));
  // The failed op staged nothing; aborting seq 2 is a no-op.
  EXPECT_EQ(db.AbortStaged(2), 0u);
  EXPECT_EQ(db.CommitStaged(1), 1u);
  EXPECT_EQ(db.Find(9)->balance, kFunding - 70);
  // With seq 1 released, a 30-unit debit fits again.
  EXPECT_TRUE(db.StageOp(3, Debit(9, 30)));
  EXPECT_EQ(db.AbortStaged(3), 1u);
}

TEST(ShardStateDbTest, NonceCheckFailsDeterministically) {
  ShardStateDb db(kFunding);
  ASSERT_TRUE(db.StageOp(1, Debit(2, 5, /*nonce=*/0)));
  db.CommitStaged(1);
  EXPECT_EQ(db.Find(2)->sequence, 1u);
  EXPECT_FALSE(db.StageOp(2, Debit(2, 5, /*nonce=*/0)));  // Stale nonce.
  EXPECT_TRUE(db.StageOp(3, Debit(2, 5, /*nonce=*/1)));
  db.AbortStaged(3);
}

TEST(ShardStateDbTest, ExtractRefusesReservedRecordsAndRoundTrips) {
  ShardStateDb db(kFunding);
  ASSERT_TRUE(db.StageOp(1, Debit(11, 10)));
  // Mid-2PC: the record must not migrate.
  EXPECT_EQ(db.Extract(11), std::nullopt);
  db.CommitStaged(1);

  // A credit-only participant is pinned too: it carries no reservation,
  // but its commit thunk still targets this shard's record — extracting
  // it would let the commit resurrect a duplicate here.
  ASSERT_TRUE(db.StageOp(2, Credit(11, 5)));
  EXPECT_EQ(db.Extract(11), std::nullopt);
  db.AbortStaged(2);

  const Sha256Digest with_record = db.RootHash();
  std::optional<AccountState> record = db.Extract(11);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->balance, kFunding - 10);
  EXPECT_FALSE(db.Contains(11));
  EXPECT_NE(db.RootHash(), with_record);
  // Re-inserting the extracted record restores the exact fingerprint: a
  // migration out-and-back is invisible to the Merkle root.
  db.Put(11, *record);
  EXPECT_EQ(db.RootHash(), with_record);
  // Absent key: nullopt.
  EXPECT_EQ(db.Extract(999), std::nullopt);
}

TEST(ShardStateDbTest, SortedRecordsAreSortedByAccountId) {
  ShardStateDb db(kFunding);
  for (chain::AccountId a : {40u, 2u, 17u, 9u}) {
    ASSERT_TRUE(db.StageOp(a, Credit(a, 1)));
    db.CommitStaged(a);
  }
  const auto sorted = db.SortedRecords();
  ASSERT_EQ(sorted.size(), 4u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(sorted[i - 1].first, sorted[i].first);
  }
}

}  // namespace
}  // namespace txallo::state
