#include "txallo/chain/transaction.h"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

namespace txallo::chain {
namespace {

std::vector<AccountId> Ids(std::span<const AccountId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(TransactionTest, SimpleTwoParty) {
  Transaction tx = Transaction::Simple(3, 7);
  EXPECT_EQ(Ids(tx.inputs()), std::vector<AccountId>({3}));
  EXPECT_EQ(Ids(tx.outputs()), std::vector<AccountId>({7}));
  EXPECT_EQ(Ids(tx.accounts()), std::vector<AccountId>({3, 7}));
  EXPECT_EQ(tx.NumDistinctAccounts(), 2u);
  EXPECT_FALSE(tx.IsSelfLoop());
}

TEST(TransactionTest, AccountsAreSortedAndDeduped) {
  Transaction tx({9, 2}, {2, 5, 9});
  EXPECT_EQ(Ids(tx.accounts()), std::vector<AccountId>({2, 5, 9}));
  EXPECT_EQ(tx.NumDistinctAccounts(), 3u);
}

TEST(TransactionTest, SelfTransferIsSelfLoop) {
  Transaction tx({4}, {4});
  EXPECT_TRUE(tx.IsSelfLoop());
  EXPECT_EQ(tx.NumDistinctAccounts(), 1u);
}

TEST(TransactionTest, MultiInputMultiOutput) {
  Transaction tx({1, 2, 3}, {4, 5});
  EXPECT_EQ(tx.NumDistinctAccounts(), 5u);
  EXPECT_EQ(tx.inputs().size(), 3u);
  EXPECT_EQ(tx.outputs().size(), 2u);
}

TEST(TransactionTest, OverlappingInputOutputCountedOnce) {
  // The sender also receives change: A_Tx = A_in ∪ A_out.
  Transaction tx({1}, {1, 2});
  EXPECT_EQ(Ids(tx.accounts()), std::vector<AccountId>({1, 2}));
  EXPECT_FALSE(tx.IsSelfLoop());
}

TEST(TransactionTest, DefaultIsEmpty) {
  const Transaction tx;
  EXPECT_TRUE(tx.inputs().empty());
  EXPECT_TRUE(tx.outputs().empty());
  EXPECT_TRUE(tx.accounts().empty());
  EXPECT_EQ(tx.NumDistinctAccounts(), 0u);
}

TEST(TransactionTest, BuildsFromSpansOfAnyContiguousStorage) {
  const AccountId inputs[] = {8};
  const std::vector<AccountId> outputs = {6, 8, 1, 6};
  const Transaction tx(inputs, outputs);
  EXPECT_EQ(Ids(tx.inputs()), std::vector<AccountId>({8}));
  EXPECT_EQ(Ids(tx.outputs()), outputs);
  EXPECT_EQ(Ids(tx.accounts()), std::vector<AccountId>({1, 6, 8}));
}

// The ids a transaction reports, for comparing two of them.
struct Shape {
  std::vector<AccountId> inputs, outputs, accounts;
  bool operator==(const Shape&) const = default;
};

Shape ShapeOf(const Transaction& tx) {
  return {Ids(tx.inputs()), Ids(tx.outputs()), Ids(tx.accounts())};
}

// Inline: at most kInlineParties inputs and outputs together. Spilled: more.
std::vector<Transaction> Samples() {
  std::vector<Transaction> samples;
  samples.push_back(Transaction::Simple(3, 7));     // Inline.
  samples.push_back(Transaction({4}, {4}));         // Inline self-loop.
  samples.push_back(Transaction({5}, {9, 1}));      // Inline, full.
  samples.push_back(Transaction({9, 2}, {2, 5, 9}));  // Spilled.
  samples.push_back(Transaction({1}, {7, 6, 5, 4, 3, 2}));  // Spilled.
  return samples;
}

TEST(TransactionTest, InlineAndSpilledSurviveCopyAndMove) {
  for (const Transaction& original : Samples()) {
    const Shape expected = ShapeOf(original);
    const Transaction copy(original);
    EXPECT_EQ(ShapeOf(copy), expected);
    EXPECT_EQ(ShapeOf(original), expected);

    Transaction source(original);
    const Transaction moved(std::move(source));
    EXPECT_EQ(ShapeOf(moved), expected);
    EXPECT_TRUE(source.accounts().empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(TransactionTest, InlineAndSpilledSurviveAssignmentOverEachOther) {
  // Every sample assigned over every other, by copy and by move: the
  // overlay path replaces a block's transactions in place this way.
  const std::vector<Transaction> samples = Samples();
  for (const Transaction& from : samples) {
    for (const Transaction& to : samples) {
      Transaction copied(to);
      copied = from;
      EXPECT_EQ(ShapeOf(copied), ShapeOf(from));

      std::vector<Transaction> block = {to, to};
      Transaction source(from);
      block[1] = std::move(source);
      EXPECT_EQ(ShapeOf(block[1]), ShapeOf(from));
      EXPECT_EQ(ShapeOf(block[0]), ShapeOf(to));
      EXPECT_TRUE(source.inputs().empty());  // NOLINT(bugprone-use-after-move)
    }
  }
  Transaction self = samples.back();
  const Transaction& alias = self;
  self = alias;
  EXPECT_EQ(ShapeOf(self), ShapeOf(samples.back()));
}

TEST(TransactionTest, FitsInThirtyTwoBytes) {
  EXPECT_LE(sizeof(Transaction), 32u);
}

}  // namespace
}  // namespace txallo::chain
