#include "txallo/graph/builder.h"

#include "txallo/common/math.h"

namespace txallo::graph {

void GraphBuilder::AddTransaction(const chain::Transaction& tx) {
  const std::span<const chain::AccountId> accounts = tx.accounts();
  ++num_added_;
  if (accounts.empty()) return;
  if (accounts.size() == 1) {
    graph_->AddSelfLoop(accounts[0], 1.0);
    return;
  }
  const double share =
      1.0 / static_cast<double>(EdgeSplitCount(accounts.size()));
  for (size_t i = 0; i < accounts.size(); ++i) {
    for (size_t j = i + 1; j < accounts.size(); ++j) {
      graph_->AddEdge(accounts[i], accounts[j], share);
    }
  }
}

void GraphBuilder::AddBlock(const chain::Block& block) {
  for (const chain::Transaction& tx : block.transactions()) {
    AddTransaction(tx);
  }
}

void GraphBuilder::AddLedgerRange(const chain::Ledger& ledger,
                                  size_t first_block_index,
                                  size_t last_block_index) {
  const std::vector<chain::Block>& blocks = ledger.blocks();
  if (last_block_index > blocks.size()) last_block_index = blocks.size();
  for (size_t i = first_block_index; i < last_block_index; ++i) {
    AddBlock(blocks[i]);
  }
}

TransactionGraph BuildTransactionGraph(const chain::Ledger& ledger) {
  TransactionGraph graph;
  GraphBuilder builder(&graph);
  builder.AddLedgerRange(ledger, 0, ledger.num_blocks());
  builder.Finish();
  return graph;
}

}  // namespace txallo::graph
