#include "txallo/workload/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "txallo/common/csv.h"

namespace txallo::workload {

namespace {

// Splits a ';'-joined address list. Empty segments (leading/trailing ';',
// ";;", or an empty field) are malformed — an empty address would intern as
// a real account and silently absorb traffic — so they fail Corruption
// instead of being dropped.
Result<std::vector<std::string>> SplitAddresses(const std::string& joined) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= joined.size()) {
    size_t end = joined.find(';', start);
    if (end == std::string::npos) end = joined.size();
    if (end == start) {
      return Status::Corruption("empty address segment in '" + joined + "'");
    }
    out.push_back(joined.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string JoinAddresses(const Dataset& dataset,
                          std::span<const chain::AccountId> ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(';');
    out += dataset.registry.AddressOf(ids[i]);
  }
  return out;
}

}  // namespace

Result<Dataset> LoadDatasetCsv(const std::string& path) {
  auto rows_result = ReadCsvFile(path);
  if (!rows_result.ok()) return rows_result.status();
  const auto& rows = rows_result.value();

  Dataset dataset;
  uint64_t current_block = UINT64_MAX;
  std::vector<chain::Transaction> block_txs;

  auto flush_block = [&]() -> Status {
    if (current_block == UINT64_MAX) return Status::OK();
    return dataset.ledger.Append(
        chain::Block(current_block, std::move(block_txs)));
  };

  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.size() < 3) {
      return Status::Corruption("row " + std::to_string(r) +
                                ": expected 3 columns, got " +
                                std::to_string(row.size()));
    }
    if (r == 0 && row[0] == "block_number") continue;  // Header.
    char* end = nullptr;
    const uint64_t block = std::strtoull(row[0].c_str(), &end, 10);
    if (end == row[0].c_str()) {
      return Status::Corruption("row " + std::to_string(r) +
                                ": bad block number '" + row[0] + "'");
    }
    if (block != current_block) {
      if (current_block != UINT64_MAX && block < current_block) {
        return Status::Corruption("row " + std::to_string(r) +
                                  ": block numbers must be non-decreasing");
      }
      TXALLO_RETURN_NOT_OK(flush_block());
      current_block = block;
      block_txs.clear();
    }
    // Duplicate addresses within one side are normalized away (first-seen
    // order kept): they carry no information the graph layer uses, and
    // deduping here makes the load -> save round trip stable.
    auto intern_side = [&](const std::string& joined, size_t row_index)
        -> Result<std::vector<chain::AccountId>> {
      Result<std::vector<std::string>> addrs = SplitAddresses(joined);
      if (!addrs.ok()) {
        return Status::Corruption("row " + std::to_string(row_index) + ": " +
                                  addrs.status().message());
      }
      std::vector<chain::AccountId> ids;
      ids.reserve(addrs->size());
      for (const std::string& addr : *addrs) {
        const chain::AccountId id = dataset.registry.Intern(addr);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      return ids;
    };
    Result<std::vector<chain::AccountId>> inputs = intern_side(row[1], r);
    if (!inputs.ok()) return inputs.status();
    Result<std::vector<chain::AccountId>> outputs = intern_side(row[2], r);
    if (!outputs.ok()) return outputs.status();
    if (inputs->empty() || outputs->empty()) {
      return Status::Corruption("row " + std::to_string(r) +
                                ": transactions need >=1 input and output");
    }
    block_txs.emplace_back(*inputs, *outputs);
  }
  TXALLO_RETURN_NOT_OK(flush_block());
  return dataset;
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  CsvWriter writer(path);
  if (!writer.ok()) return Status::IOError("cannot open for write: " + path);
  TXALLO_RETURN_NOT_OK(
      writer.WriteRow({"block_number", "inputs", "outputs"}));
  for (const chain::Block& block : dataset.ledger.blocks()) {
    for (const chain::Transaction& tx : block.transactions()) {
      TXALLO_RETURN_NOT_OK(writer.WriteRow(
          {std::to_string(block.number()), JoinAddresses(dataset, tx.inputs()),
           JoinAddresses(dataset, tx.outputs())}));
    }
  }
  return writer.Close();
}

std::pair<chain::Ledger, chain::Ledger> SplitLedger(
    const chain::Ledger& ledger, double prefix_fraction) {
  prefix_fraction = std::clamp(prefix_fraction, 0.0, 1.0);
  // Round half-up: truncation would turn e.g. 0.9 * 95 = 85.499...9 (the
  // product is not exactly representable) into an 85-block prefix and
  // silently move a block across the paper's 9:1 train/eval split.
  // llround is round-half-away-from-zero, which on a non-negative product
  // is exactly round-half-up, portably.
  size_t cut = static_cast<size_t>(std::llround(
      prefix_fraction * static_cast<double>(ledger.num_blocks())));
  cut = std::min<size_t>(cut, ledger.num_blocks());
  chain::Ledger prefix, suffix;
  const auto& blocks = ledger.blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    Status st = (i < cut ? prefix : suffix).Append(blocks[i]);
    if (!st.ok()) {
      // Appending in ledger order cannot produce a decreasing block
      // number; if it does, the input ledger violated its own invariant.
      std::fprintf(stderr, "SplitLedger: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return {std::move(prefix), std::move(suffix)};
}

}  // namespace txallo::workload
