// String-keyed factory for workload scenarios, built on the same registry
// scaffold as the allocator registry (common/spec.h): consumers pick
// scenarios by "name[:key=value,...]" spec; each option is declared once
// (type, default, bound, help), and the usage text, the unknown-key check
// and the bound check all run from that declaration. Unknown names fail
// with NotFound; unknown keys and malformed or out-of-range values fail
// with InvalidArgument naming the offender.
//
//   workload::ScenarioShape shape;
//   shape.num_blocks = 96;
//   auto scenario = workload::MakeScenarioFromSpec(
//       "spike:peak-share=0.7", shape);
//
// Every scenario accepts the common shape keys (blocks, txs-per-block,
// accounts, communities, balance, seed) on top of its specific ones; spec
// keys override the programmatic ScenarioShape.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "txallo/common/spec.h"
#include "txallo/common/status.h"
#include "txallo/workload/ethereum_like.h"
#include "txallo/workload/scenario.h"

namespace txallo::workload {

/// Shape knobs shared by every registered scenario: the size of the
/// experiment, not its pattern. Benches fill these from their flags; spec
/// keys (blocks=, txs-per-block=, accounts=, communities=, balance=, seed=)
/// override them.
struct ScenarioShape {
  uint64_t num_blocks = 64;
  uint64_t txs_per_block = 100;
  uint64_t num_accounts = 4'000;
  uint32_t num_communities = 40;
  int64_t initial_balance = 1'000'000;
  uint64_t seed = 42;

  /// The Ethereum-like background config this shape describes (all pattern
  /// knobs at their defaults).
  EthereumLikeConfig ToEthereumConfig() const;
};

/// Every registered scenario name, sorted.
std::vector<std::string> RegisteredScenarioNames();

/// Self-description of every registered scenario, sorted by name: the
/// option declarations the factories read, bound-check and
/// `--scenario=help` prints.
std::vector<common::EntryDoc> DescribeScenarios();

/// Declarations of the common shape keys every scenario accepts.
std::span<const common::OptionDoc> ScenarioShapeOptions();

/// Generated usage table over DescribeScenarios() — what `--scenario=help`
/// prints (includes the common shape keys).
std::string ScenarioUsageText();

/// Instantiates the scenario registered under `name`. `options` carries
/// both common shape keys and scenario-specific keys; every config is
/// validated (InvalidArgument on out-of-range values, unknown keys,
/// malformed numbers).
Result<std::unique_ptr<Scenario>> MakeScenario(
    const std::string& name, const ScenarioShape& shape,
    const std::map<std::string, std::string>& options);

/// Convenience: parses "name[:key=value,...]" and instantiates it. The
/// returned scenario's spec() is `spec` verbatim.
Result<std::unique_ptr<Scenario>> MakeScenarioFromSpec(
    const std::string& spec, const ScenarioShape& shape);

}  // namespace txallo::workload
