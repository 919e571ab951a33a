// String-keyed factory for allocation strategies, so consumers (benches,
// examples, the engine pipeline, future services) pick methods by name:
//
//   allocator::AllocatorOptions options;
//   options.params = alloc::AllocationParams::ForExperiment(txs, k, eta);
//   options.registry = &registry;
//   auto metis = allocator::MakeAllocator("metis", options);
//   auto hybrid = allocator::MakeAllocatorFromSpec(
//       "txallo-hybrid:global-every=4", options);
//
// Specs use the uniform "name[:key=value,key=value...]" syntax of
// common/spec.h, where each strategy's options are declared once (type,
// default, bound, help): the usage text, the unknown-key check and the
// bound check all run from that declaration. Unknown names fail with
// NotFound; unknown option keys, malformed values and out-of-range values
// fail with InvalidArgument naming the offender — never silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "txallo/alloc/params.h"
#include "txallo/allocator/allocator.h"
#include "txallo/chain/account.h"
#include "txallo/common/spec.h"
#include "txallo/common/status.h"

namespace txallo::allocator {

/// Construction-time configuration shared by every strategy. `extra` holds
/// strategy-specific key=value options (see RegisteredNames() / README for
/// the per-strategy keys).
struct AllocatorOptions {
  /// θ the strategy streams under (k, η, λ, ε). One-shot Allocate() calls
  /// use the per-call context's params instead.
  alloc::AllocationParams params;
  /// Account metadata for deterministic hash ordering/routing. Required by
  /// the txallo-* strategies; optional elsewhere.
  const chain::AccountRegistry* registry = nullptr;
  /// Seed for randomized strategies (all built-ins are deterministic).
  uint64_t seed = 0;
  /// Strategy-specific options, e.g. {{"global-every", "4"}}.
  std::map<std::string, std::string> extra;
};

/// Every registered strategy name, sorted. Includes the broker decorator.
std::vector<std::string> RegisteredNames();

/// Self-description of every registered strategy, sorted by name: the
/// option declarations the factories read, bound-check and `--allocator=help`
/// prints.
std::vector<common::EntryDoc> DescribeAllocators();

/// Generated usage table over DescribeAllocators() — what
/// `--allocator=help` prints.
std::string AllocatorUsageText();

/// Instantiates the strategy registered under `name` with
/// `options` (options.extra carries the strategy-specific keys). Zero
/// shards (options.params.num_shards == 0) is InvalidArgument.
Result<std::unique_ptr<Allocator>> MakeAllocator(
    const std::string& name, const AllocatorOptions& options);

/// Convenience: parses `spec` and instantiates it. Keys from the spec
/// string override same-named keys already in options.extra.
Result<std::unique_ptr<Allocator>> MakeAllocatorFromSpec(
    const std::string& spec, AllocatorOptions options);

}  // namespace txallo::allocator
