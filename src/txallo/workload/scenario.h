// Composable scenario engine: deterministic per-seed block streams beyond
// the stationary Ethereum-like workload (ROADMAP item 1).
//
// A Scenario produces blocks under the same contract as
// EthereumLikeGenerator (block numbers increase from 0, all accounts
// pre-interned into its registry, bit-identical stream for a given spec),
// so anything that consumes a generated ledger — timeline_series, the
// open-loop pipeline, the gauntlet — runs any scenario unchanged.
//
// Composition model: every scenario is an Ethereum-like *background*
// (long-tail communities, hub, churn of the late-born kind) plus an
// ordered list of Overlay transformers. Each overlay claims a
// block-dependent share of the block's transactions and replaces them with
// its own pattern — a mint flash crowd, diurnal community rotation,
// attacker traffic concentrated on one shard's residents, sybil fan-out.
// Overlays share the background's registry and sampling model, so overlay
// traffic targets the same population the background produces, and the
// per-block transaction count never changes (scenarios stay comparable at
// equal offered load).
//
// Scenarios are selected by spec string ("name:key=val,...") through the
// registry in scenario_registry.h, mirroring the allocator registry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/rng.h"
#include "txallo/common/status.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::workload {

/// Deterministic block stream: the workload-side contract of every bench
/// and pipeline entry point.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Generates the next block (block numbers increase from 0).
  virtual chain::Block NextBlock() = 0;

  /// The registry holding every account the stream can touch (complete
  /// before the first block; "birth" only gates when an account first
  /// transacts).
  virtual const chain::AccountRegistry& registry() const = 0;

  /// Configured horizon in blocks (the stream keeps producing past it, but
  /// time-shaped overlays are designed against this length).
  virtual uint64_t num_blocks() const = 0;

  virtual uint64_t blocks_generated() const = 0;

  /// Funding level for the engine's account-state backend (copied into
  /// EngineConfig::state.initial_balance by benches, like
  /// EthereumLikeConfig::initial_balance).
  virtual int64_t initial_balance() const = 0;

  /// The spec string this scenario was built from — recorded into replay
  /// trace meta so a trace names its workload.
  const std::string& spec() const { return spec_; }

  /// Generates `n` consecutive blocks into a fresh ledger. Aborts loudly if
  /// Append fails (block numbers ascend by construction; a failure is a
  /// broken generator, not a recoverable input error).
  chain::Ledger GenerateLedger(uint64_t n);

 protected:
  explicit Scenario(std::string spec) : spec_(std::move(spec)) {}

 private:
  std::string spec_;
};

/// A stream transformer over the shared Ethereum-like background. Overlays
/// may intern extra synthetic accounts (a mint contract, a sybil pool) in
/// Prepare() and may draw background accounts through the generator's
/// public sampling hooks; both are part of the deterministic seed contract.
class Overlay {
 public:
  virtual ~Overlay() = default;

  /// Called once, before any block, after the background registered its
  /// accounts. A failure (the registry refusing more accounts) fails the
  /// scenario's construction.
  virtual Status Prepare(EthereumLikeGenerator* background) {
    (void)background;
    return Status::OK();
  }

  /// Fraction of block `block`'s transactions this overlay replaces, in
  /// [0, 1]. Shares of stacked overlays are consumed in order; their sum is
  /// effectively capped at 1.
  virtual double Share(uint64_t block) const = 0;

  /// Per-block state advance (called in overlay order, before any
  /// Generate() for that block).
  virtual void BeginBlock(uint64_t block, Rng* rng) {
    (void)block;
    (void)rng;
  }

  /// Produces one overlay transaction. `rng` is the scenario's overlay RNG
  /// (separate stream from the background's).
  virtual chain::Transaction Generate(uint64_t block, Rng* rng,
                                      EthereumLikeGenerator* background) = 0;
};

/// The composition engine: an Ethereum-like background plus ordered
/// overlays. With no overlays the stream is bit-identical to
/// EthereumLikeGenerator on the same config — the pure `ethereum` scenario
/// and the legacy bench path produce the same ledger.
class OverlayScenario : public Scenario {
 public:
  /// Builds the background and prepares the overlays in order; returns the
  /// first Prepare() failure.
  static Result<std::unique_ptr<OverlayScenario>> Make(
      std::string spec, const EthereumLikeConfig& background,
      std::vector<std::unique_ptr<Overlay>> overlays);

  chain::Block NextBlock() override;
  const chain::AccountRegistry& registry() const override {
    return background_.registry();
  }
  uint64_t num_blocks() const override {
    return background_.config().num_blocks;
  }
  uint64_t blocks_generated() const override {
    return background_.blocks_generated();
  }
  int64_t initial_balance() const override {
    return background_.config().initial_balance;
  }

  const EthereumLikeGenerator& background() const { return background_; }

 private:
  OverlayScenario(std::string spec, const EthereumLikeConfig& background,
                  std::vector<std::unique_ptr<Overlay>> overlays);

  EthereumLikeGenerator background_;
  std::vector<std::unique_ptr<Overlay>> overlays_;
  Rng overlay_rng_;
};

}  // namespace txallo::workload
