#include "txallo/workload/scenario_registry.h"

#include <algorithm>
#include <utility>

#include "txallo/common/spec.h"
#include "txallo/workload/scenario_overlays.h"

namespace txallo::workload {

namespace {

using common::kAnyValue;
using common::kAtLeastOne;
using common::kFraction;
using common::kNonNegative;
using common::OptionDoc;
using common::OptionMap;
using common::OptionReader;

// Shape keys every scenario accepts on top of its own; the defaults are
// ScenarioShape's.
constexpr OptionDoc kShapeOptions[] = {
    {"blocks", "uint", "64", kAnyValue, "blocks in the stream"},
    {"txs-per-block", "uint", "100", kAnyValue, "transactions per block"},
    {"accounts", "uint", "4000", kAnyValue, "background accounts"},
    {"communities", "uint", "40", kAnyValue, "background account communities"},
    {"balance", "int", "1000000", kAnyValue, "initial account balance"},
    {"seed", "uint", "42", kAnyValue, "stream seed"},
};

Status ReadShape(const OptionReader& read, ScenarioShape* shape) {
  TXALLO_RETURN_NOT_OK(read.Read("blocks", &shape->num_blocks));
  TXALLO_RETURN_NOT_OK(read.Read("txs-per-block", &shape->txs_per_block));
  TXALLO_RETURN_NOT_OK(read.Read("accounts", &shape->num_accounts));
  TXALLO_RETURN_NOT_OK(read.Read("communities", &shape->num_communities));
  TXALLO_RETURN_NOT_OK(read.Read("balance", &shape->initial_balance));
  return read.Read("seed", &shape->seed);
}

// `shape` already carries the spec's shape keys; `read` reads the
// scenario's own keys against the entry's declarations.
using Factory = Result<std::unique_ptr<Scenario>> (*)(
    const std::string& spec, const ScenarioShape& shape,
    const OptionReader& read);

Result<std::unique_ptr<Scenario>> FinishScenario(
    const std::string& spec, EthereumLikeConfig config,
    std::vector<std::unique_ptr<Overlay>> overlays) {
  TXALLO_RETURN_NOT_OK(config.Validate());
  return std::unique_ptr<Scenario>(
      new OverlayScenario(spec, config, std::move(overlays)));
}

// The shape's background with one overlay on top.
Result<std::unique_ptr<Scenario>> WithOverlay(
    const std::string& spec, const ScenarioShape& shape,
    std::unique_ptr<Overlay> overlay) {
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::move(overlay));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Result<std::unique_ptr<Scenario>> MakeEthereum(const std::string& spec,
                                               const ScenarioShape& shape,
                                               const OptionReader& read) {
  EthereumLikeConfig config = shape.ToEthereumConfig();
  TXALLO_RETURN_NOT_OK(read.Read("intra", &config.p_intra_community));
  TXALLO_RETURN_NOT_OK(read.Read("hub-share", &config.hub_share));
  TXALLO_RETURN_NOT_OK(read.Read("self-loop", &config.self_loop_rate));
  TXALLO_RETURN_NOT_OK(read.Read("multi-party", &config.multi_party_rate));
  TXALLO_RETURN_NOT_OK(read.Read("late-born", &config.late_born_fraction));
  TXALLO_RETURN_NOT_OK(
      read.Read("drift-interval", &config.drift_interval_blocks));
  TXALLO_RETURN_NOT_OK(read.Read("drift-fraction", &config.drift_fraction));
  TXALLO_RETURN_NOT_OK(
      read.Read("drift-share", &config.drift_partner_share));
  return FinishScenario(spec, config, {});
}

// The flash-crowd envelope the derived spike defaults describe.
HotSpikeParams DefaultSpike(uint64_t num_blocks) {
  HotSpikeParams params;
  params.start = num_blocks / 4;
  params.ramp = std::max<uint64_t>(1, num_blocks / 8);
  params.hold = std::max<uint64_t>(1, num_blocks / 4);
  params.decay = std::max<uint64_t>(1, num_blocks / 8);
  return params;
}

Result<std::unique_ptr<Scenario>> MakeSpike(const std::string& spec,
                                            const ScenarioShape& shape,
                                            const OptionReader& read) {
  HotSpikeParams params = DefaultSpike(shape.num_blocks);
  TXALLO_RETURN_NOT_OK(read.Read("start", &params.start));
  TXALLO_RETURN_NOT_OK(read.Read("ramp", &params.ramp));
  TXALLO_RETURN_NOT_OK(read.Read("hold", &params.hold));
  TXALLO_RETURN_NOT_OK(read.Read("decay", &params.decay));
  TXALLO_RETURN_NOT_OK(read.Read("peak-share", &params.peak_share));
  return WithOverlay(spec, shape, std::make_unique<HotSpikeOverlay>(params));
}

Result<std::unique_ptr<Scenario>> MakeDiurnal(const std::string& spec,
                                              const ScenarioShape& shape,
                                              const OptionReader& read) {
  DiurnalParams params;
  TXALLO_RETURN_NOT_OK(read.Read("period", &params.period));
  TXALLO_RETURN_NOT_OK(read.Read("share", &params.share));
  TXALLO_RETURN_NOT_OK(read.Read("width", &params.width));
  return WithOverlay(spec, shape, std::make_unique<DiurnalOverlay>(params));
}

Result<std::unique_ptr<Scenario>> MakeChurn(const std::string& spec,
                                            const ScenarioShape& shape,
                                            const OptionReader& read) {
  ChurnParams params;
  params.horizon_blocks = shape.num_blocks;
  params.pool = std::max<uint64_t>(1, shape.num_accounts / 16);
  params.lifetime = std::max<uint64_t>(1, shape.num_blocks / 4);
  TXALLO_RETURN_NOT_OK(read.Read("pool", &params.pool));
  TXALLO_RETURN_NOT_OK(read.Read("lifetime", &params.lifetime));
  TXALLO_RETURN_NOT_OK(read.Read("share", &params.share));
  TXALLO_RETURN_NOT_OK(read.Read("intra", &params.intra));
  return WithOverlay(spec, shape, std::make_unique<ChurnOverlay>(params));
}

Result<std::unique_ptr<Scenario>> MakeMultiAsset(const std::string& spec,
                                                 const ScenarioShape& shape,
                                                 const OptionReader& read) {
  MultiAssetParams params;
  TXALLO_RETURN_NOT_OK(read.Read("assets", &params.assets));
  TXALLO_RETURN_NOT_OK(read.Read("share", &params.share));
  TXALLO_RETURN_NOT_OK(read.Read("asset-skew", &params.asset_skew));
  return WithOverlay(spec, shape, std::make_unique<MultiAssetOverlay>(params));
}

Status TargetBelowShards(const ShardAttackParams& params) {
  if (params.target >= params.shards) {
    return Status::InvalidArgument(
        "scenario option 'target' must be < shards");
  }
  return Status::OK();
}

Result<std::unique_ptr<Scenario>> MakeShardAttack(const std::string& spec,
                                                  const ScenarioShape& shape,
                                                  const OptionReader& read) {
  ShardAttackParams params;
  TXALLO_RETURN_NOT_OK(read.Read("shards", &params.shards));
  TXALLO_RETURN_NOT_OK(read.Read("target", &params.target));
  TXALLO_RETURN_NOT_OK(read.Read("attackers", &params.attackers));
  TXALLO_RETURN_NOT_OK(read.Read("share", &params.share));
  TXALLO_RETURN_NOT_OK(read.Read("victim-skew", &params.victim_skew));
  TXALLO_RETURN_NOT_OK(TargetBelowShards(params));
  return WithOverlay(spec, shape, std::make_unique<ShardAttackOverlay>(params));
}

Result<std::unique_ptr<Scenario>> MakeSybil(const std::string& spec,
                                            const ScenarioShape& shape,
                                            const OptionReader& read) {
  SybilParams params;
  params.horizon_blocks = shape.num_blocks;
  TXALLO_RETURN_NOT_OK(read.Read("sybils", &params.sybils));
  TXALLO_RETURN_NOT_OK(read.Read("fanout", &params.fanout));
  TXALLO_RETURN_NOT_OK(read.Read("share", &params.share));
  return WithOverlay(spec, shape, std::make_unique<SybilOverlay>(params));
}

// The combinator showcase: spike + shard-attack + sybil stacked on one
// background, each with a reduced share. Demonstrates that overlays
// compose; the per-overlay scenarios stay the primitives.
Result<std::unique_ptr<Scenario>> MakeStress(const std::string& spec,
                                             const ScenarioShape& shape,
                                             const OptionReader& read) {
  HotSpikeParams spike = DefaultSpike(shape.num_blocks);
  spike.peak_share = 0.25;
  TXALLO_RETURN_NOT_OK(read.Read("spike-share", &spike.peak_share));

  ShardAttackParams attack;
  attack.share = 0.2;
  TXALLO_RETURN_NOT_OK(read.Read("shards", &attack.shards));
  TXALLO_RETURN_NOT_OK(read.Read("target", &attack.target));
  TXALLO_RETURN_NOT_OK(read.Read("attack-share", &attack.share));
  TXALLO_RETURN_NOT_OK(TargetBelowShards(attack));

  SybilParams sybil;
  sybil.horizon_blocks = shape.num_blocks;
  sybil.share = 0.1;
  TXALLO_RETURN_NOT_OK(read.Read("sybil-share", &sybil.share));

  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<ShardAttackOverlay>(attack));
  overlays.push_back(std::make_unique<SybilOverlay>(sybil));
  overlays.push_back(std::make_unique<HotSpikeOverlay>(spike));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

constexpr OptionDoc kEthereumOptions[] = {
    {"intra", "double", "0.92", kFraction,
     "probability a counterparty comes from the sender's community"},
    {"hub-share", "double", "0.11", kFraction,
     "fraction of transactions involving the hub account"},
    {"self-loop", "double", "0.002", kFraction, "self-transfer probability"},
    {"multi-party", "double", "0.05", kFraction,
     "probability a transaction touches more than two accounts"},
    {"late-born", "double", "0.3", kFraction,
     "fraction of each community born only as the ledger progresses"},
    {"drift-interval", "uint", "0", kNonNegative,
     "re-point communities at new partners every N blocks (0 = off)"},
    {"drift-fraction", "double", "0.1", kFraction,
     "fraction of communities rewired per drift event"},
    {"drift-share", "double", "0.5", kFraction,
     "share of a drifted community's intra traffic routed to its partner"},
};
constexpr OptionDoc kSpikeOptions[] = {
    {"start", "uint", "blocks/4", kNonNegative, "first block of the ramp"},
    {"ramp", "uint", "blocks/8", kAtLeastOne, "blocks to reach peak share"},
    {"hold", "uint", "blocks/4", kNonNegative, "blocks at peak share"},
    {"decay", "uint", "blocks/8", kAtLeastOne, "blocks back down to zero"},
    {"peak-share", "double", "0.6", kFraction,
     "traffic share of the mint contract at the peak"},
};
constexpr OptionDoc kDiurnalOptions[] = {
    {"period", "uint", "24", kAtLeastOne, "blocks per full community rotation"},
    {"share", "double", "0.5", kFraction,
     "fraction of traffic that follows the rotating awake window"},
    {"width", "uint", "4", kAtLeastOne, "communities awake at once"},
};
constexpr OptionDoc kChurnOptions[] = {
    {"pool", "uint", "accounts/16", kAtLeastOne,
     "short-lived account pool size"},
    {"lifetime", "uint", "blocks/4", kAtLeastOne,
     "blocks from an account's birth to its death"},
    {"share", "double", "0.3", kFraction, "fraction of traffic that churns"},
    {"intra", "double", "0.5", kFraction,
     "probability a churn counterparty is another live churn account"},
};
constexpr OptionDoc kMultiAssetOptions[] = {
    {"assets", "uint", "8", kAtLeastOne, "distinct asset contract accounts"},
    {"share", "double", "0.4", kFraction,
     "fraction of transfers carrying an asset output"},
    {"asset-skew", "double", "1.0", kNonNegative,
     "Zipf skew of asset popularity around each community's own asset"},
};
constexpr OptionDoc kShardAttackOptions[] = {
    {"shards", "uint", "8", kAtLeastOne,
     "shard count the attack is tuned against (match the engine's k)"},
    {"target", "uint", "0", {"< shards"},
     "victim shard under hash routing"},
    {"attackers", "uint", "64", kAtLeastOne, "fresh attacker accounts"},
    {"share", "double", "0.4", kFraction, "attack traffic fraction"},
    {"victim-skew", "double", "1.0", kNonNegative,
     "Zipf skew over the victim shard's resident accounts"},
};
constexpr OptionDoc kSybilOptions[] = {
    {"sybils", "uint", "512", kAtLeastOne,
     "fresh sybil addresses born over the run"},
    {"fanout", "uint", "4", kAtLeastOne, "outputs per sybil transaction"},
    {"share", "double", "0.3", kFraction, "sybil traffic fraction"},
};
constexpr OptionDoc kStressOptions[] = {
    {"spike-share", "double", "0.25", kFraction, "mint flash-crowd peak share"},
    {"attack-share", "double", "0.2", kFraction, "shard-attack share"},
    {"sybil-share", "double", "0.1", kFraction, "sybil fan-out share"},
    {"shards", "uint", "8", kAtLeastOne, "shard count the attack targets"},
    {"target", "uint", "0", {"< shards"},
     "victim shard under hash routing"},
};

// Sorted by name (RegisteredScenarioNames() relies on it).
constexpr common::SpecEntry<Factory> kEntries[] = {
    {"churn",
     "account churn: a pool of short-lived accounts with staggered births "
     "and deaths, feeding A-TxAllo's new-node path continuously",
     MakeChurn, kChurnOptions},
    {"diurnal",
     "diurnal drift: community activity rotates through an awake window "
     "once per period, decaying any allocation built on stale history",
     MakeDiurnal, kDiurnalOptions},
    {"ethereum",
     "the paper's stationary Ethereum-like stream (hub, Zipf communities, "
     "late-born accounts, optional partner drift) — the background of "
     "every other scenario",
     MakeEthereum, kEthereumOptions},
    {"multi-asset",
     "syscoin-style asset allocations: transfers carry an asset-contract "
     "output, communities leaning on their own asset",
     MakeMultiAsset, kMultiAssetOptions},
    {"shard-attack",
     "adversarial single-shard overload: fresh attacker accounts "
     "concentrate traffic on the accounts hash routing pins to one shard",
     MakeShardAttack, kShardAttackOptions},
    {"spike",
     "NFT-mint flash crowd: one contract ramps to a dominant traffic share "
     "(ramp/hold/decay envelope), senders drawn from everywhere",
     MakeSpike, kSpikeOptions},
    {"stress",
     "combinator showcase: shard-attack + sybil + spike overlays stacked "
     "on one background",
     MakeStress, kStressOptions},
    {"sybil",
     "sybil fan-out: fresh addresses born over the run spray multi-output "
     "transactions at the background population",
     MakeSybil, kSybilOptions},
};

// Builds `name` with `options` (shape keys and its own), labelled `spec`.
Result<std::unique_ptr<Scenario>> Build(const std::string& spec,
                                        const std::string& name,
                                        ScenarioShape shape,
                                        const OptionMap& options) {
  Result<size_t> index =
      common::FindEntry("scenario", DescribeScenarios(), name);
  if (!index.ok()) return index.status();
  const common::SpecEntry<Factory>& entry = kEntries[*index];
  const OptionReader read(options, entry.options, kShapeOptions);
  TXALLO_RETURN_NOT_OK(read.ExpectOnly("scenario", name));
  TXALLO_RETURN_NOT_OK(ReadShape(read, &shape));
  return entry.factory(spec, shape, read);
}

std::string RenderSpec(const std::string& name, const OptionMap& options) {
  std::string spec = name;
  bool first = true;
  for (const auto& [key, value] : options) {
    spec += first ? ":" : ",";
    spec += key + "=" + value;
    first = false;
  }
  return spec;
}

}  // namespace

EthereumLikeConfig ScenarioShape::ToEthereumConfig() const {
  EthereumLikeConfig config;
  config.num_blocks = num_blocks;
  config.txs_per_block = txs_per_block;
  config.num_accounts = num_accounts;
  config.num_communities = num_communities;
  config.initial_balance = initial_balance;
  config.seed = seed;
  return config;
}

std::vector<std::string> RegisteredScenarioNames() {
  return common::EntryNames(DescribeScenarios());
}

std::vector<common::EntryDoc> DescribeScenarios() {
  return common::DescribeEntries(kEntries);
}

std::span<const common::OptionDoc> ScenarioShapeOptions() {
  return kShapeOptions;
}

std::string ScenarioUsageText() {
  std::string preamble = "Common shape keys (every scenario): ";
  for (const OptionDoc& option : kShapeOptions) {
    if (&option != kShapeOptions) preamble += ", ";
    preamble += common::OptionSyntax(option);
  }
  return common::UsageText(
      "Scenario", preamble + "\n\n", DescribeScenarios(),
      "(no specific options)",
      "--scenario=spike:peak-share=0.7\n"
      "          --scenario=\"shard-attack:shards=8,target=3,share=0.5\"\n");
}

Result<std::unique_ptr<Scenario>> MakeScenario(
    const std::string& name, const ScenarioShape& shape,
    const std::map<std::string, std::string>& options) {
  return Build(RenderSpec(name, options), name, shape, options);
}

Result<std::unique_ptr<Scenario>> MakeScenarioFromSpec(
    const std::string& spec, const ScenarioShape& shape) {
  Result<common::ParsedSpec> parsed = common::ParseSpec(spec);
  if (!parsed.ok()) return parsed.status();
  return Build(spec, parsed->name, shape, parsed->options);
}

}  // namespace txallo::workload
