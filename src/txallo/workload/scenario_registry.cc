#include "txallo/workload/scenario_registry.h"

#include <algorithm>
#include <utility>

#include "txallo/common/spec.h"
#include "txallo/workload/scenario_overlays.h"

namespace txallo::workload {

namespace {

using common::OptionMap;
using common::ReadDouble;
using common::ReadFraction;
using common::ReadInt64;
using common::ReadUint32;
using common::ReadUint64;

// Shape keys every scenario accepts (applied before the specific keys).
constexpr const char* kCommonKeys[] = {
    "blocks", "txs-per-block", "accounts", "communities", "balance", "seed",
};

Status ApplyCommonKeys(const OptionMap& options, ScenarioShape* shape) {
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "blocks", &shape->num_blocks));
  TXALLO_RETURN_NOT_OK(
      ReadUint64(options, "txs-per-block", &shape->txs_per_block));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "accounts", &shape->num_accounts));
  TXALLO_RETURN_NOT_OK(
      ReadUint32(options, "communities", &shape->num_communities));
  TXALLO_RETURN_NOT_OK(
      ReadInt64(options, "balance", &shape->initial_balance));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "seed", &shape->seed));
  return Status::OK();
}

// Rejects any key outside the common + scenario-specific set.
Status ExpectOnly(const std::string& name, const OptionMap& options,
                  std::initializer_list<const char*> specific) {
  std::vector<std::string> known(std::begin(kCommonKeys),
                                 std::end(kCommonKeys));
  known.insert(known.end(), specific.begin(), specific.end());
  return common::ExpectOnly("scenario", name, options, known);
}

using Factory = Result<std::unique_ptr<Scenario>> (*)(
    const std::string& spec, const std::string& name,
    const ScenarioShape& shape, const OptionMap& options);

Result<std::unique_ptr<Scenario>> FinishScenario(
    const std::string& spec, EthereumLikeConfig config,
    std::vector<std::unique_ptr<Overlay>> overlays) {
  TXALLO_RETURN_NOT_OK(config.Validate());
  return std::unique_ptr<Scenario>(
      new OverlayScenario(spec, config, std::move(overlays)));
}

Result<std::unique_ptr<Scenario>> MakeEthereum(const std::string& spec,
                                               const std::string& name,
                                               const ScenarioShape& shape,
                                               const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly(
      name, options,
      {"intra", "hub-share", "self-loop", "multi-party", "late-born",
       "drift-interval", "drift-fraction", "drift-share"}));
  EthereumLikeConfig config = shape.ToEthereumConfig();
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "intra", &config.p_intra_community));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "hub-share", &config.hub_share));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "self-loop", &config.self_loop_rate));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "multi-party", &config.multi_party_rate));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "late-born", &config.late_born_fraction));
  TXALLO_RETURN_NOT_OK(
      ReadUint64(options, "drift-interval", &config.drift_interval_blocks));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "drift-fraction", &config.drift_fraction));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "drift-share", &config.drift_partner_share));
  return FinishScenario(spec, config, {});
}

Result<std::unique_ptr<Scenario>> MakeSpike(const std::string& spec,
                                            const std::string& name,
                                            const ScenarioShape& shape,
                                            const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly(
      name, options, {"start", "ramp", "hold", "decay", "peak-share"}));
  const uint64_t nb = shape.num_blocks;
  HotSpikeParams params;
  params.start = nb / 4;
  params.ramp = std::max<uint64_t>(1, nb / 8);
  params.hold = std::max<uint64_t>(1, nb / 4);
  params.decay = std::max<uint64_t>(1, nb / 8);
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "start", &params.start));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "ramp", &params.ramp));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "hold", &params.hold));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "decay", &params.decay));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "peak-share", &params.peak_share));
  if (params.ramp == 0 || params.decay == 0) {
    return Status::InvalidArgument(
        "scenario 'spike': ramp and decay must be >= 1 block");
  }
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<HotSpikeOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Result<std::unique_ptr<Scenario>> MakeDiurnal(const std::string& spec,
                                              const std::string& name,
                                              const ScenarioShape& shape,
                                              const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly(name, options, {"period", "share", "width"}));
  (void)shape;
  DiurnalParams params;
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "period", &params.period));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "share", &params.share));
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "width", &params.width));
  if (params.period == 0) {
    return Status::InvalidArgument("scenario 'diurnal': period must be > 0");
  }
  if (params.width == 0) {
    return Status::InvalidArgument("scenario 'diurnal': width must be > 0");
  }
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<DiurnalOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Result<std::unique_ptr<Scenario>> MakeChurn(const std::string& spec,
                                            const std::string& name,
                                            const ScenarioShape& shape,
                                            const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly(name, options, {"pool", "lifetime", "share", "intra"}));
  ChurnParams params;
  params.horizon_blocks = shape.num_blocks;
  params.pool = std::max<uint64_t>(1, shape.num_accounts / 16);
  params.lifetime = std::max<uint64_t>(1, shape.num_blocks / 4);
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "pool", &params.pool));
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "lifetime", &params.lifetime));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "share", &params.share));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "intra", &params.intra));
  if (params.pool == 0 || params.lifetime == 0) {
    return Status::InvalidArgument(
        "scenario 'churn': pool and lifetime must be > 0");
  }
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<ChurnOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Result<std::unique_ptr<Scenario>> MakeMultiAsset(const std::string& spec,
                                                 const std::string& name,
                                                 const ScenarioShape& shape,
                                                 const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly(name, options, {"assets", "share", "asset-skew"}));
  MultiAssetParams params;
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "assets", &params.assets));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "share", &params.share));
  TXALLO_RETURN_NOT_OK(
      ReadDouble(options, "asset-skew", &params.asset_skew));
  if (params.assets == 0) {
    return Status::InvalidArgument(
        "scenario 'multi-asset': assets must be > 0");
  }
  if (params.asset_skew < 0.0) {
    return Status::InvalidArgument(
        "scenario 'multi-asset': asset-skew must be >= 0");
  }
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<MultiAssetOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Status ReadShardAttackParams(const OptionMap& options,
                             ShardAttackParams* params) {
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "shards", &params->shards));
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "target", &params->target));
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "attackers", &params->attackers));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "share", &params->share));
  TXALLO_RETURN_NOT_OK(
      ReadDouble(options, "victim-skew", &params->victim_skew));
  if (params->shards == 0) {
    return Status::InvalidArgument(
        "scenario 'shard-attack': shards must be > 0");
  }
  if (params->target >= params->shards) {
    return Status::InvalidArgument(
        "scenario 'shard-attack': target must be < shards");
  }
  if (params->attackers == 0) {
    return Status::InvalidArgument(
        "scenario 'shard-attack': attackers must be > 0");
  }
  if (params->victim_skew < 0.0) {
    return Status::InvalidArgument(
        "scenario 'shard-attack': victim-skew must be >= 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<Scenario>> MakeShardAttack(const std::string& spec,
                                                  const std::string& name,
                                                  const ScenarioShape& shape,
                                                  const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly(
      name, options, {"shards", "target", "attackers", "share",
                      "victim-skew"}));
  ShardAttackParams params;
  TXALLO_RETURN_NOT_OK(ReadShardAttackParams(options, &params));
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<ShardAttackOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

Status ReadSybilParams(const OptionMap& options, const ScenarioShape& shape,
                       SybilParams* params) {
  params->horizon_blocks = shape.num_blocks;
  TXALLO_RETURN_NOT_OK(ReadUint64(options, "sybils", &params->sybils));
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "fanout", &params->fanout));
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "share", &params->share));
  if (params->sybils == 0) {
    return Status::InvalidArgument("scenario 'sybil': sybils must be > 0");
  }
  if (params->fanout == 0) {
    return Status::InvalidArgument("scenario 'sybil': fanout must be > 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<Scenario>> MakeSybil(const std::string& spec,
                                            const std::string& name,
                                            const ScenarioShape& shape,
                                            const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly(name, options, {"sybils", "fanout", "share"}));
  SybilParams params;
  TXALLO_RETURN_NOT_OK(ReadSybilParams(options, shape, &params));
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<SybilOverlay>(params));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

// The combinator showcase: spike + shard-attack + sybil stacked on one
// background, each with a reduced share. Demonstrates that overlays
// compose; the per-overlay scenarios stay the primitives.
Result<std::unique_ptr<Scenario>> MakeStress(const std::string& spec,
                                             const std::string& name,
                                             const ScenarioShape& shape,
                                             const OptionMap& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly(
      name, options,
      {"spike-share", "attack-share", "sybil-share", "shards", "target"}));
  const uint64_t nb = shape.num_blocks;

  HotSpikeParams spike;
  spike.start = nb / 4;
  spike.ramp = std::max<uint64_t>(1, nb / 8);
  spike.hold = std::max<uint64_t>(1, nb / 4);
  spike.decay = std::max<uint64_t>(1, nb / 8);
  spike.peak_share = 0.25;
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "spike-share", &spike.peak_share));

  ShardAttackParams attack;
  attack.share = 0.2;
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "shards", &attack.shards));
  TXALLO_RETURN_NOT_OK(ReadUint32(options, "target", &attack.target));
  TXALLO_RETURN_NOT_OK(
      ReadFraction(options, "attack-share", &attack.share));
  if (attack.shards == 0 || attack.target >= attack.shards) {
    return Status::InvalidArgument(
        "scenario 'stress': need shards > 0 and target < shards");
  }

  SybilParams sybil;
  sybil.horizon_blocks = nb;
  sybil.share = 0.1;
  TXALLO_RETURN_NOT_OK(ReadFraction(options, "sybil-share", &sybil.share));

  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<ShardAttackOverlay>(attack));
  overlays.push_back(std::make_unique<SybilOverlay>(sybil));
  overlays.push_back(std::make_unique<HotSpikeOverlay>(spike));
  return FinishScenario(spec, shape.ToEthereumConfig(), std::move(overlays));
}

// Per-option self-description literal (same shape as the allocator
// registry's).
struct OptionDocLit {
  const char* key;
  const char* type;
  const char* default_value;
  const char* range;
  const char* help;
};

constexpr OptionDocLit kEthereumOptionDocs[] = {
    {"intra", "double", "0.92", "[0, 1]",
     "probability a counterparty comes from the sender's community"},
    {"hub-share", "double", "0.11", "[0, 1]",
     "fraction of transactions involving the hub account"},
    {"self-loop", "double", "0.002", "[0, 1]", "self-transfer probability"},
    {"multi-party", "double", "0.05", "[0, 1]",
     "probability a transaction touches more than two accounts"},
    {"late-born", "double", "0.3", "[0, 1]",
     "fraction of each community born only as the ledger progresses"},
    {"drift-interval", "uint", "0", ">= 0",
     "re-point communities at new partners every N blocks (0 = off)"},
    {"drift-fraction", "double", "0.1", "[0, 1]",
     "fraction of communities rewired per drift event"},
    {"drift-share", "double", "0.5", "[0, 1]",
     "share of a drifted community's intra traffic routed to its partner"},
};
constexpr OptionDocLit kSpikeOptionDocs[] = {
    {"start", "uint", "blocks/4", ">= 0", "first block of the ramp"},
    {"ramp", "uint", "blocks/8", ">= 1", "blocks to reach peak share"},
    {"hold", "uint", "blocks/4", ">= 0", "blocks at peak share"},
    {"decay", "uint", "blocks/8", ">= 1", "blocks back down to zero"},
    {"peak-share", "double", "0.6", "[0, 1]",
     "traffic share of the mint contract at the peak"},
};
constexpr OptionDocLit kDiurnalOptionDocs[] = {
    {"period", "uint", "24", ">= 1", "blocks per full community rotation"},
    {"share", "double", "0.5", "[0, 1]",
     "fraction of traffic that follows the rotating awake window"},
    {"width", "uint", "4", ">= 1", "communities awake at once"},
};
constexpr OptionDocLit kChurnOptionDocs[] = {
    {"pool", "uint", "accounts/16", ">= 1", "short-lived account pool size"},
    {"lifetime", "uint", "blocks/4", ">= 1",
     "blocks from an account's birth to its death"},
    {"share", "double", "0.3", "[0, 1]", "fraction of traffic that churns"},
    {"intra", "double", "0.5", "[0, 1]",
     "probability a churn counterparty is another live churn account"},
};
constexpr OptionDocLit kMultiAssetOptionDocs[] = {
    {"assets", "uint", "8", ">= 1", "distinct asset contract accounts"},
    {"share", "double", "0.4", "[0, 1]",
     "fraction of transfers carrying an asset output"},
    {"asset-skew", "double", "1.0", ">= 0",
     "Zipf skew of asset popularity around each community's own asset"},
};
constexpr OptionDocLit kShardAttackOptionDocs[] = {
    {"shards", "uint", "8", ">= 1",
     "shard count the attack is tuned against (match the engine's k)"},
    {"target", "uint", "0", "< shards", "victim shard under hash routing"},
    {"attackers", "uint", "64", ">= 1", "fresh attacker accounts"},
    {"share", "double", "0.4", "[0, 1]", "attack traffic fraction"},
    {"victim-skew", "double", "1.0", ">= 0",
     "Zipf skew over the victim shard's resident accounts"},
};
constexpr OptionDocLit kSybilOptionDocs[] = {
    {"sybils", "uint", "512", ">= 1", "fresh sybil addresses born over the run"},
    {"fanout", "uint", "4", ">= 1", "outputs per sybil transaction"},
    {"share", "double", "0.3", "[0, 1]", "sybil traffic fraction"},
};
constexpr OptionDocLit kStressOptionDocs[] = {
    {"spike-share", "double", "0.25", "[0, 1]", "mint flash-crowd peak share"},
    {"attack-share", "double", "0.2", "[0, 1]", "shard-attack share"},
    {"sybil-share", "double", "0.1", "[0, 1]", "sybil fan-out share"},
    {"shards", "uint", "8", ">= 1", "shard count the attack targets"},
    {"target", "uint", "0", "< shards", "victim shard under hash routing"},
};

struct Entry {
  const char* name;
  const char* summary;
  Factory factory;
  const OptionDocLit* options = nullptr;
  size_t num_options = 0;
};

// Sorted by name (RegisteredScenarioNames() relies on it).
constexpr Entry kEntries[] = {
    {"churn",
     "account churn: a pool of short-lived accounts with staggered births "
     "and deaths, feeding A-TxAllo's new-node path continuously",
     MakeChurn, kChurnOptionDocs, std::size(kChurnOptionDocs)},
    {"diurnal",
     "diurnal drift: community activity rotates through an awake window "
     "once per period, decaying any allocation built on stale history",
     MakeDiurnal, kDiurnalOptionDocs, std::size(kDiurnalOptionDocs)},
    {"ethereum",
     "the paper's stationary Ethereum-like stream (hub, Zipf communities, "
     "late-born accounts, optional partner drift) — the background of "
     "every other scenario",
     MakeEthereum, kEthereumOptionDocs, std::size(kEthereumOptionDocs)},
    {"multi-asset",
     "syscoin-style asset allocations: transfers carry an asset-contract "
     "output, communities leaning on their own asset",
     MakeMultiAsset, kMultiAssetOptionDocs, std::size(kMultiAssetOptionDocs)},
    {"shard-attack",
     "adversarial single-shard overload: fresh attacker accounts "
     "concentrate traffic on the accounts hash routing pins to one shard",
     MakeShardAttack, kShardAttackOptionDocs,
     std::size(kShardAttackOptionDocs)},
    {"spike",
     "NFT-mint flash crowd: one contract ramps to a dominant traffic share "
     "(ramp/hold/decay envelope), senders drawn from everywhere",
     MakeSpike, kSpikeOptionDocs, std::size(kSpikeOptionDocs)},
    {"stress",
     "combinator showcase: shard-attack + sybil + spike overlays stacked "
     "on one background",
     MakeStress, kStressOptionDocs, std::size(kStressOptionDocs)},
    {"sybil",
     "sybil fan-out: fresh addresses born over the run spray multi-output "
     "transactions at the background population",
     MakeSybil, kSybilOptionDocs, std::size(kSybilOptionDocs)},
};

Status NotFoundScenario(const std::string& name) {
  std::string known;
  for (const Entry& entry : kEntries) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  return Status::NotFound("no scenario registered under '" + name +
                          "' (registered: " + known + ")");
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
  std::vector<std::string> names;
  names.reserve(std::size(kEntries));
  for (const Entry& entry : kEntries) names.emplace_back(entry.name);
  return names;
}

std::string DescribeScenario(const std::string& name) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) return entry.summary;
  }
  return "";
}

std::vector<ScenarioDoc> DescribeScenarios() {
  std::vector<ScenarioDoc> docs;
  docs.reserve(std::size(kEntries));
  for (const Entry& entry : kEntries) {
    ScenarioDoc doc;
    doc.name = entry.name;
    doc.summary = entry.summary;
    doc.options.reserve(entry.num_options);
    for (size_t i = 0; i < entry.num_options; ++i) {
      const OptionDocLit& option = entry.options[i];
      doc.options.push_back(ScenarioOptionDoc{option.key, option.type,
                                              option.default_value,
                                              option.range, option.help});
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::string ScenarioUsageText() {
  std::string out =
      "Scenario specs: NAME or NAME:key=value[,key=value...]\n\n"
      "Common shape keys (every scenario): blocks=<uint>, "
      "txs-per-block=<uint>, accounts=<uint>, communities=<uint>, "
      "balance=<int>, seed=<uint>\n\n";
  for (const ScenarioDoc& doc : DescribeScenarios()) {
    out += doc.name + "\n    " + doc.summary + "\n";
    if (doc.options.empty()) {
      out += "    (no specific options)\n";
    }
    for (const ScenarioOptionDoc& option : doc.options) {
      out += "    " + option.key + "=<" + option.type + ">  default " +
             option.default_value + ", " + option.range + " — " +
             option.help + "\n";
    }
  }
  out +=
      "\nExamples: --scenario=spike:peak-share=0.7\n"
      "          --scenario=\"shard-attack:shards=8,target=3,share=0.5\"\n";
  return out;
}

Result<std::unique_ptr<Scenario>> MakeScenario(
    const std::string& name, const ScenarioShape& shape,
    const std::map<std::string, std::string>& options) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) {
      ScenarioShape sized = shape;
      TXALLO_RETURN_NOT_OK(ApplyCommonKeys(options, &sized));
      return entry.factory(RenderSpec(name, options), name, sized, options);
    }
  }
  return NotFoundScenario(name);
}

Result<std::unique_ptr<Scenario>> MakeScenarioFromSpec(
    const std::string& spec, const ScenarioShape& shape) {
  Result<common::ParsedSpec> parsed = common::ParseSpec(spec);
  if (!parsed.ok()) return parsed.status();
  for (const Entry& entry : kEntries) {
    if (parsed->name == entry.name) {
      ScenarioShape sized = shape;
      TXALLO_RETURN_NOT_OK(ApplyCommonKeys(parsed->options, &sized));
      return entry.factory(spec, parsed->name, sized, parsed->options);
    }
  }
  return NotFoundScenario(parsed->name);
}

}  // namespace txallo::workload
