#include "txallo/common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace txallo {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) !=
                                   0) {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

Flags Flags::ParseOrExit(int argc, char** argv,
                         const std::vector<std::string_view>& known) {
  Flags flags = Parse(argc, argv);
  const Status status = flags.CheckNames(known);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  return flags;
}

Status Flags::CheckNames(const std::vector<std::string_view>& known) const {
  for (const auto& entry : values_) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + entry.first);
    }
  }
  return Status::OK();
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str()) return default_value;
  return v;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str()) return default_value;
  return v;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes";
}

Result<BenchScale> ResolveBenchScale(const Flags& flags) {
  std::string scale = flags.GetString("scale", "");
  if (scale.empty()) {
    const char* env = std::getenv("TXALLO_SCALE");
    scale = env != nullptr ? env : "small";
  }
  BenchScale preset;
  if (scale == "large") {
    preset = {8'000'000, 1'200'000, 60, 10, 200, 100, 0};
  } else if (scale == "medium") {
    preset = {2'000'000, 320'000, 60, 10, 120, 40, 0};
  } else if (scale == "small") {
    preset = {400'000, 64'000, 60, 10, 60, 12, 0};
  } else {
    return Status::InvalidArgument("unknown scale \"" + scale +
                                   "\" (--scale or TXALLO_SCALE); valid "
                                   "presets: small, medium, large");
  }
  // Explicit flags override the preset; for the account count an explicit
  // --accounts beats TXALLO_ACCOUNTS beats the preset, so scripted sweeps
  // (1e5 → 1e7 accounts) can rescale every bench through one env var —
  // including google-benchmark binaries that don't parse our flags.
  const int64_t txs =
      flags.GetInt("txs", static_cast<int64_t>(preset.num_transactions));
  int64_t accounts = static_cast<int64_t>(preset.num_accounts);
  if (flags.Has("accounts")) {
    accounts = flags.GetInt("accounts", accounts);
  } else if (const char* env_accounts = std::getenv("TXALLO_ACCOUNTS")) {
    const int64_t v = std::strtoll(env_accounts, nullptr, 10);
    if (v > 0) accounts = v;
  }
  preset.max_shards =
      static_cast<int>(flags.GetInt("max-shards", preset.max_shards));
  preset.shard_step =
      static_cast<int>(flags.GetInt("shard-step", preset.shard_step));
  preset.timeline_steps =
      static_cast<int>(flags.GetInt("steps", preset.timeline_steps));
  preset.blocks_per_step =
      static_cast<int>(flags.GetInt("blocks-per-step", preset.blocks_per_step));
  // The ledger's size: zero accounts or transactions is a degenerate
  // ledger, and a negative count would wrap to a huge unsigned one. The
  // rest are a step or a divisor downstream: 0 never ends the k sweep and
  // divides by zero when sizing a timeline's blocks.
  const std::pair<const char*, int64_t> counts[] = {
      {"txs", txs},
      {"accounts", accounts},
      {"shard-step", preset.shard_step},
      {"steps", preset.timeline_steps},
      {"blocks-per-step", preset.blocks_per_step}};
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      return Status::InvalidArgument(std::string("'") + name +
                                     "' must be >= 1, got " +
                                     std::to_string(value));
    }
  }
  preset.num_transactions = static_cast<uint64_t>(txs);
  preset.num_accounts = static_cast<uint64_t>(accounts);
  // Worker parallelism: an explicit --threads (even a nonsense negative,
  // clamped to auto) beats TXALLO_THREADS beats auto (0).
  int64_t threads = 0;
  if (flags.Has("threads")) {
    threads = flags.GetInt("threads", 0);
  } else if (const char* env_threads = std::getenv("TXALLO_THREADS")) {
    threads = std::strtoll(env_threads, nullptr, 10);
  }
  preset.num_threads = static_cast<int>(std::max<int64_t>(0, threads));
  return preset;
}

std::string ResolveAllocatorSpec(const Flags& flags,
                                 const std::string& default_spec) {
  if (flags.Has("allocator")) return flags.GetString("allocator", default_spec);
  if (const char* env = std::getenv("TXALLO_ALLOCATOR")) {
    if (env[0] != '\0') return env;
  }
  return default_spec;
}

std::string ResolveScenarioSpec(const Flags& flags,
                                const std::string& default_spec) {
  if (flags.Has("scenario")) return flags.GetString("scenario", default_spec);
  if (const char* env = std::getenv("TXALLO_SCENARIO")) {
    if (env[0] != '\0') return env;
  }
  return default_spec;
}

}  // namespace txallo
