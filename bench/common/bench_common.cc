#include "common/bench_common.h"

#include <sys/stat.h>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <type_traits>

#include "txallo/common/csv.h"
#include "txallo/common/sha256.h"
#include "txallo/common/stopwatch.h"
#include "txallo/graph/builder.h"

namespace txallo::bench {

Flags ParseBenchFlags(int argc, char** argv,
                      std::initializer_list<std::string_view> names) {
  std::vector<std::string_view> known(names);
  known.insert(known.end(), std::begin(kBenchScaleFlagNames),
               std::end(kBenchScaleFlagNames));
  return Flags::ParseOrExit(argc, argv, known);
}

BenchScale ResolveBenchScaleOrExit(const Flags& flags) {
  Result<BenchScale> scale = ResolveBenchScale(flags);
  if (!scale.ok()) {
    std::fprintf(stderr, "%s\n", scale.status().ToString().c_str());
    std::exit(1);
  }
  return *scale;
}

std::vector<std::string> DefaultMethodSpecs() {
  return {"txallo-global", "hash", "metis", "shard-scheduler"};
}

std::vector<std::string> SplitList(const std::string& list, char separator) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= list.size()) {
    size_t end = list.find(separator, start);
    if (end == std::string::npos) end = list.size();
    if (end > start) items.push_back(list.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

std::vector<std::string> ResolveMethodSpecs(
    const Flags& flags, const std::vector<std::string>& fallback) {
  // Structural backstop so every spec-consuming bench honors
  // --allocator=help / --methods=help even when its main() forgot the
  // early HandleAllocatorHelp() hook (which remains preferable — it runs
  // before any fixture is built).
  if (HandleAllocatorHelp(flags)) std::exit(0);
  if (flags.Has("methods")) {
    // ';' is the separator when present, so specs whose own option lists
    // contain commas ("broker:inner=metis,brokers=8") remain expressible.
    const std::string list = flags.GetString("methods", "");
    std::vector<std::string> specs = SplitList(
        list, list.find(';') != std::string::npos ? ';' : ',');
    if (!specs.empty()) return specs;
  }
  const std::string single = ResolveAllocatorSpec(flags, "");
  if (!single.empty()) return {single};
  if (!fallback.empty()) return fallback;
  return DefaultMethodSpecs();
}

bool HandleAllocatorHelp(const Flags& flags) {
  if (ResolveAllocatorSpec(flags, "") != "help" &&
      flags.GetString("methods", "") != "help") {
    return false;
  }
  std::printf("%s", allocator::AllocatorUsageText().c_str());
  return true;
}

bool HandleScenarioHelp(const Flags& flags) {
  if (ResolveScenarioSpec(flags, "") != "help" &&
      flags.GetString("scenarios", "") != "help") {
    return false;
  }
  std::printf("%s", workload::ScenarioUsageText().c_str());
  return true;
}

std::unique_ptr<workload::Scenario> MakeScenarioOrDie(
    const std::string& spec, const workload::ScenarioShape& shape) {
  auto made = workload::MakeScenarioFromSpec(spec, shape);
  if (!made.ok()) {
    std::fprintf(stderr, "scenario '%s': %s\n", spec.c_str(),
                 made.status().ToString().c_str());
    std::fprintf(stderr, "(--scenario=help lists the registry)\n");
    std::exit(1);
  }
  return std::move(*made);
}

namespace {

// allocator::MakeAllocatorFromSpec, or its status naming `spec` on stderr
// and exit(1): a typo'd method is fatal in every bench. A `streaming`
// caller also needs an OnlineAllocator. Every registered strategy is one,
// so a one-shot-only strategy is an error, never a silently skipped row.
std::unique_ptr<allocator::Allocator> MakeAllocatorOrDie(
    const std::string& spec, allocator::AllocatorOptions options,
    bool streaming) {
  auto made = allocator::MakeAllocatorFromSpec(spec, std::move(options));
  if (!made.ok()) {
    std::fprintf(stderr, "allocator spec '%s': %s\n", spec.c_str(),
                 made.status().ToString().c_str());
    std::exit(1);
  }
  if (streaming && (*made)->AsOnline() == nullptr) {
    std::fprintf(stderr, "allocator '%s' is one-shot only; streaming needs "
                 "an online strategy\n", spec.c_str());
    std::exit(1);
  }
  return std::move(made.value());
}

}  // namespace

std::string MethodLabel(const std::string& spec) {
  if (spec == "txallo-global" || spec == "txallo-hybrid") return "Our Method";
  if (spec == "hash") return "Random";
  if (spec == "metis") return "Metis";
  if (spec == "shard-scheduler") return "Shard Scheduler";
  return spec;
}

Fixture::Fixture(const BenchScale& scale, uint64_t seed) : seed_(seed) {
  config_.num_accounts = scale.num_accounts;
  // Block geometry: keep ~200 tx per block, enough blocks for timelines.
  config_.txs_per_block = 200;
  config_.num_blocks =
      (scale.num_transactions + config_.txs_per_block - 1) /
      config_.txs_per_block;
  config_.num_communities =
      static_cast<uint32_t>(std::max<uint64_t>(64, scale.num_accounts / 160));
  config_.seed = seed;
  generator_ =
      std::make_unique<workload::EthereumLikeGenerator>(config_);
  registry_ = &generator_->registry();
  ledger_ = generator_->GenerateLedger(config_.num_blocks);
  graph_ = graph::BuildTransactionGraph(ledger_);
  graph_.EnsureNodeCount(registry_->size());
  graph_.Consolidate();
  node_order_ = registry_->IdsInHashOrder();
}

std::unique_ptr<allocator::Allocator> Fixture::MakeAllocator(
    const std::string& spec, uint32_t k, double eta) const {
  allocator::AllocatorOptions options;
  options.params = ParamsFor(k, eta);
  options.registry = registry_;
  options.seed = seed_;
  return MakeAllocatorOrDie(spec, std::move(options), /*streaming=*/false);
}

allocator::AllocationContext Fixture::ContextFor(uint32_t k,
                                                 double eta) const {
  allocator::AllocationContext context;
  context.graph = &graph_;
  context.ledger = &ledger_;
  context.registry = registry_;
  context.node_order = &node_order_;
  context.params = ParamsFor(k, eta);
  return context;
}

MethodResult Fixture::RunMethod(const std::string& spec, uint32_t k,
                                double eta) const {
  std::unique_ptr<allocator::Allocator> method = MakeAllocator(spec, k, eta);
  const allocator::AllocationContext context = ContextFor(k, eta);
  MethodResult out;
  const auto fail = [&](const char* stage, const Status& status) {
    std::fprintf(stderr, "'%s' at k=%u, eta=%g: %s failed: %s\n",
                 spec.c_str(), k, eta, stage, status.ToString().c_str());
    std::exit(1);
  };
  Stopwatch watch;
  auto allocation = method->Allocate(context);
  if (!allocation.ok()) fail("allocation", allocation.status());
  out.allocation_seconds = watch.ElapsedSeconds();
  auto report = method->Evaluate(ledger_, *allocation, context.params);
  if (!report.ok()) fail("evaluation", report.status());
  out.report = std::move(report.value());
  return out;
}

Result<double> ResolveOfferedLoad(const Flags& flags, double fallback) {
  std::string source = "--offered-load";
  std::string text = flags.GetString("offered-load", "");
  if (text.empty()) {
    source = "TXALLO_OFFERED_LOAD";
    const char* env = std::getenv("TXALLO_OFFERED_LOAD");
    if (env != nullptr) text = env;
  }
  if (text.empty()) return fallback;
  return ParsePositiveRate(source, text);
}

Result<double> ParsePositiveRate(const std::string& source,
                                 const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(value) || !(value > 0.0)) {
    return Status::InvalidArgument(
        source + ": '" + text +
        "' is not a positive transactions-per-tick rate");
  }
  return value;
}

template <typename T>
Result<std::vector<T>> ParseNumberList(const std::string& name,
                                       const std::string& text) {
  std::vector<T> values;
  for (const std::string& clause : SplitList(text)) {
    T value{};
    const char* const end = clause.data() + clause.size();
    const std::from_chars_result parsed =
        std::from_chars(clause.data(), end, value);
    if (parsed.ec != std::errc() || parsed.ptr != end ||
        !std::isfinite(static_cast<double>(value))) {
      return Status::InvalidArgument(
          "'" + name + "': '" + clause + "' is not " +
          (std::is_integral_v<T> ? "a non-negative integer"
                                 : "a finite number"));
    }
    values.push_back(value);
  }
  if (values.empty()) {
    return Status::InvalidArgument("'" + name + "': '" + text +
                                   "' lists no value");
  }
  return values;
}

template Result<std::vector<double>> ParseNumberList<double>(
    const std::string& name, const std::string& text);
template Result<std::vector<uint32_t>> ParseNumberList<uint32_t>(
    const std::string& name, const std::string& text);

void EnsureDirs(const std::string& path) {
  std::string prefix;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    if (!prefix.empty() && prefix != ".") ::mkdir(prefix.c_str(), 0755);
    start = end + 1;
  }
}

SweepGrid ResolveGrid(const Flags& flags, const BenchScale& scale) {
  Result<std::vector<double>> etas = ParseNumberList<double>(
      "eta-list", flags.GetString("eta-list", "2,4,6,8,10"));
  if (!etas.ok()) {
    std::fprintf(stderr, "%s\n", etas.status().ToString().c_str());
    std::exit(1);
  }
  SweepGrid grid;
  grid.etas = std::move(etas.value());
  grid.shard_counts.push_back(2);
  for (int k = scale.shard_step; k <= scale.max_shards;
       k += scale.shard_step) {
    if (k != 2) grid.shard_counts.push_back(static_cast<uint32_t>(k));
  }
  return grid;
}

SeriesTable::SeriesTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void SeriesTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void SeriesTable::Print() const {
  std::printf("\n%s\n", title_.c_str());
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::string rule(total, '-');
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

void SeriesTable::WriteCsv(const std::string& csv_dir,
                           const std::string& filename) const {
  EnsureDirs(csv_dir);
  CsvWriter writer(csv_dir + "/" + filename);
  if (!writer.ok()) return;
  (void)writer.WriteRow(columns_);
  for (const auto& row : rows_) (void)writer.WriteRow(row);
  (void)writer.Close();
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

double CrossShardPercent(uint64_t cross_shard_submitted, uint64_t submitted) {
  return submitted == 0 ? 0.0
                        : 100.0 * static_cast<double>(cross_shard_submitted) /
                              static_cast<double>(submitted);
}

engine::EngineConfig MakeEngineConfig(const BenchScale& scale, uint32_t k,
                                      double eta, double capacity_per_block,
                                      int num_threads) {
  engine::EngineConfig config;
  config.num_shards = k;
  config.work.eta = eta;
  config.work.capacity_per_block = capacity_per_block;
  const int threads = num_threads >= 0 ? num_threads : scale.num_threads;
  config.num_threads = static_cast<uint32_t>(std::max(0, threads));
  return config;
}

workload::ScenarioShape EngineBenchShape(const BenchScale& scale,
                                         uint64_t blocks,
                                         uint64_t txs_per_block,
                                         uint64_t seed) {
  workload::ScenarioShape shape;
  shape.num_blocks = blocks;
  shape.txs_per_block = txs_per_block;
  shape.num_accounts = std::min<uint64_t>(scale.num_accounts, 16'000);
  shape.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(32, shape.num_accounts / 160));
  shape.seed = seed;
  return shape;
}

std::string StreamDriver::Run::StateRootHex() const {
  if (engine == nullptr || engine->state() == nullptr) return "";
  return DigestToHex(engine->state()->GlobalRoot());
}

StreamDriver::StreamDriver(const Flags& flags)
    : record_path_(flags.GetString("record", "")),
      replay_path_(flags.GetString("replay", "")),
      scenario_flag_(flags.Has("scenario")) {
  if (!record_path_.empty() && !replay_path_.empty()) {
    std::fprintf(stderr, "--record and --replay are mutually exclusive\n");
    std::exit(1);
  }
  if (replay_path_.empty()) return;
  Result<engine::ReplayLog> loaded = engine::LoadReplayLog(replay_path_);
  if (!loaded.ok()) {
    std::fprintf(stderr, "--replay: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  trace_ = std::move(loaded.value());
}

StreamDriver::Run StreamDriver::RunCell(const std::string& spec,
                                        const std::string& label,
                                        const chain::Ledger& ledger,
                                        const chain::AccountRegistry& registry,
                                        uint64_t seed,
                                        engine::EngineConfig engine_config,
                                        engine::PipelineConfig pipeline) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), engine_config.num_shards,
      engine_config.work.eta);
  options.registry = &registry;
  options.seed = seed;
  Run run;
  run.strategy = MakeAllocatorOrDie(spec, std::move(options),
                                    /*streaming=*/true);
  engine_config.hash_route_unassigned = true;
  run.engine = std::make_unique<engine::ParallelEngine>(engine_config,
                                                        nullptr);
  // One trace file = one run: only the first run records.
  engine::ReplayLog log;
  const bool record = !record_path_.empty() && !recorded_;
  if (record) pipeline.record = &log;
  auto result = engine::RunReallocatedStream(
      ledger, run.strategy->AsOnline(), run.engine.get(), pipeline);
  if (!result.ok()) {
    std::fprintf(stderr, "'%s' failed: %s\n", label.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run.result = std::move(result.value());
  if (record) {
    Status saved = engine::SaveReplayLog(log, record_path_);
    if (!saved.ok()) {
      std::fprintf(stderr, "--record: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
    std::printf("recorded trace of '%s' to %s (%zu prepares, %zu commits, "
                "%zu installs, %zu steps)\n",
                label.c_str(), record_path_.c_str(), log.prepares.size(),
                log.commits.size(), log.installs.size(), log.steps.size());
    recorded_ = true;
  }
  return run;
}

StreamDriver::Run StreamDriver::Replay(const chain::Ledger& ledger,
                                       engine::EngineConfig engine_config,
                                       engine::PipelineConfig pipeline) const {
  engine_config.hash_route_unassigned = true;
  if (!scenario_flag_) pipeline.workload_spec.clear();
  Run run;
  run.engine = std::make_unique<engine::ParallelEngine>(engine_config,
                                                        nullptr);
  auto result = engine::ReplayRecordedStream(ledger, trace_, run.engine.get(),
                                             pipeline);
  if (!result.ok()) {
    std::fprintf(stderr, "--replay: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run.result = std::move(result.value());
  std::printf("replay of '%s': bit-identical (%zu prepares, %zu commits, "
              "%zu installs, %zu steps)\n",
              replay_path_.c_str(), trace_.prepares.size(),
              trace_.commits.size(), trace_.installs.size(),
              trace_.steps.size());
  return run;
}

TimelineConfig ResolveTimelineConfig(const Flags& flags,
                                     const BenchScale& scale, uint64_t seed) {
  TimelineConfig config;
  config.num_shards = static_cast<uint32_t>(flags.GetInt("k", 20));
  config.eta = flags.GetDouble("eta", 2.0);
  config.steps = scale.timeline_steps;
  config.blocks_per_step = scale.blocks_per_step;
  config.prefix_multiple =
      static_cast<int>(flags.GetInt("prefix-multiple", 3));
  if (config.prefix_multiple < 0) {
    std::fprintf(stderr, "'prefix-multiple' must be >= 0, got %d\n",
                 config.prefix_multiple);
    std::exit(1);
  }
  config.seed = seed;
  config.num_accounts = scale.num_accounts;
  // Size blocks so the whole timeline stays within the scale's tx budget.
  const uint64_t total_blocks =
      static_cast<uint64_t>(config.steps) * config.blocks_per_step *
      (1 + config.prefix_multiple);
  config.txs_per_block =
      std::max<uint64_t>(20, scale.num_transactions / total_blocks);
  return config;
}

TimelineResult RunTimeline(const TimelineConfig& config,
                           const std::string& spec) {
  workload::EthereumLikeConfig gen_config;
  gen_config.num_accounts = config.num_accounts;
  gen_config.txs_per_block = config.txs_per_block;
  gen_config.num_blocks = static_cast<uint64_t>(config.steps) *
                          config.blocks_per_step *
                          (1 + config.prefix_multiple);
  gen_config.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(32, config.num_accounts / 160));
  gen_config.seed = config.seed;
  workload::EthereumLikeGenerator generator(gen_config);

  // Any registered online strategy runs the timeline; the paper's schedule
  // pair is "txallo-global" vs "txallo-hybrid:global-every=G".
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      1, config.num_shards, config.eta);
  options.registry = &generator.registry();
  options.seed = config.seed;
  const std::unique_ptr<allocator::Allocator> strategy =
      MakeAllocatorOrDie(spec, std::move(options), /*streaming=*/true);
  allocator::OnlineAllocator* online = strategy->AsOnline();

  // Prefix: absorb and bootstrap once (the paper's setup allocates the
  // first 90% of blocks globally; a txallo-* bootstrap Rebalance is always
  // G-TxAllo).
  const int prefix_blocks =
      config.steps * config.blocks_per_step * config.prefix_multiple;
  for (int b = 0; b < prefix_blocks; ++b) {
    online->ApplyBlock(generator.NextBlock());
  }
  const auto fail = [&](const std::string& stage, const Status& status) {
    std::fprintf(stderr, "'%s' %s failed: %s\n", spec.c_str(), stage.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  };
  {
    auto bootstrap = online->Rebalance();
    if (!bootstrap.ok()) fail("prefix bootstrap Rebalance", bootstrap.status());
  }

  TimelineResult result;
  for (int step = 0; step < config.steps; ++step) {
    // One window of new blocks.
    std::vector<chain::Block> window;
    window.reserve(config.blocks_per_step);
    for (int b = 0; b < config.blocks_per_step; ++b) {
      window.push_back(generator.NextBlock());
      online->ApplyBlock(window.back());
    }
    // Scheduled update (the strategy's own τ2 policy decides whether this
    // is a cheap adaptive step or a full refresh).
    const std::string at_step = "step " + std::to_string(step);
    Stopwatch watch;
    auto rebalanced = online->Rebalance();
    if (!rebalanced.ok()) {
      fail(at_step + " Rebalance", rebalanced.status());
    }
    result.seconds_per_step.push_back(watch.ElapsedSeconds());

    // Evaluate this window's transactions under the updated mapping, with
    // the strategy's own execution semantics (broker overlays price
    // brokered transactions honestly).
    uint64_t window_txs = 0;
    for (const chain::Block& blk : window) window_txs += blk.size();
    alloc::AllocationParams window_params =
        alloc::AllocationParams::ForExperiment(window_txs, config.num_shards,
                                               config.eta);
    std::vector<chain::Transaction> txs;
    txs.reserve(window_txs);
    for (const chain::Block& blk : window) {
      txs.insert(txs.end(), blk.transactions().begin(),
                 blk.transactions().end());
    }
    auto report = strategy->Evaluate(txs, *rebalanced, window_params);
    if (!report.ok()) {
      fail(at_step + " window evaluation", report.status());
    }
    result.throughput_per_step.push_back(report->normalized_throughput);
  }
  double total = 0.0;
  for (double t : result.throughput_per_step) total += t;
  result.average_throughput =
      result.throughput_per_step.empty()
          ? 0.0
          : total / static_cast<double>(result.throughput_per_step.size());
  return result;
}

double PeakRssMegabytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB.
#endif
#else
  return 0.0;
#endif
}

void PrintRunBanner(const char* figure, const BenchScale& scale,
                    const Fixture& fixture, uint64_t seed) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf(
      "workload: %" PRIu64 " transactions, %zu accounts, seed %" PRIu64
      " (synthetic Ethereum-like; TXALLO_SCALE / TXALLO_ACCOUNTS to "
      "rescale)\n",
      fixture.num_transactions(), fixture.registry().size(), seed);
  std::printf("k sweep up to %d, step %d\n", scale.max_shards,
              scale.shard_step);
  std::printf("peak rss: %.1f MiB after fixture construction\n",
              PeakRssMegabytes());
  std::printf("==============================================================\n");
}

}  // namespace txallo::bench
