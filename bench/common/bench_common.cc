#include "common/bench_common.h"

#include <sys/stat.h>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "txallo/common/csv.h"
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
  auto made = allocator::MakeAllocatorFromSpec(spec, std::move(options));
  if (!made.ok()) {
    std::fprintf(stderr, "allocator spec '%s': %s\n", spec.c_str(),
                 made.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(made.value());
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
  Stopwatch watch;
  auto allocation = method->Allocate(context);
  if (!allocation.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", spec.c_str(),
                 allocation.status().ToString().c_str());
    std::abort();
  }
  out.allocation_seconds = watch.ElapsedSeconds();
  auto report = method->Evaluate(ledger_, *allocation, context.params);
  if (!report.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  out.report = std::move(report.value());
  return out;
}

SweepCache::SweepCache(const Fixture* fixture, const BenchScale& scale,
                       uint64_t seed, bool enabled, std::string cache_dir)
    : fixture_(fixture), cache_dir_(std::move(cache_dir)), enabled_(enabled) {
  char name[256];
  std::snprintf(name, sizeof(name),
                "sweep_%" PRIu64 "_%" PRIu64 "_%" PRIu64 ".csv",
                scale.num_transactions, scale.num_accounts, seed);
  path_ = cache_dir_ + "/" + name;
  if (enabled_) Load();
}

void SweepCache::Load() {
  auto rows = ReadCsvFile(path_);
  if (!rows.ok()) return;  // Cold cache.
  for (const auto& row : rows.value()) {
    if (row.size() != 11) continue;
    Key key{row[0], static_cast<uint32_t>(std::atoi(row[1].c_str())),
            std::atof(row[2].c_str())};
    Row value{std::atof(row[3].c_str()), std::atof(row[4].c_str()),
              std::atof(row[5].c_str()), std::atof(row[6].c_str()),
              std::atof(row[7].c_str()), std::atof(row[8].c_str()),
              std::atof(row[9].c_str()),
              static_cast<uint64_t>(std::atoll(row[10].c_str()))};
    rows_[key] = value;
  }
}

MethodResult SweepCache::Get(const std::string& spec, uint32_t k,
                             double eta) {
  Key key{spec, k, eta};
  auto it = rows_.find(key);
  if (enabled_ && it != rows_.end()) {
    const Row& row = it->second;
    MethodResult out;
    out.report.num_shards = k;
    out.report.total_transactions = fixture_->num_transactions();
    out.report.cross_shard_transactions = row.cross_txs;
    out.report.cross_shard_ratio = row.gamma;
    out.report.normalized_workload_stddev = row.rho_norm;
    out.report.normalized_throughput = row.throughput_norm;
    out.report.avg_latency_blocks = row.avg_latency;
    out.report.worst_latency_blocks = row.worst_latency;
    out.report.mean_shards_per_tx = row.mean_mu;
    out.allocation_seconds = row.seconds;
    return out;
  }
  MethodResult result = fixture_->RunMethod(spec, k, eta);
  rows_[key] = Row{result.report.cross_shard_ratio,
                   result.report.normalized_workload_stddev,
                   result.report.normalized_throughput,
                   result.report.avg_latency_blocks,
                   result.report.worst_latency_blocks,
                   result.allocation_seconds,
                   result.report.mean_shards_per_tx,
                   result.report.cross_shard_transactions};
  dirty_ = true;
  return result;
}

SweepCache::~SweepCache() {
  if (!enabled_ || !dirty_) return;
  EnsureDirs(cache_dir_);
  CsvWriter writer(path_);
  if (!writer.ok()) return;
  for (const auto& [key, row] : rows_) {
    (void)writer.WriteRow({key.spec,
                           std::to_string(key.k), Fmt(key.eta, 6),
                           Fmt(row.gamma, 9), Fmt(row.rho_norm, 9),
                           Fmt(row.throughput_norm, 9),
                           Fmt(row.avg_latency, 9), Fmt(row.worst_latency, 9),
                           Fmt(row.seconds, 9), Fmt(row.mean_mu, 9),
                           std::to_string(row.cross_txs)});
  }
  (void)writer.Close();
}

std::string ResolveCacheDir(const Flags& flags) {
  return flags.GetString("cache-dir",
                         flags.GetString("csv-dir", "bench_out") + "/cache");
}

TraceFlags ResolveTraceFlags(const Flags& flags) {
  TraceFlags trace;
  trace.record_path = flags.GetString("record", "");
  trace.replay_path = flags.GetString("replay", "");
  return trace;
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
  // Strict parse: the whole token must be one finite positive number —
  // "8x", "", or "nan" silently becoming a default would make a sweep lie.
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
  SweepGrid grid;
  std::string eta_list = flags.GetString("eta-list", "2,4,6,8,10");
  size_t start = 0;
  while (start <= eta_list.size()) {
    size_t end = eta_list.find(',', start);
    if (end == std::string::npos) end = eta_list.size();
    if (end > start) {
      grid.etas.push_back(std::atof(eta_list.substr(start, end - start).c_str()));
    }
    start = end + 1;
  }
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

TimelineConfig ResolveTimelineConfig(const Flags& flags,
                                     const BenchScale& scale, uint64_t seed) {
  TimelineConfig config;
  config.num_shards = static_cast<uint32_t>(flags.GetInt("k", 20));
  config.eta = flags.GetDouble("eta", 2.0);
  config.steps = scale.timeline_steps;
  config.blocks_per_step = scale.blocks_per_step;
  config.prefix_multiple =
      static_cast<int>(flags.GetInt("prefix-multiple", 3));
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
  auto made = allocator::MakeAllocatorFromSpec(spec, std::move(options));
  if (!made.ok()) {
    std::fprintf(stderr, "timeline allocator spec '%s': %s\n", spec.c_str(),
                 made.status().ToString().c_str());
    std::exit(1);
  }
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  if (online == nullptr) {
    std::fprintf(stderr, "timeline allocator '%s' is one-shot only; pick an "
                 "online strategy\n", spec.c_str());
    std::exit(1);
  }

  // Prefix: absorb and bootstrap once (the paper's setup allocates the
  // first 90% of blocks globally; a txallo-* bootstrap Rebalance is always
  // G-TxAllo).
  const int prefix_blocks =
      config.steps * config.blocks_per_step * config.prefix_multiple;
  for (int b = 0; b < prefix_blocks; ++b) {
    online->ApplyBlock(generator.NextBlock());
  }
  {
    auto bootstrap = online->Rebalance();
    if (!bootstrap.ok()) {
      std::fprintf(stderr, "prefix bootstrap Rebalance failed: %s\n",
                   bootstrap.status().ToString().c_str());
      std::abort();
    }
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
    Stopwatch watch;
    auto rebalanced = online->Rebalance();
    if (!rebalanced.ok()) {
      std::fprintf(stderr, "step %d Rebalance failed: %s\n", step,
                   rebalanced.status().ToString().c_str());
      std::abort();
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
    auto report = (*made)->Evaluate(txs, *rebalanced, window_params);
    if (!report.ok()) {
      std::fprintf(stderr, "window evaluation failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
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

int RunStandardSweepFigure(int argc, char** argv, const char* figure_title,
                           const char* metric_name,
                           double (*extract)(const MethodResult&),
                           const char* csv_prefix, const char* paper_note) {
  Flags flags = ParseBenchFlags(
      argc, argv, {"allocator", "cache-dir", "csv-dir", "eta-list", "methods",
                   "no-cache", "seed"});
  if (HandleAllocatorHelp(flags)) return 0;
  BenchScale scale = ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Fixture fixture(scale, seed);
  PrintRunBanner(figure_title, scale, fixture, seed);
  std::printf("%s\n", paper_note);
  SweepCache cache(&fixture, scale, seed, !flags.GetBool("no-cache", false),
                   ResolveCacheDir(flags));
  SweepGrid grid = ResolveGrid(flags, scale);
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
  const std::vector<std::string> methods = ResolveMethodSpecs(flags);

  for (double eta : grid.etas) {
    char title[160];
    std::snprintf(title, sizeof(title), "%s — eta = %g", metric_name, eta);
    std::vector<std::string> columns{"k"};
    for (const std::string& m : methods) columns.push_back(MethodLabel(m));
    SeriesTable table(title, std::move(columns));
    for (uint32_t k : grid.shard_counts) {
      std::vector<std::string> row{std::to_string(k)};
      for (const std::string& m : methods) {
        row.push_back(Fmt(extract(cache.Get(m, k, eta))));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    char filename[160];
    std::snprintf(filename, sizeof(filename), "%s_eta%g.csv", csv_prefix,
                  eta);
    table.WriteCsv(csv_dir, filename);
  }
  std::printf("\nCSV series written to %s/%s_eta*.csv\n", csv_dir.c_str(),
              csv_prefix);
  return 0;
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
