#include "txallo/engine/replay.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "txallo/common/sha256.h"

namespace txallo::engine {

namespace {

constexpr char kMagic[8] = {'T', 'X', 'T', 'R', 'A', 'C', 'E', '4'};

// Value encodings. Every trace field has one of the types below, and each
// type has one binary encoding and one text form (the CSV dump and
// divergence messages). Numbers are fixed-width little-endian, shuffled
// byte by byte rather than memcpy'd from the host representation, so
// traces recorded on any platform load on any other.

void PutLe(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
void Put(std::string* out, const T& v) {
  if constexpr (std::is_integral_v<T>) {
    PutLe(out, static_cast<uint64_t>(v), sizeof(T));
  } else if constexpr (std::is_same_v<T, double>) {
    PutLe(out, std::bit_cast<uint64_t>(v), sizeof(T));
  } else if constexpr (std::is_same_v<T, std::string>) {
    PutLe(out, v.size(), sizeof(uint64_t));
    out->append(v);
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size());
  } else {
    static_assert(std::is_same_v<T, alloc::Allocation>);
    // Variable length: the account and shard counts, then every account's
    // shard.
    PutLe(out, v.num_accounts(), sizeof(uint64_t));
    PutLe(out, v.num_shards(), sizeof(uint32_t));
    for (alloc::ShardId shard : v.raw()) PutLe(out, shard, sizeof(shard));
  }
}

void HashU64(Sha256* hasher, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (v >> (8 * i)) & 0xff;
  hasher->Update(bytes, sizeof(bytes));
}

template <typename T>
void Print(std::ostream& os, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, uint8_t>) {
    os << static_cast<uint32_t>(v);
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    os << DigestToHex(v);
  } else if constexpr (std::is_same_v<T, alloc::Allocation>) {
    // The mapping itself is summarized (size + content hash); the binary
    // trace is the machine-readable artifact.
    Sha256 hasher;
    for (alloc::ShardId shard : v.raw()) HashU64(&hasher, shard);
    os << v.num_accounts() << ',' << v.num_shards() << ','
       << DigestToHex(hasher.Finish()).substr(0, 16);
  } else {
    os << v;
  }
}

// Reads one value off the front of `in`. Every read is bounds-checked and
// returns false, reading nothing past the end, on a short buffer or an
// out-of-range value.
template <typename T>
bool Read(std::string_view* in, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t byte = 0;
    if (!Read(in, &byte)) return false;
    *v = byte != 0;
    return byte <= 1;
  } else if constexpr (std::is_integral_v<T> || std::is_same_v<T, double>) {
    if (in->size() < sizeof(T)) return false;
    uint64_t bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>((*in)[i])) << (8 * i);
    }
    in->remove_prefix(sizeof(T));
    if constexpr (std::is_same_v<T, double>) {
      *v = std::bit_cast<double>(bits);
    } else {
      *v = static_cast<T>(bits);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    // The length is checked against the remaining buffer before any
    // allocation.
    uint64_t len = 0;
    if (!Read(in, &len) || len > in->size()) return false;
    v->assign(in->substr(0, static_cast<size_t>(len)));
    in->remove_prefix(static_cast<size_t>(len));
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    if (in->size() < v->size()) return false;
    std::memcpy(v->data(), in->data(), v->size());
    in->remove_prefix(v->size());
  } else {
    static_assert(std::is_same_v<T, alloc::Allocation>);
    uint64_t num_accounts = 0;
    uint32_t num_shards = 0;
    if (!Read(in, &num_accounts) || !Read(in, &num_shards)) return false;
    if (num_accounts > in->size() / sizeof(alloc::ShardId)) return false;
    *v = alloc::Allocation(num_accounts, num_shards);
    for (uint64_t a = 0; a < num_accounts; ++a) {
      alloc::ShardId shard = 0;
      if (!Read(in, &shard)) return false;
      if (shard == alloc::kUnassignedShard) continue;
      if (shard >= num_shards) return false;
      v->Assign(static_cast<chain::AccountId>(a), shard);
    }
  }
  return true;
}

// The trace format, described once. Each record is an ordered list of
// (name, member) fields, and the log is its meta, its run-level fields and
// five record streams. The binary writer and reader, the loader's count
// guards, the CSV dump and the divergence check all walk these lists, so
// the order here IS the byte order of TXTRACE4. Wall-clock fields are
// saved and loaded but neither dumped nor compared: wall time is not
// reproducible, the logical schedule is.

enum class Clock : uint8_t { kLogical, kWall };

template <typename Record, typename T>
struct Field {
  const char* name;
  T Record::*member;
  Clock clock = Clock::kLogical;
  // For an enum stored as u8: its largest valid value (the loader, the
  // writer and the replay guard reject anything above it, through
  // OutOfRangeField).
  uint8_t max = std::numeric_limits<uint8_t>::max();
};

template <typename Record, typename Fields>
struct Stream {
  const char* kind;
  std::vector<Record> ReplayLog::*member;
  Fields fields;
};

using Meta = ReplayLog::Meta;

constexpr auto kMetaFields = std::tuple{
    Field{"num_shards", &Meta::num_shards},
    Field{"eta", &Meta::eta},
    Field{"capacity_per_block", &Meta::capacity_per_block},
    Field{"cross_shard_commit_rounds", &Meta::cross_shard_commit_rounds},
    Field{"state_enabled", &Meta::state_enabled},
    Field{"state_initial_balance", &Meta::state_initial_balance},
    Field{"state_migration_work", &Meta::state_migration_work},
    Field{"blocks_per_epoch", &Meta::blocks_per_epoch},
    Field{"ledger_blocks", &Meta::ledger_blocks},
    Field{"ledger_transactions", &Meta::ledger_transactions},
    Field{"ledger_fingerprint", &Meta::ledger_fingerprint},
    Field{"ingest_mode", &Meta::ingest_mode, Clock::kLogical,
          static_cast<uint8_t>(IngestMode::kOpenLoop)},
    Field{"offered_load", &Meta::offered_load},
    Field{"dispatch_per_tick", &Meta::dispatch_per_tick},
    Field{"fee_levels", &Meta::fee_levels},
    Field{"fee_seed", &Meta::fee_seed},
    Field{"mempool_capacity", &Meta::mempool_capacity},
    Field{"mempool_staging_capacity", &Meta::mempool_staging_capacity},
    Field{"account_pending_limit", &Meta::account_pending_limit},
    Field{"account_rate_limit", &Meta::account_rate_limit},
    Field{"ttl_ticks", &Meta::ttl_ticks},
    Field{"admission_policy", &Meta::admission_policy, Clock::kLogical,
          static_cast<uint8_t>(mempool::AdmissionPolicy::kBlock)},
    Field{"workload_spec", &Meta::workload_spec},
};

constexpr auto kRunFields = std::tuple{
    Field{"alloc_seconds", &ReplayLog::alloc_seconds, Clock::kWall},
    Field{"alloc_wait_seconds", &ReplayLog::alloc_wait_seconds,
          Clock::kWall},
    Field{"alloc_overlap_ratio", &ReplayLog::alloc_overlap_ratio,
          Clock::kWall},
    Field{"epochs", &ReplayLog::epochs},
    Field{"accounts_moved", &ReplayLog::accounts_moved},
};

constexpr auto kPrepares = Stream{
    "prepare", &ReplayLog::prepares,
    std::tuple{Field{"block", &PrepareEvent::block},
               Field{"shard", &PrepareEvent::shard},
               Field{"seq", &PrepareEvent::seq}}};

constexpr auto kCommits = Stream{
    "commit", &ReplayLog::commits,
    std::tuple{Field{"block", &CommitEvent::block},
               Field{"seq", &CommitEvent::seq},
               Field{"cross_shard", &CommitEvent::cross_shard},
               Field{"aborted", &CommitEvent::aborted}}};

constexpr auto kStateRoots = Stream{
    "state_root", &ReplayLog::state_roots,
    std::tuple{Field{"block", &TickStateRoot::block},
               Field{"root", &TickStateRoot::root}}};

constexpr auto kInstalls = Stream{
    "install", &ReplayLog::installs,
    std::tuple{Field{"block", &InstallEvent::block},
               Field{"allocation", &InstallEvent::allocation}}};

constexpr auto kSteps = Stream{
    "step", &ReplayLog::steps,
    std::tuple{
        Field{"step", &StepMetrics::step},
        Field{"first_block", &StepMetrics::first_block},
        Field{"last_block", &StepMetrics::last_block},
        Field{"submitted", &StepMetrics::submitted},
        Field{"committed", &StepMetrics::committed},
        Field{"cross_shard_submitted", &StepMetrics::cross_shard_submitted},
        Field{"throughput_per_block", &StepMetrics::throughput_per_block},
        Field{"cross_shard_ratio", &StepMetrics::cross_shard_ratio},
        Field{"alloc_seconds", &StepMetrics::alloc_seconds, Clock::kWall},
        Field{"alloc_wait_seconds", &StepMetrics::alloc_wait_seconds,
              Clock::kWall},
        Field{"installed", &StepMetrics::installed},
        Field{"aborted", &StepMetrics::aborted},
        Field{"accounts_migrated", &StepMetrics::accounts_migrated},
        Field{"offered", &StepMetrics::offered},
        Field{"admitted", &StepMetrics::admitted},
        Field{"admission_dropped", &StepMetrics::admission_dropped},
        Field{"mempool_depth", &StepMetrics::mempool_depth},
        Field{"mempool_peak_depth", &StepMetrics::mempool_peak_depth},
        Field{"latency_p50_ticks", &StepMetrics::latency_p50_ticks},
        Field{"latency_p99_ticks", &StepMetrics::latency_p99_ticks},
        Field{"latency_p999_ticks", &StepMetrics::latency_p999_ticks},
    }};

// The binary order of the streams (the CSV dump keeps its own).
constexpr auto kStreams =
    std::tuple{kPrepares, kCommits, kStateRoots, kInstalls, kSteps};

template <typename Tuple, typename Fn>
void ForEach(const Tuple& tuple, Fn&& fn) {
  std::apply([&](const auto&... item) { (fn(item), ...); }, tuple);
}

template <typename Fields, typename Record>
void PutFields(std::string* out, const Fields& fields, const Record& record) {
  ForEach(fields,
          [&](const auto& field) { Put(out, record.*field.member); });
}

// The fewest bytes one record of `stream` encodes to: a default record's
// (an empty mapping, every number at its fixed width).
template <typename Record, typename Fields>
size_t MinRecordBytes(const Stream<Record, Fields>& stream) {
  std::string probe;
  PutFields(&probe, stream.fields, Record{});
  return probe.size();
}

// Reads `record`'s fields in list order; returns the name of the first one
// that is short or out of range, or nullptr when all of them read.
template <typename Fields, typename Record>
const char* ReadFields(std::string_view* in, const Fields& fields,
                       Record& record) {
  const char* bad = nullptr;
  ForEach(fields, [&](const auto& field) {
    if (bad == nullptr && !Read(in, &(record.*field.member))) {
      bad = field.name;
    }
  });
  return bad;
}

// "<field>: <value> is above its largest value <max>" for the first enum
// field of `meta` out of its range, or "" when every one is in range.
std::string OutOfRangeField(const ReplayLog::Meta& meta) {
  std::string out;
  ForEach(kMetaFields, [&](const auto& field) {
    const auto& value = meta.*field.member;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, uint8_t>) {
      if (out.empty() && value > field.max) {
        out = std::string(field.name) + ": " + std::to_string(value) +
              " is above its largest value " + std::to_string(field.max);
      }
    }
  });
  return out;
}

// "<field>: recorded <a> vs replayed <b>" for the first logical field in
// which the two records differ, or "" when they agree.
template <typename Fields, typename Record>
std::string FirstDifference(const Fields& fields, const Record& recorded,
                            const Record& replayed) {
  std::string out;
  ForEach(fields, [&](const auto& field) {
    if (!out.empty() || field.clock == Clock::kWall) return;
    const auto& a = recorded.*field.member;
    const auto& b = replayed.*field.member;
    if (a == b) return;
    std::ostringstream text;
    text.precision(std::numeric_limits<double>::max_digits10);
    text << field.name << ": recorded ";
    Print(text, a);
    text << " vs replayed ";
    Print(text, b);
    out = text.str();
  });
  return out;
}

std::string U64(uint64_t v) { return std::to_string(v); }

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file.good()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

uint64_t FingerprintLedger(const chain::Ledger& ledger) {
  Sha256 hasher;
  HashU64(&hasher, ledger.num_blocks());
  for (const chain::Block& block : ledger.blocks()) {
    HashU64(&hasher, block.size());
    for (const chain::Transaction& tx : block.transactions()) {
      HashU64(&hasher, tx.inputs().size());
      for (chain::AccountId a : tx.inputs()) HashU64(&hasher, a);
      HashU64(&hasher, tx.outputs().size());
      for (chain::AccountId a : tx.outputs()) HashU64(&hasher, a);
    }
  }
  const Sha256Digest digest = hasher.Finish();
  uint64_t fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    fingerprint = (fingerprint << 8) | digest[static_cast<size_t>(i)];
  }
  return fingerprint;
}

std::string DescribeTraceDivergence(const ReplayLog& recorded,
                                    const ReplayLog& replayed) {
  std::string out = FirstDifference(kMetaFields, recorded.meta, replayed.meta);
  if (!out.empty()) return "meta." + out;
  ForEach(kStreams, [&](const auto& stream) {
    if (!out.empty()) return;
    const auto& a = recorded.*stream.member;
    const auto& b = replayed.*stream.member;
    if (a.size() != b.size()) {
      out = std::string(stream.kind) + " count: recorded " + U64(a.size()) +
            " vs replayed " + U64(b.size());
      return;
    }
    for (size_t i = 0; i < a.size() && out.empty(); ++i) {
      const std::string diff = FirstDifference(stream.fields, a[i], b[i]);
      if (!diff.empty()) out = stream.kind + ("[" + U64(i) + "].") + diff;
    }
  });
  if (!out.empty()) return out;
  return FirstDifference(kRunFields, recorded, replayed);
}

namespace {

// One shard's prepare subsequence, in stream order. The global stream is
// canonically (block, shard, lane-position) sorted, so the per-shard
// subsequence IS that shard's execution order.
std::vector<std::vector<PrepareEvent>> SplitLanes(const ReplayLog& log) {
  uint32_t num_shards = log.meta.num_shards;
  for (const PrepareEvent& event : log.prepares) {
    // Tolerate hand-built logs whose meta was never filled in.
    if (event.shard >= num_shards) num_shards = event.shard + 1;
  }
  std::vector<std::vector<PrepareEvent>> lanes(num_shards);
  for (const PrepareEvent& event : log.prepares) {
    lanes[event.shard].push_back(event);
  }
  return lanes;
}

std::string LaneEntry(const std::vector<PrepareEvent>& lane, size_t i) {
  if (i >= lane.size()) return "(--, --)";
  return "(" + U64(lane[i].block) + ", " + U64(lane[i].seq) + ")";
}

void PadTo(std::string* line, size_t width) {
  while (line->size() < width) line->push_back(' ');
}

}  // namespace

std::string DescribeLaneDivergence(const ReplayLog& recorded,
                                   const ReplayLog& replayed,
                                   size_t context) {
  std::vector<std::vector<PrepareEvent>> rec = SplitLanes(recorded);
  std::vector<std::vector<PrepareEvent>> rep = SplitLanes(replayed);
  const size_t num_lanes = std::max(rec.size(), rep.size());
  rec.resize(num_lanes);
  rep.resize(num_lanes);

  std::string out;
  for (size_t shard = 0; shard < num_lanes; ++shard) {
    const std::vector<PrepareEvent>& a = rec[shard];
    const std::vector<PrepareEvent>& b = rep[shard];
    const size_t longest = std::max(a.size(), b.size());
    size_t first = longest;
    for (size_t i = 0; i < longest; ++i) {
      if (i >= a.size() || i >= b.size() || !(a[i] == b[i])) {
        first = i;
        break;
      }
    }
    if (first == longest) continue;  // Lane matches entry for entry.

    if (!out.empty()) out += "\n";
    out += "lane shard=" + U64(shard) + ": first divergence at pos " +
           U64(first) + " (recorded tick " +
           (first < a.size() ? U64(a[first].block) : std::string("--")) +
           ", replayed tick " +
           (first < b.size() ? U64(b[first].block) : std::string("--")) +
           ")\n";
    out += "      pos   recorded(block, seq)    replayed(block, seq)\n";
    const size_t lo = first > context ? first - context : 0;
    const size_t hi = std::min(longest, first + context + 1);
    for (size_t i = lo; i < hi; ++i) {
      const bool divergent =
          i >= a.size() || i >= b.size() || !(a[i] == b[i]);
      std::string line = divergent ? "    > " : "      ";
      line += U64(i);
      PadTo(&line, 12);
      line += LaneEntry(a, i);
      PadTo(&line, 36);
      line += LaneEntry(b, i);
      out += line + "\n";
    }
  }
  return out;
}

Result<PipelineResult> ReplayRecordedStream(const chain::Ledger& ledger,
                                            const ReplayLog& log,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config) {
  PipelineConfig replay_config = config;
  replay_config.replay = &log;
  return RunReallocatedStream(ledger, nullptr, engine, replay_config);
}


Status CheckReplayMeta(const ReplayLog::Meta& meta) {
  const std::string bad = OutOfRangeField(meta);
  if (bad.empty()) return Status::OK();
  return Status::InvalidArgument("trace meta." + bad);
}

Status SaveReplayLog(const ReplayLog& log, const std::string& path) {
  TXALLO_RETURN_NOT_OK(CheckReplayMeta(log.meta));
  std::string out(kMagic, sizeof(kMagic));
  PutFields(&out, kMetaFields, log.meta);
  PutFields(&out, kRunFields, log);
  ForEach(kStreams, [&](const auto& stream) {
    const auto& records = log.*stream.member;
    Put(&out, static_cast<uint64_t>(records.size()));
    for (const auto& record : records) PutFields(&out, stream.fields, record);
  });
  return WriteFile(path, out);
}

Result<ReplayLog> LoadReplayLog(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IOError("cannot open trace '" + path + "'");
  }
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("'" + path +
                              "' is not a TXTRACE4 replay trace");
  }
  std::string_view in(data);
  in.remove_prefix(sizeof(kMagic));
  ReplayLog log;
  // Where the bytes stopped making sense; empty while they do.
  std::string where;
  const char* bad = ReadFields(&in, kMetaFields, log.meta);
  if (bad != nullptr) {
    where = std::string("meta.") + bad;
  } else if (const std::string range = OutOfRangeField(log.meta);
             !range.empty()) {
    where = "meta." + range;
  } else if ((bad = ReadFields(&in, kRunFields, log)) != nullptr) {
    where = bad;
  }
  ForEach(kStreams, [&](const auto& stream) {
    if (!where.empty()) return;
    auto& records = log.*stream.member;
    uint64_t count = 0;
    // Counts the remaining bytes cannot hold are rejected before resizing,
    // so a corrupt length cannot balloon the allocation.
    if (!Read(&in, &count) || count > in.size() / MinRecordBytes(stream)) {
      where = std::string(stream.kind) + " count";
      return;
    }
    records.resize(count);
    for (size_t i = 0; i < records.size() && where.empty(); ++i) {
      if ((bad = ReadFields(&in, stream.fields, records[i])) != nullptr) {
        where = stream.kind + ("[" + U64(i) + "].") + bad;
      }
    }
  });
  if (where.empty() && !in.empty()) where = "the end (trailing bytes)";
  if (!where.empty()) {
    return Status::Corruption("trace '" + path +
                              "' is truncated or corrupt at " + where);
  }
  return log;
}

Status DumpReplayLogCsv(const ReplayLog& log, const std::string& path) {
  std::ostringstream csv;
  // Doubles at round-trip precision, as the divergence check prints them,
  // so two traces it tells apart never dump the same rows.
  csv.precision(std::numeric_limits<double>::max_digits10);
  csv << "kind,a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s\n";
  // One `meta,<name>,<value>` row per logical meta and run-level field.
  const auto meta_rows = [&](const auto& fields, const auto& record) {
    ForEach(fields, [&](const auto& field) {
      if (field.clock == Clock::kWall) return;
      csv << "meta," << field.name << ',';
      Print(csv, record.*field.member);
      csv << '\n';
    });
  };
  meta_rows(kMetaFields, log.meta);
  meta_rows(kRunFields, log);
  // One `<kind>,<value>,...` row per record, in the dump's section order.
  ForEach(std::tuple{kSteps, kInstalls, kPrepares, kCommits, kStateRoots},
          [&](const auto& stream) {
            for (const auto& record : log.*stream.member) {
              csv << stream.kind;
              ForEach(stream.fields, [&](const auto& field) {
                if (field.clock == Clock::kWall) return;
                csv << ',';
                Print(csv, record.*field.member);
              });
              csv << '\n';
            }
          });
  return WriteFile(path, csv.str());
}

}  // namespace txallo::engine
