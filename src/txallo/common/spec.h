// "name[:key=value,key=value...]" specs and the registries built on them.
// The allocator registry (--allocator=) and the scenario registry
// (--scenario=) are each a table of SpecEntry rows plus their factories;
// the rest is written here once: the grammar (clauses split on ',', each
// key=value with a non-empty key, duplicate keys rejected, never
// last-one-wins), the strict typed readers, and the option declaration
// (OptionDoc). The usage text, the unknown-key check and the bound check
// all run from that declaration, so `--allocator=help` cannot promise a
// range the factory does not enforce. A factory reads each value once
// through OptionReader and hand-writes only cross-field rules (e.g.
// target < shards).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "txallo/common/status.h"

namespace txallo::common {

using OptionMap = std::map<std::string, std::string>;

/// A parsed "name[:key=value,...]" spec.
struct ParsedSpec {
  std::string name;
  OptionMap options;
};

/// Parses "key=value,key=value" (empty string = no options). Fails on a
/// clause without '=', an empty key, or a duplicate key.
Result<OptionMap> ParseOptionList(const std::string& spec);

/// Parses "name" or "name:key=value,...". The name must be non-empty.
Result<ParsedSpec> ParseSpec(const std::string& spec);

// Strict typed readers. An absent key leaves `*out` untouched; otherwise
// the whole value must parse and fit, or the result is an InvalidArgument
// naming the key and the value. Unsigned readers accept digits only, so a
// leading '-' (which strtoull would silently wrap) is rejected; ReadDouble
// rejects nan and inf.
Status ReadUint64(const OptionMap& options, const std::string& key,
                  uint64_t* out);
Status ReadUint32(const OptionMap& options, const std::string& key,
                  uint32_t* out);
Status ReadInt64(const OptionMap& options, const std::string& key,
                 int64_t* out);
Status ReadDouble(const OptionMap& options, const std::string& key,
                  double* out);

/// The range a declared option's value must fall in; `text` is what the
/// usage table prints. OptionReader checks the numeric limits. A bound
/// with infinite limits and other text (e.g. "< shards") is a rule the
/// factory checks itself.
struct Bound {
  std::string_view text;
  double min = -std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
  double max = std::numeric_limits<double>::infinity();
};

inline constexpr Bound kAnyValue{"any"};
inline constexpr Bound kNonNegative{">= 0", 0.0};
inline constexpr Bound kPositive{"> 0", 0.0, /*min_exclusive=*/true};
inline constexpr Bound kAtLeastOne{">= 1", 1.0};
inline constexpr Bound kFraction{"[0, 1]", 0.0, false, 1.0};

/// One option of a registered name, declared once.
struct OptionDoc {
  std::string_view key;
  /// "uint", "int", "double" or "string"; the Read overload must match.
  std::string_view type;
  /// The rendered default; derived defaults name their source
  /// ("blocks/4").
  std::string_view default_value;
  Bound bound;
  std::string_view help;
};

/// Self-description of one registered name.
struct EntryDoc {
  std::string_view name;
  std::string_view summary;
  std::span<const OptionDoc> options;
};

/// One row of a registry table.
template <typename Factory>
struct SpecEntry {
  std::string_view name;
  std::string_view summary;
  Factory factory;
  std::span<const OptionDoc> options = {};
};

/// Reads the options of one spec against their declarations. Each Read
/// parses the value with the strict reader for the key's declared type and
/// checks its declared bound; an absent key leaves `*out` (the default)
/// untouched and unchecked.
/// Reading an undeclared key, or as another type, is an Internal error.
/// Holds references: `options` and the declarations must outlive it.
class OptionReader {
 public:
  OptionReader(const OptionMap& options, std::span<const OptionDoc> declared,
               std::span<const OptionDoc> shared = {})
      : options_(options), declared_(declared), shared_(shared) {}
  OptionReader(OptionMap&&, std::span<const OptionDoc>,
               std::span<const OptionDoc> = {}) = delete;

  /// Rejects any key declared in neither list, so a typo'd option never
  /// silently falls back to its default. `kind` ("allocator", "scenario")
  /// and `name` only label the error, which lists the declared keys.
  Status ExpectOnly(std::string_view kind, std::string_view name) const;

  Status Read(const std::string& key, uint64_t* out) const;
  Status Read(const std::string& key, uint32_t* out) const;
  Status Read(const std::string& key, int64_t* out) const;
  Status Read(const std::string& key, double* out) const;
  Status Read(const std::string& key, std::string* out) const;

 private:
  /// The declaration of `key` in either list; null when undeclared.
  const OptionDoc* Find(std::string_view key) const;
  /// The declaration of `key`, which must have type `type`.
  Result<const OptionDoc*> Declared(const std::string& key,
                                    std::string_view type) const;
  /// Declared(key, type), then the bound check of the value just parsed
  /// for `key` when the spec sets it.
  Status CheckNumber(const std::string& key, std::string_view type,
                     double value) const;

  const OptionMap& options_;
  std::span<const OptionDoc> declared_;
  std::span<const OptionDoc> shared_;
};

/// "key=<type>", the syntax half of a usage row.
std::string OptionSyntax(const OptionDoc& option);

/// Every registered name, in table order.
std::vector<std::string> EntryNames(std::span<const EntryDoc> docs);

/// The index of `name` in `docs`; NotFound lists the registered names.
Result<size_t> FindEntry(std::string_view kind, std::span<const EntryDoc> docs,
                         std::string_view name);

/// The `--<kind>=help` table: "<title> specs: NAME or NAME:key=value...",
/// `preamble`, then each entry's summary and one row per option
/// (`no_options` when it has none), then "Examples: " + `examples`.
std::string UsageText(std::string_view title, std::string_view preamble,
                      std::span<const EntryDoc> docs,
                      std::string_view no_options, std::string_view examples);

/// Self-description of every row of a registry table, in table order.
template <typename Factory, size_t N>
std::vector<EntryDoc> DescribeEntries(const SpecEntry<Factory> (&entries)[N]) {
  std::vector<EntryDoc> docs;
  docs.reserve(N);
  for (const SpecEntry<Factory>& entry : entries) {
    docs.push_back(EntryDoc{entry.name, entry.summary, entry.options});
  }
  return docs;
}

}  // namespace txallo::common
