// Shared "name[:key=value,key=value...]" spec-string parsing, used by both
// the allocator registry (--allocator=) and the workload scenario registry
// (--scenario=). Unknown names and which keys a name accepts are the
// registries' business; this layer guarantees the uniform grammar (clauses
// split on ',', each clause is key=value with a non-empty key, duplicate
// keys are rejected, never last-one-wins) and the strict typed readers both
// registries use for values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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
/// A double in [0, 1].
Status ReadFraction(const OptionMap& options, const std::string& key,
                    double* out);

/// Rejects any key of `options` outside `known`, so a typo'd option never
/// silently falls back to its default. `kind` ("allocator", "scenario") and
/// `name` only label the error, which lists the known keys.
Status ExpectOnly(const std::string& kind, const std::string& name,
                  const OptionMap& options,
                  const std::vector<std::string>& known);

}  // namespace txallo::common
