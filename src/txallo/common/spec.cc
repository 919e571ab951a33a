#include "txallo/common/spec.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace txallo::common {

Result<OptionMap> ParseOptionList(const std::string& spec) {
  OptionMap options;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed option clause '" + clause +
                                     "' (expected key=value)");
    }
    const std::string key = clause.substr(0, eq);
    if (options.count(key) > 0) {
      return Status::InvalidArgument("duplicate option key '" + key + "'");
    }
    options[key] = clause.substr(eq + 1);
  }
  return options;
}

Result<ParsedSpec> ParseSpec(const std::string& spec) {
  ParsedSpec parsed;
  const size_t colon = spec.find(':');
  parsed.name = spec.substr(0, colon);
  if (parsed.name.empty()) {
    return Status::InvalidArgument("empty name in spec '" + spec + "'");
  }
  if (colon != std::string::npos) {
    Result<OptionMap> options = ParseOptionList(spec.substr(colon + 1));
    if (!options.ok()) return options.status();
    parsed.options = std::move(options.value());
  }
  return parsed;
}

namespace {

Status BadValue(const std::string& key, const std::string& value,
                const char* expected) {
  return Status::InvalidArgument("option '" + key + "' expects " + expected +
                                 ", got '" + value + "'");
}

}  // namespace

Status ReadUint64(const OptionMap& options, const std::string& key,
                  uint64_t* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  const std::string& value = it->second;
  const char* expected = "a non-negative integer";
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))) {
    return BadValue(key, value, expected);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    return BadValue(key, value, expected);
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

Status ReadUint32(const OptionMap& options, const std::string& key,
                  uint32_t* out) {
  uint64_t v = *out;
  TXALLO_RETURN_NOT_OK(ReadUint64(options, key, &v));
  if (v > UINT32_MAX) {
    return BadValue(key, options.at(key), "an integer in [0, 2^32)");
  }
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ReadInt64(const OptionMap& options, const std::string& key,
                 int64_t* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return BadValue(key, it->second, "an integer");
  }
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ReadDouble(const OptionMap& options, const std::string& key,
                  double* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    return BadValue(key, it->second, "a finite number");
  }
  *out = v;
  return Status::OK();
}

Status ReadFraction(const OptionMap& options, const std::string& key,
                    double* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  double v = 0.0;
  TXALLO_RETURN_NOT_OK(ReadDouble(options, key, &v));
  if (!(v >= 0.0 && v <= 1.0)) {
    return BadValue(key, it->second, "a fraction in [0, 1]");
  }
  *out = v;
  return Status::OK();
}

Status ExpectOnly(const std::string& kind, const std::string& name,
                  const OptionMap& options,
                  const std::vector<std::string>& known) {
  for (const auto& [key, value] : options) {
    bool found = false;
    for (const std::string& k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string list;
      for (const std::string& k : known) {
        if (!list.empty()) list += ", ";
        list += k;
      }
      return Status::InvalidArgument(
          "unknown option '" + key + "' for " + kind + " '" + name +
          "' (known: " + (list.empty() ? "<none>" : list) + ")");
    }
  }
  return Status::OK();
}

}  // namespace txallo::common
