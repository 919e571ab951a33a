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

const OptionDoc* OptionReader::Find(std::string_view key) const {
  for (std::span<const OptionDoc> docs : {declared_, shared_}) {
    for (const OptionDoc& doc : docs) {
      if (doc.key == key) return &doc;
    }
  }
  return nullptr;
}

Status OptionReader::ExpectOnly(std::string_view kind,
                                std::string_view name) const {
  for (const auto& [key, value] : options_) {
    if (Find(key) != nullptr) continue;
    std::string list;
    for (std::span<const OptionDoc> docs : {declared_, shared_}) {
      for (const OptionDoc& doc : docs) {
        if (!list.empty()) list += ", ";
        list += doc.key;
      }
    }
    return Status::InvalidArgument(
        "unknown option '" + key + "' for " + std::string(kind) + " '" +
        std::string(name) + "' (known: " + (list.empty() ? "<none>" : list) +
        ")");
  }
  return Status::OK();
}

Result<const OptionDoc*> OptionReader::Declared(const std::string& key,
                                                std::string_view type) const {
  const OptionDoc* doc = Find(key);
  if (doc == nullptr || doc->type != type) {
    return Status::Internal("option '" + key + "' is read as " +
                            std::string(type) + " but not declared so");
  }
  return doc;
}

Status OptionReader::CheckNumber(const std::string& key,
                                 std::string_view type, double value) const {
  Result<const OptionDoc*> doc = Declared(key, type);
  if (!doc.ok()) return doc.status();
  auto it = options_.find(key);
  if (it == options_.end()) return Status::OK();
  const Bound& bound = (*doc)->bound;
  if (value < bound.min || (bound.min_exclusive && value == bound.min) ||
      value > bound.max) {
    return Status::InvalidArgument("option '" + key + "' is out of range (" +
                                   std::string(bound.text) + "), got '" +
                                   it->second + "'");
  }
  return Status::OK();
}

Status OptionReader::Read(const std::string& key, uint64_t* out) const {
  TXALLO_RETURN_NOT_OK(ReadUint64(options_, key, out));
  return CheckNumber(key, "uint", static_cast<double>(*out));
}

Status OptionReader::Read(const std::string& key, uint32_t* out) const {
  TXALLO_RETURN_NOT_OK(ReadUint32(options_, key, out));
  return CheckNumber(key, "uint", *out);
}

Status OptionReader::Read(const std::string& key, int64_t* out) const {
  TXALLO_RETURN_NOT_OK(ReadInt64(options_, key, out));
  return CheckNumber(key, "int", static_cast<double>(*out));
}

Status OptionReader::Read(const std::string& key, double* out) const {
  TXALLO_RETURN_NOT_OK(ReadDouble(options_, key, out));
  return CheckNumber(key, "double", *out);
}

Status OptionReader::Read(const std::string& key, std::string* out) const {
  Result<const OptionDoc*> doc = Declared(key, "string");
  if (!doc.ok()) return doc.status();
  if (auto it = options_.find(key); it != options_.end()) *out = it->second;
  return Status::OK();
}

std::string OptionSyntax(const OptionDoc& option) {
  return std::string(option.key) + "=<" + std::string(option.type) + ">";
}

std::vector<std::string> EntryNames(std::span<const EntryDoc> docs) {
  std::vector<std::string> names;
  names.reserve(docs.size());
  for (const EntryDoc& doc : docs) names.emplace_back(doc.name);
  return names;
}

Result<size_t> FindEntry(std::string_view kind, std::span<const EntryDoc> docs,
                         std::string_view name) {
  for (size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].name == name) return i;
  }
  std::string known;
  for (const EntryDoc& doc : docs) {
    if (!known.empty()) known += ", ";
    known += doc.name;
  }
  return Status::NotFound("no " + std::string(kind) + " registered under '" +
                          std::string(name) + "' (registered: " + known +
                          ")");
}

std::string UsageText(std::string_view title, std::string_view preamble,
                      std::span<const EntryDoc> docs,
                      std::string_view no_options,
                      std::string_view examples) {
  std::string out = std::string(title) +
                    " specs: NAME or NAME:key=value[,key=value...]\n\n" +
                    std::string(preamble);
  for (const EntryDoc& doc : docs) {
    out += std::string(doc.name) + "\n    " + std::string(doc.summary) + "\n";
    if (doc.options.empty()) out += "    " + std::string(no_options) + "\n";
    for (const OptionDoc& option : doc.options) {
      out += "    " + OptionSyntax(option) + "  default " +
             std::string(option.default_value) + ", " +
             std::string(option.bound.text) + " — " +
             std::string(option.help) + "\n";
    }
  }
  return out + "\nExamples: " + std::string(examples);
}

}  // namespace txallo::common
