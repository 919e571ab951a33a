// Docs <-> parser conformance for a spec registry (common/spec.h): walks
// every declared option and checks that the factory enforces what
// `--allocator=help` / `--scenario=help` print. Shared by the allocator and
// scenario registry tests.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "txallo/common/spec.h"

namespace txallo::common {

/// Builds the registered `name` with `options`; returns the status.
using BuildFn =
    std::function<Status(const std::string& name, const OptionMap& options)>;

/// The documented defaults of `own` and `shared` that are literal values
/// (a default computed from the shape names its source: "blocks/4").
inline OptionMap LiteralDefaults(std::span<const OptionDoc> own,
                                 std::span<const OptionDoc> shared) {
  OptionMap defaults;
  for (std::span<const OptionDoc> options : {own, shared}) {
    for (const OptionDoc& option : options) {
      if (option.default_value.find('/') != std::string_view::npos) continue;
      defaults[std::string(option.key)] = std::string(option.default_value);
    }
  }
  return defaults;
}

/// Values just outside `option`'s numeric bound (none for "any" and for
/// rules the factory checks itself).
inline std::vector<std::string> JustOutside(const OptionDoc& option) {
  const bool integral = option.type == "uint" || option.type == "int";
  const double step = integral ? 1.0 : 0.001;
  const Bound& bound = option.bound;
  std::vector<double> values;
  if (bound.min_exclusive) {
    values.push_back(bound.min);
  } else if (std::isfinite(bound.min) &&
             !(option.type == "uint" && bound.min < 1)) {
    values.push_back(bound.min - step);
  }
  if (std::isfinite(bound.max)) values.push_back(bound.max + step);
  std::vector<std::string> rendered;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    rendered.emplace_back(buf);
  }
  return rendered;
}

/// For every entry in `docs` and every option it accepts (its own and
/// `shared`):
///   - a value just outside a numeric bound fails with InvalidArgument
///     naming the key, so the printed bound is the enforced one;
///   - a malformed value fails with InvalidArgument naming the key, so the
///     factory really reads the key ("x" is no number and no registered
///     name);
///   - the documented defaults that are literal values, set together,
///     build.
inline void ExpectDeclarationsEnforced(std::span<const EntryDoc> docs,
                                       std::span<const OptionDoc> shared,
                                       const BuildFn& build) {
  for (const EntryDoc& doc : docs) {
    const std::string name(doc.name);
    SCOPED_TRACE(name);
    for (std::span<const OptionDoc> options : {doc.options, shared}) {
      for (const OptionDoc& option : options) {
        const std::string key(option.key);
        std::vector<std::string> bad = JustOutside(option);
        bad.push_back("x");
        for (const std::string& value : bad) {
          SCOPED_TRACE(key + "=" + value);
          const Status status = build(name, {{key, value}});
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
              << status.ToString();
          EXPECT_NE(status.message().find(key), std::string::npos)
              << status.ToString();
        }
      }
    }
    const Status status = build(name, LiteralDefaults(doc.options, shared));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

}  // namespace txallo::common
