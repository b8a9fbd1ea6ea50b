// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag`. A binary
// names the flags it reads to check_flags, which rejects the others, so a
// typo stops the run instead of silently changing what runs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "support/status.hpp"

namespace rbs {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was given (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Checked variants: return the fallback when the flag is absent, but a
  /// Status error when it is present and malformed (the unchecked getters
  /// above silently coerce garbage to 0 via strtod/strtoll).
  [[nodiscard]] Expected<double> get_double_checked(const std::string& name, double fallback) const;
  [[nodiscard]] Expected<std::int64_t> get_int_checked(const std::string& name, std::int64_t fallback) const;

  /// The unknown-flag check: an error "unknown flag --<name>" naming the
  /// first parsed flag (in name order) that is not in `known`, else ok.
  [[nodiscard]] Status check_flags(std::span<const std::string_view> known) const;
  [[nodiscard]] Status check_flags(std::initializer_list<std::string_view> known) const {
    return check_flags(std::span<const std::string_view>(known.begin(), known.size()));
  }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> flags_;
};

}  // namespace rbs
