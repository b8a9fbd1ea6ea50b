#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace rbs {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") continue;  // positional: no binary reads it
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--flag value` if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(arg)] = "";
    }
  }
}

std::optional<std::string> CliArgs::raw(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto value = raw(name);
  return value && !value->empty() ? *value : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (value->empty()) return true;
  return *value == "1" || *value == "true" || *value == "yes" || *value == "on";
}

Expected<double> CliArgs::get_double_checked(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end != value->c_str() + value->size())
    return Status::error("--" + name + ": cannot parse '" + *value + "' as a number");
  return parsed;
}

Expected<std::int64_t> CliArgs::get_int_checked(const std::string& name,
                                                std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(value->c_str(), &end, 10);
  if (end != value->c_str() + value->size() || errno == ERANGE)
    return Status::error("--" + name + ": cannot parse '" + *value + "' as an integer");
  return parsed;
}

Status CliArgs::check_flags(std::span<const std::string_view> known) const {
  for (const auto& [name, _] : flags_)
    if (std::find(known.begin(), known.end(), name) == known.end())
      return Status::error("unknown flag --" + name);
  return Status::ok();
}

}  // namespace rbs
