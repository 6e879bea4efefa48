#include "common/arg_parser.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlcomp {

double parse_double(std::string_view what, const std::string& text) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw UsageError("bad number for " + std::string(what) + ": " + text);
  }
}

std::uint64_t parse_u64(std::string_view what, const std::string& text) {
  try {
    // std::stoull accepts "-5" and wraps it to 2^64-5; reject explicitly.
    if (text.find('-') != std::string::npos) {
      throw std::invalid_argument("negative");
    }
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw UsageError("bad integer for " + std::string(what) + ": " + text);
  }
}

ArgParser::ArgParser(int argc, char** argv, int first, std::span<const FlagSpec> flags)
    : flags_(flags.begin(), flags.end()) {
  parse(argc, argv, first);
}

ArgParser::ArgParser(int argc, char** argv, int first,
                     std::initializer_list<std::string_view> value_flags,
                     std::initializer_list<std::string_view> switches) {
  for (const auto name : value_flags) flags_.push_back({name, "VALUE", "", ""});
  for (const auto name : switches) flags_.push_back({name, "", "", ""});
  parse(argc, argv, first);
}

void ArgParser::parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.emplace_back(arg);
      continue;
    }
    const auto spec = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const FlagSpec& f) { return f.name == arg; });
    if (spec == flags_.end()) {
      throw UsageError("unknown flag: " + std::string(arg));
    }
    if (!spec->value.empty() && i + 1 >= argc) {
      throw UsageError("missing value for " + std::string(arg));
    }
    values_[std::string(arg)] = spec->value.empty() ? "" : argv[++i];
  }
}

bool ArgParser::has(std::string_view flag) const {
  return values_.find(flag) != values_.end();
}

std::string ArgParser::str(std::string_view flag, std::optional<std::string> fallback) const {
  if (const auto it = values_.find(flag); it != values_.end()) return it->second;
  if (fallback) return *std::move(fallback);
  for (const FlagSpec& spec : flags_) {
    if (spec.name == flag) return std::string(spec.fallback);
  }
  return "";
}

double ArgParser::num(std::string_view flag, std::optional<double> fallback) const {
  return !has(flag) && fallback ? *fallback : parse_double(flag, str(flag));
}

std::uint64_t ArgParser::u64(std::string_view flag, std::optional<std::uint64_t> fallback) const {
  return !has(flag) && fallback ? *fallback : parse_u64(flag, str(flag));
}

}  // namespace dlcomp
