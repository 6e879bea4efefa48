#pragma once

/// \file arg_parser.hpp
/// Minimal command-line parsing shared by the `dlcomp` subcommands and
/// the benches. Grammar: `--flag value` for registered value flags, bare
/// `--flag` for registered switches, anything else positional. Unknown
/// flags, missing values and malformed numbers throw UsageError, which
/// `dlcomp` reports with the subcommand's usage and exit code 2.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace dlcomp {

/// A malformed command line (as opposed to a failure while running).
class UsageError : public Error {
 public:
  using Error::Error;
};

/// The checked number parsing behind ArgParser (whole text, no negative
/// integers); UsageError names `what` on malformed input.
[[nodiscard]] double parse_double(std::string_view what, const std::string& text);
[[nodiscard]] std::uint64_t parse_u64(std::string_view what, const std::string& text);

/// One row of a flag table, the single declaration of a flag: `value` is
/// its placeholder in help (empty for a switch), `fallback` its default
/// as text (empty for none).
struct FlagSpec {
  std::string_view name;
  std::string_view value;
  std::string_view fallback;
  std::string_view help;
};

class ArgParser {
 public:
  /// Parses argv[first..argc) against a flag table whose strings outlive
  /// the parser; defaults come from its `fallback` column.
  ArgParser(int argc, char** argv, int first, std::span<const FlagSpec> flags);

  /// Parses argv[first..argc). `value_flags` take one value each (last
  /// occurrence wins); `switches` take none.
  ArgParser(int argc, char** argv, int first,
            std::initializer_list<std::string_view> value_flags,
            std::initializer_list<std::string_view> switches = {});

  /// True when the flag or switch appeared.
  [[nodiscard]] bool has(std::string_view flag) const;

  /// Value accessors. An absent flag yields `fallback` when given, else
  /// the table default. Malformed (or absent, without any default)
  /// numbers throw UsageError naming the flag.
  [[nodiscard]] std::string str(std::string_view flag,
                                std::optional<std::string> fallback = {}) const;
  [[nodiscard]] double num(std::string_view flag, std::optional<double> fallback = {}) const;
  [[nodiscard]] std::uint64_t u64(std::string_view flag,
                                  std::optional<std::uint64_t> fallback = {}) const;
  [[nodiscard]] std::size_t uint(std::string_view flag,
                                 std::optional<std::size_t> fallback = {}) const {
    return static_cast<std::size_t>(u64(flag, fallback));
  }

  /// Non-flag arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Positional count convenience with bounds checking baked into at().
  [[nodiscard]] const std::string& positional(std::size_t i) const {
    return positionals_.at(i);
  }

  [[nodiscard]] std::span<const FlagSpec> flags() const noexcept {
    return flags_;
  }

 private:
  void parse(int argc, char** argv, int first);

  std::vector<FlagSpec> flags_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace dlcomp
