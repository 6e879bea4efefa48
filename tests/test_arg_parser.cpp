// Tests for the shared CLI flag parser the dlcomp subcommands use.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/error.hpp"

namespace dlcomp {
namespace {

/// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& arg : storage_) pointers_.push_back(arg.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(ArgParser, FlagsAndPositionalsSeparate) {
  Argv args({"dlcomp", "serve", "--qps", "500", "file.bin", "--codec",
             "hybrid", "extra"});
  const ArgParser parser(args.argc(), args.argv(), 2, {"--qps", "--codec"});
  EXPECT_TRUE(parser.has("--qps"));
  EXPECT_TRUE(parser.has("--codec"));
  EXPECT_FALSE(parser.has("--eb"));
  EXPECT_DOUBLE_EQ(parser.num("--qps", 0.0), 500.0);
  EXPECT_EQ(parser.str("--codec"), "hybrid");
  ASSERT_EQ(parser.positionals().size(), 2u);
  EXPECT_EQ(parser.positional(0), "file.bin");
  EXPECT_EQ(parser.positional(1), "extra");
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  Argv args({"dlcomp", "cmd"});
  const ArgParser parser(args.argc(), args.argv(), 2,
                         {"--eb", "--iters", "--name"});
  EXPECT_DOUBLE_EQ(parser.num("--eb", 0.25), 0.25);
  EXPECT_EQ(parser.uint("--iters", 7u), 7u);
  EXPECT_EQ(parser.u64("--iters", 9u), 9u);
  EXPECT_EQ(parser.str("--name", "fallback"), "fallback");
  EXPECT_TRUE(parser.positionals().empty());
}

TEST(ArgParser, SwitchesTakeNoValue) {
  Argv args({"dlcomp", "cmd", "--verbose", "pos"});
  const ArgParser parser(args.argc(), args.argv(), 2, {}, {"--verbose"});
  EXPECT_TRUE(parser.has("--verbose"));
  ASSERT_EQ(parser.positionals().size(), 1u);
  EXPECT_EQ(parser.positional(0), "pos");
}

TEST(ArgParser, LastOccurrenceWins) {
  Argv args({"dlcomp", "cmd", "--eb", "0.1", "--eb", "0.2"});
  const ArgParser parser(args.argc(), args.argv(), 2, {"--eb"});
  EXPECT_DOUBLE_EQ(parser.num("--eb", 0.0), 0.2);
}

TEST(ArgParser, UnknownFlagThrows) {
  Argv args({"dlcomp", "cmd", "--bogus", "1"});
  EXPECT_THROW(ArgParser(args.argc(), args.argv(), 2, {"--eb"}), Error);
}

TEST(ArgParser, MissingValueThrows) {
  Argv args({"dlcomp", "cmd", "--eb"});
  EXPECT_THROW(ArgParser(args.argc(), args.argv(), 2, {"--eb"}), Error);
}

TEST(ArgParser, MalformedNumbersThrow) {
  Argv args({"dlcomp", "cmd", "--eb", "abc", "--n", "12x"});
  const ArgParser parser(args.argc(), args.argv(), 2, {"--eb", "--n"});
  EXPECT_THROW((void)parser.num("--eb", 0.0), Error);
  EXPECT_THROW((void)parser.uint("--n", 0), Error);
  EXPECT_THROW((void)parser.u64("--n", 0), Error);
}

TEST(ArgParser, NegativeIntegersRejectedNotWrapped) {
  // std::stoull would happily turn "-5" into 2^64-5.
  Argv args({"dlcomp", "cmd", "--n", "-5"});
  const ArgParser parser(args.argc(), args.argv(), 2, {"--n"});
  EXPECT_THROW((void)parser.uint("--n", 0), Error);
  EXPECT_THROW((void)parser.u64("--n", 0), Error);
  EXPECT_DOUBLE_EQ(parser.num("--n", 0.0), -5.0);  // doubles may be negative
}

TEST(ArgParser, FlagTableSuppliesDefaultsAndSwitches) {
  constexpr FlagSpec kFlags[] = {{"--eb", "X", "0.25", "bound"},
                                 {"--iters", "N", "7", "iterations"},
                                 {"--out", "FILE", "", "output"},
                                 {"--fast", "", "", "a switch"}};
  Argv args({"dlcomp", "cmd", "--iters", "9", "--fast", "pos"});
  const ArgParser parser(args.argc(), args.argv(), 2, kFlags);
  EXPECT_DOUBLE_EQ(parser.num("--eb"), 0.25);  // table default
  EXPECT_EQ(parser.uint("--iters"), 9u);       // given value wins
  EXPECT_FALSE(parser.has("--eb"));            // defaults are not presence
  EXPECT_TRUE(parser.has("--fast"));
  EXPECT_EQ(parser.str("--out"), "");
  EXPECT_THROW((void)parser.num("--out"), UsageError);  // no value, no default
  ASSERT_EQ(parser.positionals().size(), 1u);
  EXPECT_EQ(parser.flags().size(), 4u);

  Argv bad({"dlcomp", "cmd", "--bogus"});
  EXPECT_THROW(ArgParser(bad.argc(), bad.argv(), 2, kFlags), UsageError);
  EXPECT_THROW((void)parse_double("<eb>", "0.01x"), UsageError);
  EXPECT_THROW((void)parse_u64("<dim>", "16x"), UsageError);
  EXPECT_EQ(parse_u64("<dim>", "65537"), 65537u);
}

TEST(ArgParser, FirstIndexSkipsLeadingArguments) {
  Argv args({"dlcomp", "--looks-like-flag", "real-positional"});
  const ArgParser parser(args.argc(), args.argv(), 2, {});
  ASSERT_EQ(parser.positionals().size(), 1u);
  EXPECT_EQ(parser.positional(0), "real-positional");
}

}  // namespace
}  // namespace dlcomp
