// End-to-end tests of the dlcomp binary (its path comes in as the
// DLCOMP_CLI compile definition): generated --help, the exit-code
// contract (0 ok, 1 runtime error, 2 usage error), file round-trips
// through every codec, and traced runs that `dlcomp obs diff` reads.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compress/registry.hpp"
#include "obs/manifest.hpp"

namespace dlcomp {
namespace {

namespace fs = std::filesystem;

struct Outcome {
  int code = -1;
  std::string output;  ///< stdout and stderr interleaved
};

/// Runs `dlcomp <args>` in `dir` through the shell.
Outcome dlcomp(const std::string& args, const fs::path& dir) {
  const std::string command =
      "cd '" + dir.string() + "' && '" DLCOMP_CLI "' " + args + " 2>&1";
  Outcome run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    run.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dlcomp_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Outcome run(const std::string& args) const { return dlcomp(args, dir_); }

  fs::path dir_;
};

TEST_F(CliTest, HelpExitsZeroAndNamesEveryFlag) {
  const std::map<std::string, std::vector<std::string>> surface = {
      {"train",
       {"--backend", "--world", "--iters", "--batch", "--codec", "--eb",
        "--stages", "--no-overlap", "--dataset", "--seed", "--record-every",
        "--eval-every", "--history-out", "--manifest-out", "--label",
        "--trace", "--rank", "--listen-fd", "--port", "--address"}},
      {"serve",
       {"--pattern", "--qps", "--queries", "--query-size", "--max-batch",
        "--max-delay-ms", "--codec", "--eb", "--dataset", "--replicas",
        "--seed", "--checkpoint", "--shards", "--rows-per-page", "--cache-mb",
        "--slo-ms", "--metrics-port", "--linger-ms", "--manifest-out",
        "--label", "--trace"}},
      {"compress", {}},
      {"decompress", {}},
      {"inspect", {}},
      {"analyze", {}},
      {"codecs", {}},
      {"obs diff",
       {"--rel-tol", "--ignore", "--json", "--strict-values", "--strict-keys"}},
      {"ckpt save",
       {"--dataset", "--iters", "--codec", "--eb", "--plan", "--seed",
        "--optimizer"}},
      {"ckpt inspect", {}},
      {"ckpt verify", {}},
      {"ckpt diff", {}},
      {"data convert",
       {"--samples-per-shard", "--max-samples", "--threads", "--dense",
        "--cat"}},
      {"data inspect", {}},
      {"data stats", {"--dataset", "--batches", "--batch"}},
  };
  const Outcome top = run("--help");
  EXPECT_EQ(top.code, 0) << top.output;
  for (const auto& [command, flags] : surface) {
    EXPECT_NE(top.output.find("dlcomp " + command), std::string::npos)
        << command;
    const Outcome help = run(command + " --help");
    EXPECT_EQ(help.code, 0) << command << "\n" << help.output;
    EXPECT_NE(help.output.find("usage: dlcomp " + command), std::string::npos)
        << help.output;
    for (const std::string& flag : flags) {
      EXPECT_NE(help.output.find(flag + " "), std::string::npos)
          << command << " --help lacks " << flag << "\n" << help.output;
    }
  }
  // A family's --help lists every verb.
  const Outcome ckpt = run("ckpt --help");
  EXPECT_EQ(ckpt.code, 0);
  EXPECT_NE(ckpt.output.find("dlcomp ckpt diff"), std::string::npos);
}

TEST_F(CliTest, UsageErrorsExitTwoRuntimeErrorsExitOne) {
  const auto expect = [&](const std::string& args, int code) {
    const Outcome r = run(args);
    EXPECT_EQ(r.code, code) << "dlcomp " << args << "\n" << r.output;
    return r.output;
  };
  expect("", 2);
  expect("trace --out p", 2);  // folded into train/serve --trace
  expect("ckpt", 2);
  expect("ckpt bogus x", 2);
  const std::string unknown_flag = expect("train --bogus", 2);
  EXPECT_NE(unknown_flag.find("unknown flag: --bogus"), std::string::npos);
  EXPECT_NE(unknown_flag.find("usage: dlcomp train"), std::string::npos);
  expect("train --world", 2);            // missing value
  expect("train --world four", 2);       // malformed number
  expect("inspect", 2);                  // too few positionals
  expect("decompress a b c", 2);         // too many
  expect("compress hybrid 0.01x 16 in.f32 out.dlcp", 2);
  expect("compress hybrid 0.01 16x in.f32 out.dlcp", 2);
  expect("serve --model dlrm", 2);  // DLRM is the only model
  expect("serve --shards 0", 2);  // compressed serving is the store's
  expect("serve --cache-mb -1 --shards 2 --queries 200 --qps 4000", 2);
  expect("serve --cache-mb nan", 2);
  expect("serve --cache-mb inf", 2);

  expect("inspect missing.dlcp", 1);
  expect("train --codec bogus", 1);      // rejected before training
  expect("train --iters 1 --trace no/such/dir/t.json", 1);
}

TEST_F(CliTest, RoundTripEveryCodecWithinBound) {
  const double eb = 0.05;
  std::vector<float> values(4096);
  Rng rng(11);
  for (auto& v : values) v = rng.uniform_float(-0.1f, 0.1f);
  {
    std::ofstream os(dir_ / "in.f32", std::ios::binary);
    os.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(float)));
  }
  for (const auto name : all_compressor_names()) {
    const std::string codec(name);
    const Outcome c = run("compress " + codec + " 0.05 16 in.f32 s.dlcp");
    ASSERT_EQ(c.code, 0) << c.output;
    const Outcome d = run("decompress s.dlcp out.f32");
    ASSERT_EQ(d.code, 0) << d.output;
    EXPECT_NE(d.output.find(codec), std::string::npos) << d.output;

    std::vector<float> back(values.size());
    std::ifstream is(dir_ / "out.f32", std::ios::binary);
    is.read(reinterpret_cast<char*>(back.data()),
            static_cast<std::streamsize>(back.size() * sizeof(float)));
    ASSERT_TRUE(is.good()) << codec;
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_LE(std::fabs(back[i] - values[i]), eb * (1 + 1e-6)) << codec;
    }
  }
  // A dim the u16 header field cannot hold is refused, not truncated.
  EXPECT_EQ(run("compress cusz-like 0.01 65537 in.f32 s.dlcp").code, 1);
  // A full disk is a runtime error: the buffered stream meets it only
  // when it is flushed at close.
  if (fs::exists("/dev/full")) {
    const Outcome full = run("compress hybrid 0.05 16 in.f32 /dev/full");
    EXPECT_EQ(full.code, 1) << full.output;
    EXPECT_NE(full.output.find("/dev/full"), std::string::npos) << full.output;
  }
}

TEST_F(CliTest, DataConvertRefusesWidthsBeyondShardHeader) {
  {
    std::ofstream os(dir_ / "wide.tsv");
    os << "1";
    for (int i = 0; i < 65537; ++i) os << "\t0";
    os << "\tab\tcd\n";
  }
  const Outcome r = run("data convert wide.tsv out --dense 65537 --cat 2");
  EXPECT_EQ(r.code, 1) << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
  EXPECT_FALSE(fs::exists(dir_ / "out" / "shard_000000.dlshard"));
}

TEST_F(CliTest, ServeCodecNoneWithShardsWritesTraceAndManifest) {
  const Outcome r = run(
      "serve --codec none --shards 2 --queries 200 --qps 4000 --replicas 2 "
      "--trace s.trace.json --manifest-out s.run.json --label raw");
  ASSERT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("(none eb="), std::string::npos) << r.output;
  const Outcome diff = run("obs diff s.run.json s.run.json");
  EXPECT_EQ(diff.code, 0) << diff.output;
  EXPECT_NE(diff.output.find("raw"), std::string::npos) << diff.output;
  EXPECT_TRUE(fs::exists(dir_ / "s.trace.json"));
}

TEST_F(CliTest, ServeComparesAgainstTheShardedStoreByDefault) {
  const Outcome r = run("serve --queries 200 --qps 4000 --replicas 2");
  ASSERT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("\nstore: 4 shards,"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(hybrid eb=0.01)"), std::string::npos) << r.output;
}

TEST_F(CliTest, TcpTrainingWritesRankZeroTrace) {
  const Outcome r = run("train --backend tcp --world 2 --iters 2 --trace t.json");
  ASSERT_EQ(r.code, 0) << r.output;
  const Outcome diff = run("obs diff t.json t.json");
  ASSERT_EQ(diff.code, 0) << diff.output;
  std::size_t trace_keys = 0;
  for (const auto& [key, value] : load_comparable_metrics((dir_ / "t.json").string())) {
    trace_keys += key.rfind("trace/", 0) == 0 && value > 0;
  }
  EXPECT_GT(trace_keys, 0u);
}

}  // namespace
}  // namespace dlcomp
