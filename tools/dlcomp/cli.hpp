#pragma once

/// \file cli.hpp
/// Shared pieces of the `dlcomp` CLI. Each subcommand is one Command
/// row; main.cpp dispatches on the rows and generates usage, `--help`
/// and the positional-arity check from them.

#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "data/dataset_spec.hpp"
#include "obs/metrics.hpp"

namespace dlcomp::cli {

struct Command {
  const char* name;      ///< "train", or "<family> <verb>" such as "ckpt save"
  const char* synopsis;  ///< positionals: `<required>` and `[optional]` words
  std::span<const FlagSpec> flags;
  int (*run)(const ArgParser& args);
  const char* about;
};

extern const Command kCompress, kDecompress, kInspect, kAnalyze, kCodecs,
    kTrain, kServe, kObsDiff, kCkptSave, kCkptInspect, kCkptVerify, kCkptDiff,
    kDataConvert, kDataInspect, kDataStats;

std::vector<std::byte> read_file(const std::string& path);

/// kaggle | terabyte (tables capped at `rows`) | small.
DatasetSpec spec_by_name(const std::string& which, std::size_t rows = 20000);

/// `--codec NAME|none`: "" for none, else a registered name (unknown
/// names throw here, before any work runs).
std::string codec_flag(const ArgParser& args);

/// Before a run: fails unless the directory of every output flag given
/// exists; starts the tracer when `tracing` and --trace is set.
void begin_run(const ArgParser& args, bool tracing);

/// After a run: writes --trace and the --manifest-out run manifest
/// (process-global metrics folded in; `config` holds every flag's value).
void finish_run(const ArgParser& args, const char* mode, MetricsSnapshot metrics);

}  // namespace dlcomp::cli
