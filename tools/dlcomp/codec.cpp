// Codec commands: .f32 <-> .dlcp files, stream headers, offline analysis.

#include <cstring>

#include "cli.hpp"
#include "common/file_io.hpp"
#include "compress/format.hpp"
#include "compress/registry.hpp"
#include "core/offline_analyzer.hpp"
#include "core/report_io.hpp"
#include "data/synthetic.hpp"

namespace dlcomp::cli {
namespace {

int cmd_compress(const ArgParser& args) {
  const Compressor& codec = get_compressor(args.positional(0));
  CompressParams params;
  params.error_bound = parse_double("<eb>", args.positional(1));
  params.vector_dim = parse_u64("<dim>", args.positional(2));

  const auto raw = read_file(args.positional(3));
  DLCOMP_CHECK_MSG(raw.size() % sizeof(float) == 0, "input size is not a multiple of 4 bytes");
  std::vector<float> values(raw.size() / sizeof(float));
  std::memcpy(values.data(), raw.data(), raw.size());

  std::vector<std::byte> stream;
  const CompressionStats stats = codec.compress(values, params, stream);
  write_file(args.positional(4), stream);

  std::printf("%s: %zu -> %zu bytes (%.2fx) in %.1f ms\n",
              args.positional(0).c_str(), stats.input_bytes,
              stats.output_bytes, stats.ratio(), stats.seconds * 1e3);
  return 0;
}

int cmd_decompress(const ArgParser& args) {
  const auto stream = read_file(args.positional(0));
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  const Compressor& codec = get_compressor(header.codec);

  std::vector<float> values(header.element_count);
  codec.decompress(stream, values);

  write_file(args.positional(1), {reinterpret_cast<const std::byte*>(values.data()),
                                  values.size() * sizeof(float)});
  std::printf("decompressed %" PRIu64 " floats with %s (eb %.6g)\n", header.element_count,
              std::string(codec.name()).c_str(), header.effective_error_bound);
  return 0;
}

int cmd_inspect(const ArgParser& args) {
  const auto stream = read_file(args.positional(0));
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  std::printf("codec id:      %d\n", static_cast<int>(header.codec));
  std::printf("flags:         0x%02x%s\n", header.flags,
              (header.flags & kFlagStoredRaw) ? " (stored raw)" : "");
  std::printf("vector dim:    %u\n", header.vector_dim);
  std::printf("elements:      %" PRIu64 "\n", header.element_count);
  std::printf("error bound:   %.6g\n", header.effective_error_bound);
  std::printf("payload bytes: %" PRIu64 "\n", header.payload_bytes);
  std::printf("ratio:         %.2fx\n",
              static_cast<double>(header.element_count * sizeof(float)) /
                  static_cast<double>(stream.size()));
  return 0;
}

int cmd_analyze(const ArgParser& args) {
  const std::string which = args.positional(0);
  const DatasetSpec spec = spec_by_name(which, 50000);
  const SyntheticClickDataset dataset(spec, 2024);
  const auto tables = make_embedding_set(spec, 2024);

  AnalyzerConfig config;
  config.sample_batches = 4;
  config.sampling_eb = args.positionals().size() == 3
                           ? parse_double("[sampling-eb]", args.positional(2))
                           : (which == "kaggle" ? 0.01 : 0.005);
  const CompressionPlan plan = make_plan(OfflineAnalyzer(config).analyze(dataset, tables));
  save_plan(args.positional(1), plan);
  std::printf("analyzed %zu tables of %s; plan written to %s\n",
              plan.tables.size(), spec.name.c_str(), args.positional(1).c_str());
  return 0;
}

int cmd_codecs(const ArgParser&) {
  std::printf("registered codecs:\n");
  for (const auto name : all_compressor_names()) {
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                get_compressor(name).lossy() ? "lossy (error-bounded or fixed-rate)"
                                             : "lossless");
  }
  return 0;
}

}  // namespace

extern const Command kCompress{
    "compress", "<codec> <eb> <dim> <in.f32> <out.dlcp>", {}, cmd_compress,
    "compresses raw little-endian float32 (numpy tofile()) at absolute\n"
    "error bound <eb>; <dim> is the vector length, at most 65535"};
extern const Command kDecompress{
    "decompress", "<in.dlcp> <out.f32>", {}, cmd_decompress,
    "decodes a stream with the codec named by its header"};
extern const Command kInspect{"inspect", "<in.dlcp>", {}, cmd_inspect, "prints a stream's header"};
extern const Command kAnalyze{
    "analyze", "<kaggle|terabyte|small> <plan-out.txt> [sampling-eb]", {},
    cmd_analyze, "writes the per-table compression plan of a synthetic workload"};
extern const Command kCodecs{"codecs", "", {}, cmd_codecs, "lists the registered codecs"};

}  // namespace dlcomp::cli
