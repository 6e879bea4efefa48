// Reproduces Fig. 15: normalized time of chunked compression with and
// without the buffer optimization, sweeping EMB tensor sizes and chunk
// counts (2..16 = the distributed-training RANK count). Reports both the
// modelled GPU time (kernel launches + gather copies, the paper's
// mechanism) and the measured CPU wall time of this substrate.
//
// Optimized path: one BlockEngine batch over every chunk -- one launch
// into one staging buffer, no gather. Naive path: one codec call per chunk
// into its own buffer, then a gather copy of every compressed byte into
// the send buffer -- one launch per chunk.

#include <cstring>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "parallel/device_model.hpp"

int main() {
  using namespace dlcomp;
  using namespace dlcomp::bench;
  banner("bench_fig15_buffer_optimization",
         "Fig. 15: single-kernel buffer optimization vs per-chunk launches");

  ThreadPool pool;
  const Compressor& codec = get_compressor("vector-lz");
  BlockEngine engine(codec, &pool);
  const DeviceModel device;
  const double codec_bps = calibrated_throughput("vector-lz").compress_bps;
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;

  const std::vector<std::size_t> tensor_mb = full_scale()
                                                 ? std::vector<std::size_t>{1, 8, 64}
                                                 : std::vector<std::size_t>{1, 8};
  const std::vector<std::size_t> chunk_counts = {2, 4, 8, 16};

  TablePrinter table({"EMB tensor", "chunks", "naive modeled (us)",
                      "single_comp modeled (us)", "modeled speedup",
                      "naive wall (ms)", "single_comp wall (ms)",
                      "wall speedup"});

  Rng rng(5);
  for (const std::size_t mb : tensor_mb) {
    const std::size_t total_elems = mb * 1024 * 1024 / sizeof(float);
    std::vector<float> tensor(total_elems);
    // Repeated embedding vectors so the codec does realistic work.
    std::vector<float> pool_vec(32);
    for (std::size_t i = 0; i < tensor.size(); ++i) {
      if (i % 32 == 0 && rng.bernoulli(0.3)) {
        for (auto& v : pool_vec) v = static_cast<float>(rng.normal(0.0, 0.2));
      }
      tensor[i] = pool_vec[i % 32];
    }

    for (const std::size_t chunks : chunk_counts) {
      const std::size_t per_chunk = total_elems / chunks;
      const std::size_t input_bytes = chunks * per_chunk * sizeof(float);
      const auto chunk = [&](std::size_t c) {
        return std::span<const float>(tensor).subspan(c * per_chunk,
                                                      per_chunk);
      };

      WallTimer optimized_timer;
      engine.compress_begin();
      std::vector<std::size_t> slots;
      for (std::size_t c = 0; c < chunks; ++c) {
        slots.push_back(engine.add_tensor(chunk(c), params));
      }
      engine.compress_run();
      std::vector<std::byte> send_buffer;
      for (const std::size_t slot : slots) {
        engine.append_stream(slot, send_buffer);
      }
      const double optimized_wall = optimized_timer.seconds();

      WallTimer naive_timer;
      std::vector<std::vector<std::byte>> pieces(chunks);
      std::size_t gathered = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        codec.compress(chunk(c), params, pieces[c]);
        gathered += pieces[c].size();
      }
      std::vector<std::byte> naive_buffer(gathered);
      std::size_t offset = 0;
      for (const auto& piece : pieces) {
        std::memcpy(naive_buffer.data() + offset, piece.data(), piece.size());
        offset += piece.size();
      }
      const double naive_wall = naive_timer.seconds();

      const double opt_model = device.codec_seconds(1, input_bytes, codec_bps);
      const double naive_model =
          device.codec_seconds(chunks, input_bytes, codec_bps) +
          device.copy_seconds(gathered);
      table.add_row(
          {std::to_string(mb) + " MB", std::to_string(chunks),
           TablePrinter::num(naive_model * 1e6, 1),
           TablePrinter::num(opt_model * 1e6, 1),
           TablePrinter::num(naive_model / opt_model, 2) + "x",
           TablePrinter::num(naive_wall * 1e3, 2),
           TablePrinter::num(optimized_wall * 1e3, 2),
           TablePrinter::num(naive_wall / optimized_wall, 2) + "x"});
    }
  }
  table.print(std::cout);
  std::cout << "paper: up to 2.04x speedup; the gain grows with chunk count "
               "and shrinks as per-chunk volume gets large enough to hide "
               "launch overhead (8 MB blocks beat 64 MB blocks by 1.86x)\n"
            << "expected shape: the *modeled* speedup is the Fig. 15 "
               "quantity (launch overhead + gather copies are GPU costs); "
               "it increases with chunk count and decreases with tensor "
               "size. Wall columns show this CPU substrate: the pooled "
               "path only wins wall time on multi-core hosts (this machine "
               "has " +
                   std::to_string(std::thread::hardware_concurrency()) +
                   " hardware thread(s))\n";
  return 0;
}
