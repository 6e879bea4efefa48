// Tests for the BlockEngine: blocked multi-tensor compression, its DLBK
// framing, both readers of it, and its raw (null codec) mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "compress/registry.hpp"

namespace dlcomp {
namespace {

std::vector<std::vector<std::byte>> engine_compress(
    const Compressor* codec, ThreadPool* pool, std::size_t block_elems,
    const std::vector<std::vector<float>>& tensors,
    const CompressParams& params) {
  BlockEngine engine(codec, pool, block_elems);
  engine.compress_begin();
  std::vector<std::size_t> slots;
  for (const auto& tensor : tensors) {
    slots.push_back(engine.add_tensor(tensor, params));
  }
  engine.compress_run();
  std::vector<std::vector<std::byte>> streams;
  for (const std::size_t slot : slots) {
    std::vector<std::byte> bytes;
    engine.append_stream(slot, bytes);
    streams.push_back(std::move(bytes));
  }
  return streams;
}

TEST(BlockEngine, StreamsIdenticalAcrossThreadCounts) {
  // Wire bytes must depend only on (input, params, block size) — never on
  // pool width or scheduling. Mixed sizes: a multi-block tensor, an
  // exactly-one-block tensor, a sub-block tensor and a tail that is not a
  // multiple of the block size.
  const std::size_t block = 1024;
  std::vector<std::vector<float>> tensors;
  Rng rng(21);
  for (const std::size_t n :
       {block * 3 + 517, block, std::size_t{96}, block * 2}) {
    std::vector<float> tensor(n);
    for (auto& v : tensor) v = static_cast<float>(rng.normal(0.0, 0.2));
    tensors.push_back(std::move(tensor));
  }
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 16;

  for (const char* name : {"huffman", "hybrid", "vector-lz"}) {
    const Compressor& codec = get_compressor(name);
    const auto want = engine_compress(&codec, nullptr, block, tensors, params);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const auto got = engine_compress(&codec, &pool, block, tensors, params);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << name << " tensor " << i << " differs at " << threads
            << " threads";
      }
    }
    // Framing: multi-block tensors are DLBK containers, at-or-below-block
    // tensors are plain streams byte-identical to a direct codec call.
    EXPECT_TRUE(BlockEngine::is_blocked(want[0]));
    EXPECT_FALSE(BlockEngine::is_blocked(want[1]));
    EXPECT_FALSE(BlockEngine::is_blocked(want[2]));
    EXPECT_TRUE(BlockEngine::is_blocked(want[3]));
    std::vector<std::byte> direct;
    codec.compress(tensors[1], params, direct);
    EXPECT_EQ(want[1], direct) << name;
    EXPECT_EQ(decompressed_count(want[0]), tensors[0].size()) << name;
  }

  // Raw mode, with one more tensor above the default block size: every
  // stream is exactly the tensor's float32 bytes (never a DLBK
  // container) at every pool width.
  std::vector<float> large(BlockEngine::kDefaultBlockElems + 517);
  for (auto& v : large) v = static_cast<float>(rng.normal(0.0, 0.2));
  tensors.push_back(std::move(large));
  const std::size_t default_block = BlockEngine::kDefaultBlockElems;
  const auto raw = engine_compress(nullptr, nullptr, default_block, tensors,
                                   params);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(engine_compress(nullptr, &pool, default_block, tensors, params),
              raw)
        << "raw streams differ at " << threads << " threads";
  }
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_FALSE(BlockEngine::is_blocked(raw[i])) << "raw tensor " << i;
    EXPECT_TRUE(std::ranges::equal(
        raw[i], std::as_bytes(std::span<const float>(tensors[i]))))
        << "raw tensor " << i;
  }
}

TEST(BlockEngine, RoundTripsThroughEngineAndSerialReader) {
  const std::size_t block = 1024;
  std::vector<std::vector<float>> tensors;
  Rng rng(22);
  for (const std::size_t n : {block * 5 + 99, std::size_t{33}}) {
    std::vector<float> tensor(n);
    for (auto& v : tensor) v = static_cast<float>(rng.normal(0.0, 0.2));
    tensors.push_back(std::move(tensor));
  }
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 16;
  for (const char* name : {"huffman", "cusz-like", "hybrid", ""}) {
    const Compressor* codec = *name != '\0' ? &get_compressor(name) : nullptr;
    const double tolerance = codec != nullptr ? 0.0101 : 0.0;
    ThreadPool pool(4);
    const auto streams = engine_compress(codec, &pool, block, tensors, params);

    // Parallel reader (engine decompress batch).
    BlockEngine engine(codec, &pool, block);
    engine.decompress_begin();
    std::vector<std::vector<float>> outputs;
    for (const auto& tensor : tensors) outputs.emplace_back(tensor.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      engine.add_stream(streams[i], outputs[i]);
    }
    engine.decompress_run();

    // Serial reader (checkpoint-style blocked_decompress).
    CompressionWorkspace ws;
    std::vector<std::vector<float>> serial_outputs;
    for (const auto& tensor : tensors) {
      serial_outputs.emplace_back(tensor.size());
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      blocked_decompress(codec, streams[i], serial_outputs[i], ws);
    }

    // Writer-side reconstruction (recon spans, block by block on the
    // lanes): what a reader decodes, with its measured error.
    BlockEngine writer(codec, &pool, block);
    writer.compress_begin();
    std::vector<std::vector<float>> recons;
    for (const auto& tensor : tensors) recons.emplace_back(tensor.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      (void)writer.add_tensor(tensors[i], params, recons[i]);
    }
    writer.compress_run();

    for (std::size_t i = 0; i < tensors.size(); ++i) {
      EXPECT_LE(writer.max_abs_error(i), tolerance) << name << " tensor " << i;
      for (std::size_t j = 0; j < tensors[i].size(); ++j) {
        ASSERT_LE(std::fabs(outputs[i][j] - tensors[i][j]), tolerance)
            << name << " tensor " << i << " elem " << j;
        ASSERT_EQ(outputs[i][j], serial_outputs[i][j])
            << name << " serial/parallel reader divergence";
        ASSERT_EQ(recons[i][j], outputs[i][j])
            << name << " writer reconstruction differs from the reader";
      }
    }
  }
}

TEST(BlockEngine, PerElementQuantizerBlockedMatchesMonolithicBitExactly) {
  // "huffman" quantizes per element (no cross-element prediction), so
  // splitting cannot change any reconstructed value: blocked and
  // monolithic round-trips must agree bit-for-bit. This also pins the
  // whole-tensor resolution of range-relative bounds — a per-block
  // resolve would quantize the two halves differently.
  const std::size_t block = 1024;
  std::vector<float> tensor(block * 4 + 100);
  Rng rng(23);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const double scale = i < tensor.size() / 2 ? 0.1 : 10.0;
    tensor[i] = static_cast<float>(rng.normal(0.0, scale));
  }
  CompressParams params;
  params.error_bound = 1e-3;
  params.eb_mode = EbMode::kRangeRelative;
  params.vector_dim = 16;

  const Compressor& codec = get_compressor("huffman");
  std::vector<std::byte> mono_stream;
  codec.compress(tensor, params, mono_stream);
  std::vector<float> mono_out(tensor.size());
  codec.decompress(mono_stream, mono_out);

  ThreadPool pool(4);
  const auto streams =
      engine_compress(&codec, &pool, block, {tensor}, params);
  ASSERT_TRUE(BlockEngine::is_blocked(streams[0]));
  CompressionWorkspace ws;
  std::vector<float> blocked_out(tensor.size());
  blocked_decompress(&codec, streams[0], blocked_out, ws);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    ASSERT_EQ(mono_out[i], blocked_out[i]) << "elem " << i;
  }
}

TEST(BlockEngine, GrowEventsFlattenAfterWarmup) {
  const std::size_t block = 1024;
  std::vector<float> tensor(block * 6 + 11);
  Rng rng(24);
  for (auto& v : tensor) v = static_cast<float>(rng.normal(0.0, 0.2));
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 16;

  ThreadPool pool(4);
  BlockEngine engine(&get_compressor("hybrid"), &pool, block);
  std::vector<float> out(tensor.size());
  auto round = [&] {
    engine.compress_begin();
    const std::size_t slot = engine.add_tensor(tensor, params);
    engine.compress_run();
    std::vector<std::byte> stream;
    stream.reserve(engine.stream_bytes(slot));
    engine.append_stream(slot, stream);
    engine.decompress_begin();
    engine.add_stream(stream, out);
    engine.decompress_run();
  };
  round();
  round();  // warm-up
  const std::uint64_t grow = engine.grow_events();
  const std::size_t capacity = engine.capacity_bytes();
  EXPECT_GT(capacity, 0u);
  for (int i = 0; i < 5; ++i) round();
  EXPECT_EQ(engine.grow_events(), grow)
      << "steady-state blocked codec path allocated";
  EXPECT_EQ(engine.capacity_bytes(), capacity);
  EXPECT_EQ(engine.blocks_compressed(), engine.blocks_decompressed());
  EXPECT_EQ(engine.blocks_compressed(), 7u * 7u);  // 7 rounds x 7 blocks
}

TEST(BlockEngine, ExceptionsPropagateThroughThePool) {
  // Non-finite values in a middle block must surface as the usual Error
  // from compress_run, not crash a worker.
  const std::size_t block = 1024;
  std::vector<float> tensor(block * 4, 0.25f);
  tensor[2 * block + 7] = std::numeric_limits<float>::quiet_NaN();
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 16;
  ThreadPool pool(4);
  BlockEngine engine(&get_compressor("huffman"), &pool, block);
  engine.compress_begin();
  engine.add_tensor(tensor, params);
  EXPECT_THROW(engine.compress_run(), Error);
}

TEST(BlockEngine, MalformedContainersAreRejected) {
  const std::size_t block = 1024;
  std::vector<float> tensor(block * 3);
  Rng rng(25);
  for (auto& v : tensor) v = static_cast<float>(rng.normal(0.0, 0.2));
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 16;
  const Compressor& codec = get_compressor("huffman");
  const auto streams =
      engine_compress(&codec, nullptr, block, {tensor}, params);
  const std::vector<std::byte>& good = streams[0];
  ASSERT_TRUE(BlockEngine::is_blocked(good));

  // Both readers (serial blocked_decompress and the engine's add_stream)
  // must reject every case, and the engine must register nothing.
  std::vector<float> out(tensor.size());
  const auto expect_rejected = [&](const std::vector<std::byte>& bad,
                                   std::span<float> dest,
                                   const Compressor* reader) {
    CompressionWorkspace ws;
    EXPECT_THROW(blocked_decompress(reader, bad, dest, ws), FormatError);
    BlockEngine engine(reader, nullptr, block);
    engine.decompress_begin();
    EXPECT_THROW(engine.add_stream(bad, dest), FormatError);
    engine.decompress_run();
    EXPECT_EQ(engine.blocks_decompressed(), 0u);
  };

  {  // truncated fixed header
    expect_rejected({good.begin(), good.begin() + 16}, out, &codec);
  }
  {  // unknown container version
    std::vector<std::byte> bad = good;
    bad[4] = std::byte{0x7F};
    expect_rejected(bad, out, &codec);
  }
  {  // directory sum disagrees with the remaining payload
    std::vector<std::byte> bad = good;
    bad.pop_back();
    expect_rejected(bad, out, &codec);
  }
  {  // directory entries whose sum wraps around to the payload size
    std::vector<std::byte> bad = good;
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    std::memcpy(&first, bad.data() + 32, sizeof(first));
    std::memcpy(&second, bad.data() + 40, sizeof(second));
    second += first + 1;
    first = ~std::uint64_t{0};
    std::memcpy(bad.data() + 32, &first, sizeof(first));
    std::memcpy(bad.data() + 40, &second, sizeof(second));
    expect_rejected(bad, out, &codec);
  }
  {  // output span does not match the advertised element count
    std::vector<float> wrong(tensor.size() - 1);
    expect_rejected(good, wrong, &codec);
  }
  {  // raw mode: a stream one float short of its output
    const auto raw = std::as_bytes(std::span<const float>(tensor));
    expect_rejected({raw.begin(), raw.end() - sizeof(float)}, out, nullptr);
  }
}

TEST(BlockEngine, EmptyBatch) {
  ThreadPool pool(2);
  BlockEngine engine(&get_compressor("huffman"), &pool);
  engine.compress_begin();
  engine.compress_run();
  engine.decompress_begin();
  engine.decompress_run();
  EXPECT_EQ(engine.blocks_compressed(), 0u);
  EXPECT_EQ(engine.blocks_decompressed(), 0u);
}

TEST(BlockEngine, WorstCaseBoundIsSufficientForRandomData) {
  // Incompressible data must still fit the worst-case-spaced staging
  // buffer, both as whole tensors and as blocks of a larger one.
  Rng rng(6);
  std::vector<float> tensor(4096);
  for (auto& v : tensor) v = rng.uniform_float(-100.0f, 100.0f);
  CompressParams params;
  params.error_bound = 1e-6;  // enormous code alphabet
  params.vector_dim = 32;
  for (const std::size_t block : {BlockEngine::kDefaultBlockElems,
                                  std::size_t{1024}}) {
    BlockEngine engine(&get_compressor("huffman"), nullptr, block);
    engine.compress_begin();
    for (int i = 0; i < 4; ++i) engine.add_tensor(tensor, params);
    EXPECT_NO_THROW(engine.compress_run()) << "block " << block;
    EXPECT_GT(engine.stream_bytes(3), 0u);
  }
}

}  // namespace
}  // namespace dlcomp
