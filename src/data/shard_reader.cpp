#include "data/shard_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace dlcomp {

namespace {

constexpr std::uint64_t kShuffleSeed = 0x5EED;
constexpr std::uint64_t kEpochShuffleTag = 0xE70C5;
/// The eval holdout is the file-order tail of one shard in ten (at least
/// one, and never every shard).
constexpr std::size_t kShardsPerEvalShard = 10;
/// Epoch orders cached per reader; batches touch at most two epochs, and
/// concurrent rank threads share the same few epochs.
constexpr std::size_t kEpochCacheSize = 4;

/// Reads `count` bytes from the head of `path` (the header scan).
std::vector<std::byte> read_file_head(const std::string& path,
                                      std::size_t count) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error("cannot open shard: " + path);
  std::vector<std::byte> data(count);
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(count));
  data.resize(static_cast<std::size_t>(is.gcount()));
  return data;
}

/// Copies `run` consecutive samples starting at `local` of `view` into
/// `out` rows [row, row+run), folding categorical ids into the tables'
/// index spaces.
void copy_shard_rows(const ShardView& view, std::size_t local,
                     std::size_t run, std::size_t row, SampleBatch& out,
                     std::span<const std::uint32_t> cardinality) {
  std::memcpy(out.labels.data() + row, view.labels.data() + local,
              run * sizeof(float));
  const std::size_t num_dense = view.header.num_dense;
  std::memcpy(out.dense.data() + row * num_dense,
              view.dense.data() + local * num_dense,
              run * num_dense * sizeof(float));
  const std::size_t n = view.header.sample_count;
  for (std::size_t t = 0; t < cardinality.size(); ++t) {
    const std::uint32_t* src = view.categorical.data() + t * n + local;
    std::uint32_t* dst = out.indices[t].data() + row;
    const std::uint32_t card = cardinality[t];
    for (std::size_t k = 0; k < run; ++k) dst[k] = src[k] % card;
  }
}

/// Shapes `out` for (batch_size x spec), reusing capacity, and returns
/// the number of buffers whose capacity had to grow.
std::uint64_t shape_batch(SampleBatch& out, std::size_t batch_size,
                          const DatasetSpec& spec) {
  std::uint64_t grew = 0;
  const std::size_t tables = spec.num_tables();

  if (out.labels.capacity() < batch_size) ++grew;
  out.labels.resize(batch_size);
  // Matrix::resize zero-fills; skip it when the shape already matches --
  // the copy loop overwrites every element, and the memset would roughly
  // double the dense-write cost of the steady-state path.
  if (out.dense.rows() != batch_size || out.dense.cols() != spec.num_dense) {
    if (out.dense.capacity() < batch_size * spec.num_dense) ++grew;
    out.dense.resize(batch_size, spec.num_dense);
  }
  if (out.indices.capacity() < tables) ++grew;
  out.indices.resize(tables);
  for (auto& column : out.indices) {
    if (column.capacity() < batch_size) ++grew;
    column.resize(batch_size);
  }
  return grew;
}

}  // namespace

// ---------------------------------------------------------------- loading

/// A shard mmap'ed into memory, plus CRC-verified views into it.
struct ShardedDatasetReader::LoadedShard {
  const std::byte* map_base = nullptr;
  std::size_t map_bytes = 0;
  ShardView view;

  LoadedShard() = default;
  LoadedShard(const LoadedShard&) = delete;
  LoadedShard& operator=(const LoadedShard&) = delete;
  ~LoadedShard() {
    if (map_base != nullptr) {
      ::munmap(const_cast<std::byte*>(map_base), map_bytes);
    }
  }
};

struct ShardedDatasetReader::Slot {
  std::mutex mutex;
  std::atomic<const LoadedShard*> loaded{nullptr};
  std::unique_ptr<LoadedShard> storage;
};

ShardedDatasetReader::ShardedDatasetReader(DatasetSpec spec,
                                           const std::string& directory)
    : spec_(std::move(spec)) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(directory)) {
    throw Error("shard directory does not exist: " + directory);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".dlshard") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    throw Error("no .dlshard files in: " + directory);
  }

  cardinality_.reserve(spec_.num_tables());
  for (const auto& table : spec_.tables) {
    DLCOMP_CHECK_MSG(table.cardinality > 0, "table cardinality must be > 0");
    cardinality_.push_back(static_cast<std::uint32_t>(
        std::min<std::size_t>(table.cardinality, UINT32_MAX)));
  }

  // Header scan: shape validation + the file-order prefix sums.
  for (const auto& path : paths) {
    const auto head = read_file_head(path, 24);
    ByteReader reader(head);
    const ShardHeader header = parse_shard_header(reader);
    if (header.num_dense != spec_.num_dense ||
        header.num_cat != spec_.num_tables()) {
      throw FormatError(
          path + ": shard shape (" + std::to_string(header.num_dense) + " dense, " +
          std::to_string(header.num_cat) + " tables) does not match spec (" +
          std::to_string(spec_.num_dense) + ", " +
          std::to_string(spec_.num_tables()) + ")");
    }
    if (header.sample_count == 0) {
      ++empty_shards_;
      continue;
    }
    ShardInfo info;
    info.path = path;
    info.samples = header.sample_count;
    info.file_bytes = std::filesystem::file_size(path);
    info.first_sample = 0;  // patched below once all shards are known
    shards_.push_back(std::move(info));
  }
  if (shards_.empty()) {
    throw Error("all shards in " + directory + " are empty");
  }
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s].first_sample =
        shards_[s - 1].first_sample + shards_[s - 1].samples;
  }

  slots_ = std::vector<Slot>(shards_.size());

  // Eval holdout: the file-order tail of shards, so held-out metrics
  // (trainer eval) never see training samples. Impossible
  // with a single shard -- then eval falls back to the training set.
  std::size_t eval_shards = 0;
  if (shards_.size() > 1) {
    eval_shards = std::clamp<std::size_t>(shards_.size() / kShardsPerEvalShard, 1,
                                          shards_.size() - 1);
  }
  const std::size_t train_shards = shards_.size() - eval_shards;

  const auto make_order = [&](std::size_t first, std::size_t count) {
    auto order = std::make_shared<EpochOrder>();
    order->shard_order.resize(count);
    order->prefix.resize(count + 1, 0);
    for (std::size_t s = 0; s < count; ++s) {
      order->shard_order[s] = static_cast<std::uint32_t>(first + s);
      order->prefix[s + 1] = order->prefix[s] + shards_[first + s].samples;
    }
    return order;
  };
  file_order_ = make_order(0, train_shards);
  train_samples_ = file_order_->prefix.back();
  eval_order_ = eval_shards > 0 ? make_order(train_shards, eval_shards)
                                : file_order_;
}

ShardedDatasetReader::~ShardedDatasetReader() = default;

const ShardedDatasetReader::LoadedShard& ShardedDatasetReader::shard(
    std::size_t index) const {
  Slot& slot = slots_[index];
  const LoadedShard* loaded = slot.loaded.load(std::memory_order_acquire);
  if (loaded != nullptr) return *loaded;

  const std::lock_guard<std::mutex> lock(slot.mutex);
  loaded = slot.loaded.load(std::memory_order_relaxed);
  if (loaded != nullptr) return *loaded;

  auto shard = std::make_unique<LoadedShard>();
  const ShardInfo& info = shards_[index];
  const int fd = ::open(info.path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("cannot open shard: " + info.path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw Error("cannot stat shard: " + info.path);
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw Error("mmap failed: " + info.path);
  shard->map_base = static_cast<const std::byte*>(base);
  shard->map_bytes = static_cast<std::size_t>(st.st_size);
  shard->view = decode_shard({shard->map_base, shard->map_bytes});
  static Counter& crc_verifies =
      MetricsRegistry::global().counter("data/shard_crc_verifies");
  crc_verifies.add();
  if (shard->view.header.sample_count != info.samples) {
    throw FormatError(info.path + ": sample count changed since open");
  }

  slot.storage = std::move(shard);
  slot.loaded.store(slot.storage.get(), std::memory_order_release);
  return *slot.storage;
}

// ------------------------------------------------------------- epoch order

std::shared_ptr<const ShardedDatasetReader::EpochOrder>
ShardedDatasetReader::epoch_order(std::uint64_t epoch) const {
  const std::lock_guard<std::mutex> lock(epoch_mutex_);
  for (const auto& [cached_epoch, order] : epoch_cache_) {
    if (cached_epoch == epoch) return order;
  }
  auto order = std::make_shared<EpochOrder>(*file_order_);
  Rng rng = Rng(kShuffleSeed).fork({kEpochShuffleTag, epoch});
  rng.shuffle(std::span<std::uint32_t>(order->shard_order));
  for (std::size_t s = 0; s < order->shard_order.size(); ++s) {
    order->prefix[s + 1] =
        order->prefix[s] + shards_[order->shard_order[s]].samples;
  }
  if (epoch_cache_.size() >= kEpochCacheSize) {
    epoch_cache_.erase(epoch_cache_.begin());
  }
  epoch_cache_.emplace_back(epoch, order);
  return order;
}

// ------------------------------------------------------------ batch filling

void ShardedDatasetReader::fill_impl(std::size_t batch_size,
                                     std::uint64_t batch_index,
                                     SampleBatch& out, bool training) const {
  DLCOMP_CHECK(batch_size > 0);
  const std::uint64_t grew = shape_batch(out, batch_size, spec_);
  if (grew > 0) grow_events_.fetch_add(grew, std::memory_order_relaxed);

  const std::uint64_t total =
      (training ? file_order_ : eval_order_)->prefix.back();
  std::shared_ptr<const EpochOrder> order;
  std::uint64_t order_epoch = 0;
  std::uint64_t global = batch_index * batch_size;
  std::size_t row = 0;
  while (row < batch_size) {
    const std::uint64_t epoch = global / total;
    const std::uint64_t offset = global % total;
    if (order == nullptr || epoch != order_epoch) {
      order = training ? epoch_order(epoch) : eval_order_;
      order_epoch = epoch;
    }
    // Largest p with prefix[p] <= offset.
    const auto it = std::upper_bound(order->prefix.begin(),
                                     order->prefix.end(), offset);
    const auto pos = static_cast<std::size_t>(it - order->prefix.begin()) - 1;
    const std::uint32_t shard_id = order->shard_order[pos];
    const std::size_t local = static_cast<std::size_t>(offset - order->prefix[pos]);
    const LoadedShard& loaded = shard(shard_id);

    const std::size_t run = std::min(batch_size - row,
                                     static_cast<std::size_t>(
                                         loaded.view.sample_count() - local));
    copy_shard_rows(loaded.view, local, run, row, out, cardinality_);
    row += run;
    global += run;
  }
}

void ShardedDatasetReader::fill_batch(std::size_t batch_size,
                                      std::uint64_t batch_index,
                                      SampleBatch& out) const {
  fill_impl(batch_size, batch_index, out, /*training=*/true);
}

SampleBatch ShardedDatasetReader::make_batch(std::size_t batch_size,
                                             std::uint64_t batch_index) const {
  SampleBatch batch;
  fill_impl(batch_size, batch_index, batch, /*training=*/true);
  return batch;
}

SampleBatch ShardedDatasetReader::make_eval_batch(
    std::size_t batch_size, std::uint64_t batch_index) const {
  SampleBatch batch;
  fill_impl(batch_size, batch_index, batch, /*training=*/false);
  return batch;
}

}  // namespace dlcomp
