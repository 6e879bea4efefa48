// Integration tests for the hybrid-parallel trainer: distributed
// equivalence with single-process training, convergence under
// compression, and breakdown accounting.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include <cmath>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "common/net.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

DatasetSpec proxy_spec() { return DatasetSpec::small_training_proxy(6, 8); }

TrainerConfig base_config() {
  TrainerConfig config;
  config.world = 2;
  config.global_batch = 64;
  config.iterations = 30;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.05f;
  config.record_every = 1;
  config.eval_batches = 4;
  config.seed = 9;
  return config;
}

TEST(Trainer, WorldOneMatchesSingleProcessExactly) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 5);

  TrainerConfig config = base_config();
  config.world = 1;
  config.iterations = 10;
  config.compression.codec.clear();
  HybridParallelTrainer trainer(config);
  const TrainingResult distributed = trainer.train(data);

  DlrmConfig model_config = config.model;
  DlrmModel reference(spec, model_config, config.seed);
  std::vector<double> reference_losses;
  for (std::size_t i = 0; i < config.iterations; ++i) {
    const SampleBatch batch = data.make_batch(config.global_batch, i);
    reference_losses.push_back(reference.train_step(batch).loss);
  }

  ASSERT_EQ(distributed.history.size(), config.iterations);
  for (std::size_t i = 0; i < config.iterations; ++i) {
    ASSERT_DOUBLE_EQ(distributed.history[i].train_loss, reference_losses[i])
        << "iteration " << i;
  }
}

TEST(Trainer, MultiRankMatchesSingleProcessClosely) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 5);

  TrainerConfig config = base_config();
  config.world = 4;
  config.iterations = 15;
  config.compression.codec.clear();
  HybridParallelTrainer trainer(config);
  const TrainingResult distributed = trainer.train(data);

  DlrmModel reference(spec, config.model, config.seed);
  LossResult ref_final;
  for (std::size_t i = 0; i < config.iterations; ++i) {
    const SampleBatch batch = data.make_batch(config.global_batch, i);
    ref_final = reference.train_step(batch);
  }
  const LossResult ref_eval = reference.evaluate_stream(data, 64, 4);

  // Same math up to float summation order: evals agree tightly.
  EXPECT_NEAR(distributed.final_eval.loss, ref_eval.loss, 5e-3);
}

TEST(Trainer, DeterministicAcrossRuns) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 6);
  TrainerConfig config = base_config();
  config.compression.codec = "hybrid";
  config.compression.global_eb = 0.01;

  HybridParallelTrainer t1(config);
  HybridParallelTrainer t2(config);
  const TrainingResult r1 = t1.train(data);
  const TrainingResult r2 = t2.train(data);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    ASSERT_DOUBLE_EQ(r1.history[i].train_loss, r2.history[i].train_loss);
  }
  EXPECT_EQ(r1.forward_wire_bytes, r2.forward_wire_bytes);
}

TEST(Trainer, CompressionConvergesAndCompresses) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 7);
  TrainerConfig config = base_config();
  config.iterations = 250;
  config.compression.codec = "hybrid";
  config.compression.global_eb = 0.01;
  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(data);

  // Averaged train loss must fall and accuracy must be clearly above
  // chance (wide windows to smooth the per-batch noise).
  double early = 0.0;
  double late = 0.0;
  const std::size_t n = result.history.size();
  const std::size_t window = 60;
  for (std::size_t i = 0; i < window; ++i) early += result.history[i].train_loss;
  for (std::size_t i = n - window; i < n; ++i) late += result.history[i].train_loss;
  EXPECT_LT(late, early);
  EXPECT_GT(result.final_eval.accuracy, 0.6);

  // Real compression happened on both directions.
  EXPECT_GT(result.forward_cr(), 1.5);
  EXPECT_GT(result.backward_cr(), 1.0);
  EXPECT_GT(result.forward_raw_bytes, result.forward_wire_bytes);
}

TEST(Trainer, CompressedAccuracyWithinToleranceOfBaseline) {
  // The paper's headline accuracy claim, at test scale: compressed
  // training lands near uncompressed training.
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 8);

  TrainerConfig config = base_config();
  config.iterations = 150;

  config.compression.codec.clear();
  const TrainingResult baseline = HybridParallelTrainer(config).train(data);

  config.compression.codec = "hybrid";
  config.compression.global_eb = 0.01;
  const TrainingResult compressed = HybridParallelTrainer(config).train(data);

  EXPECT_NEAR(compressed.final_eval.accuracy, baseline.final_eval.accuracy,
              0.05);
}

TEST(Trainer, PhaseBreakdownPopulated) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 9);
  TrainerConfig config = base_config();
  config.iterations = 5;
  config.compression.codec = "hybrid";
  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(data);

  EXPECT_GT(result.makespan_seconds, 0.0);
  for (const char* phase :
       {phases::kBottomMlp, phases::kEmbLookup, phases::kAllToAllFwd,
        phases::kInteraction, phases::kTopMlp, phases::kAllToAllBwd,
        phases::kAllReduce, phases::kEmbUpdate}) {
    EXPECT_GT(result.phase_seconds.count(phase), 0u) << phase;
  }
  EXPECT_GT(result.phase_seconds.at(phases::kAllToAllFwd), 0.0);
}

TEST(Trainer, SchedulerScalesRecorded) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 10);
  TrainerConfig config = base_config();
  config.iterations = 40;
  config.compression.codec = "huffman";
  config.compression.scheduler = {.func = DecayFunc::kStepwise,
                                  .initial_scale = 2.0,
                                  .decay_end_iter = 20,
                                  .num_steps = 4};
  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(data);

  EXPECT_NEAR(result.history.front().eb_scale, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.history.back().eb_scale, 1.0);
}

TEST(Trainer, WorldLargerThanTableCount) {
  // Some ranks own zero tables; they must still participate cleanly.
  const DatasetSpec spec = DatasetSpec::small_training_proxy(3, 8);
  const SyntheticClickDataset data(spec, 11);
  TrainerConfig config = base_config();
  config.world = 5;
  config.global_batch = 50;
  config.iterations = 5;
  config.compression.codec = "huffman";
  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(data);
  EXPECT_EQ(result.history.back().iter, 4u);
  EXPECT_GT(result.forward_raw_bytes, 0u);
}

TEST(Trainer, PerTableErrorBoundsApplied) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 12);
  TrainerConfig config = base_config();
  config.iterations = 20;
  config.compression.codec = "huffman";
  // Generous bounds on all tables -> higher CR than a tight global bound.
  config.compression.table_eb.assign(spec.num_tables(), 0.05);
  const TrainingResult loose = HybridParallelTrainer(config).train(data);

  config.compression.table_eb.assign(spec.num_tables(), 0.005);
  const TrainingResult tight = HybridParallelTrainer(config).train(data);

  EXPECT_GT(loose.forward_cr(), tight.forward_cr());
}

TEST(Trainer, InvalidBatchSplitThrows) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 13);
  TrainerConfig config = base_config();
  config.world = 3;
  config.global_batch = 64;  // not divisible by 3
  HybridParallelTrainer trainer(config);
  EXPECT_THROW((void)trainer.train(data), Error);
}

TEST(Trainer, ZeroEvalBatchesThrows) {
  // Every run ends with a held-out eval, a mean over eval_batches; with
  // none it would report NaN, so the config is rejected up front.
  TrainerConfig config = base_config();
  config.eval_batches = 0;
  EXPECT_THROW(HybridParallelTrainer{config}, Error);
  config.eval_batches = 1;
  EXPECT_NO_THROW(HybridParallelTrainer{config});
}

TEST(Trainer, TcpBackendMatchesSimBitwise) {
  // World 4 as rank threads over a localhost TCP mesh, rank 0 inheriting
  // a pre-bound ephemeral listener like the multi-process launcher's
  // children do. Each TCP rank draws only the tables it owns; the others
  // start at zero, so the eval every 2 iterations reads peer tables that
  // only the eval sync has filled in.
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 15);
  TrainerConfig config = base_config();
  config.world = 4;
  config.iterations = 6;
  config.eval_every = 2;
  config.compression.codec = "hybrid";
  config.compression.global_eb = 0.01;
  config.overlap.pipeline_stages = 2;
  const TrainingResult sim = HybridParallelTrainer(config).train(data);

  config.transport.backend = "tcp";
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, config.world);
  config.transport.port = net::bound_port(listen_fd);
  std::vector<TrainingResult> results(static_cast<std::size_t>(config.world));
  std::vector<std::exception_ptr> errors(results.size());
  std::vector<std::thread> ranks;
  for (int r = 0; r < config.world; ++r) {
    ranks.emplace_back([&, r] {
      TrainerConfig mine = config;
      mine.transport.rank = r;
      mine.transport.inherited_listen_fd = r == 0 ? listen_fd : -1;
      try {
        results[static_cast<std::size_t>(r)] =
            HybridParallelTrainer(mine).train(data);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  const TrainingResult& tcp = results[0];
  ASSERT_EQ(tcp.history.size(), sim.history.size());
  std::size_t evals = 0;
  for (std::size_t i = 0; i < sim.history.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const IterationRecord& a = sim.history[i];
    const IterationRecord& b = tcp.history[i];
    EXPECT_EQ(b.iter, a.iter);
    EXPECT_EQ(b.train_loss, a.train_loss);
    EXPECT_EQ(b.train_accuracy, a.train_accuracy);
    EXPECT_EQ(b.eval_accuracy, a.eval_accuracy);
    EXPECT_EQ(b.forward_cr, a.forward_cr);
    EXPECT_EQ(b.eb_scale, a.eb_scale);
    if (a.eval_accuracy >= 0.0) ++evals;
  }
  EXPECT_EQ(evals, 3u);  // after iterations 1, 3 and 5
  EXPECT_EQ(tcp.final_eval.loss, sim.final_eval.loss);
  EXPECT_EQ(tcp.final_eval.accuracy, sim.final_eval.accuracy);
  EXPECT_EQ(tcp.wire_crc32, sim.wire_crc32);
  EXPECT_NE(sim.wire_crc32, 0u);
  EXPECT_EQ(tcp.makespan_seconds, sim.makespan_seconds);

  // Every aggregated field and every metrics key agrees bit for bit;
  // only the wall-clock keys are machine time.
  EXPECT_EQ(tcp.forward_raw_bytes, sim.forward_raw_bytes);
  EXPECT_EQ(tcp.forward_wire_bytes, sim.forward_wire_bytes);
  EXPECT_EQ(tcp.backward_raw_bytes, sim.backward_raw_bytes);
  EXPECT_EQ(tcp.backward_wire_bytes, sim.backward_wire_bytes);
  EXPECT_GT(sim.forward_raw_bytes, sim.forward_wire_bytes);
  EXPECT_EQ(tcp.steady_state_grow_events, sim.steady_state_grow_events);
  EXPECT_EQ(tcp.comm_stats.alltoall_count, sim.comm_stats.alltoall_count);
  EXPECT_EQ(tcp.comm_stats.alltoall_wire_bytes,
            sim.comm_stats.alltoall_wire_bytes);
  EXPECT_EQ(tcp.comm_stats.allreduce_count, sim.comm_stats.allreduce_count);
  EXPECT_EQ(tcp.comm_stats.allreduce_wire_bytes,
            sim.comm_stats.allreduce_wire_bytes);
  EXPECT_EQ(tcp.comm_stats.barrier_count, sim.comm_stats.barrier_count);
  EXPECT_GT(sim.comm_stats.alltoall_count, 0u);
  EXPECT_EQ(tcp.wire_bytes_sent, sim.wire_bytes_sent);
  EXPECT_EQ(tcp.phase_seconds, sim.phase_seconds);
  EXPECT_FALSE(sim.phase_seconds.empty());
  EXPECT_EQ(tcp.hidden_phase_seconds, sim.hidden_phase_seconds);

  const auto machine_time = [](const std::string& key) {
    return key == "train/wall_seconds" || key.starts_with("train/iter_wall_s/");
  };
  std::map<std::string, double> sim_keys;
  std::map<std::string, double> tcp_keys;
  for (const auto& [key, value] : sim.metrics.values) {
    if (!machine_time(key)) sim_keys.emplace(key, value);
  }
  for (const auto& [key, value] : tcp.metrics.values) {
    if (!machine_time(key)) tcp_keys.emplace(key, value);
  }
  EXPECT_EQ(tcp_keys, sim_keys);
  EXPECT_TRUE(sim_keys.contains("train/table/0/bwd_wire_bytes"));
  EXPECT_TRUE(sim_keys.contains("comm/barrier_total"));
}

MetricsSnapshot parse_totals(std::string_view text, std::size_t rank = 0) {
  return detail::parse_rank_totals(
      std::as_bytes(std::span<const char>(text.data(), text.size())), rank);
}

TEST(TrainerAggregation, RejectsMalformedRankDocuments) {
  // Under TCP these bytes come from another process.
  for (const std::string_view bad :
       {"", "not json", "[1,2]", "{\"a\":1} trailing", "{\"a\":\"x\"}",
        "{\"a\":{\"b\":1}}", "{\"a\":null}", "{\"a\":1e999}",
        "{\"a\":1,\"a\":2}", "{\"a\":1"}) {
    SCOPED_TRACE(std::string(bad));
    try {
      (void)parse_totals(bad, 3);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos)
          << e.what();
    }
  }
  const MetricsSnapshot ok = parse_totals("{\"a/b\":0.25,\"c\":7}");
  EXPECT_EQ(ok.values, (std::map<std::string, double>{{"a/b", 0.25}, {"c", 7}}));

  // A wire CRC word must be a u32.
  for (const std::string_view bad_crc :
       {"{\"train/wire_crc32\":-1}", "{\"train/wire_crc32\":4294967296}",
        "{\"train/wire_crc32\":1.5}"}) {
    SCOPED_TRACE(std::string(bad_crc));
    EXPECT_THROW((void)detail::merge_rank_totals({parse_totals(bad_crc)}),
                 Error);
  }
}

TEST(TrainerAggregation, MergeSumsKeysTakesSimFromFirstSlowestRankFoldsCrc) {
  const std::vector<MetricsSnapshot> ranks = {
      parse_totals("{\"x\":1,\"train/wire_crc32\":11,"
                   "\"sim/makespan\":2,\"sim/a\":2}"),
      parse_totals("{\"x\":2,\"y\":5,\"train/wire_crc32\":22,"
                   "\"sim/makespan\":3,\"sim/b\":3,\"sim/hidden/b\":1}"),
      parse_totals("{\"x\":4,\"train/wire_crc32\":33,"
                   "\"sim/makespan\":3,\"sim/c\":3}"),
  };
  std::uint32_t crc = crc32_init();
  for (const std::uint32_t word : {11u, 22u, 33u}) {
    crc = crc32_update(crc, std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
  }
  const std::map<std::string, double> expected = {
      {"x", 7},
      {"y", 5},
      {"train/wire_crc32", crc32_final(crc)},
      {"sim/makespan", 3},
      {"sim/b", 3},
      {"sim/hidden/b", 1},
  };
  EXPECT_EQ(detail::merge_rank_totals(ranks).values, expected);
}

}  // namespace
}  // namespace dlcomp
