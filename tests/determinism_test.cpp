// Reproducibility guarantees: the whole pipeline is a deterministic
// function of the seed. These tests pin that property at every stage -
// data synthesis, poisoning, training, and defenses - because the
// experiment harness depends on it (same seed => same table row).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/table_bench.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "shard/worker.h"
#include "tensor/ops.h"

namespace bd {
namespace {

void expect_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverged at " << i;
  }
}

data::TrainTest make_data(std::uint64_t seed) {
  Rng rng(seed);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 6;
  cfg.test_per_class = 2;
  return data::make_synth_cifar(cfg, rng);
}

TEST(Determinism, DataSynthesis) {
  const auto a = make_data(5);
  const auto b = make_data(5);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    ASSERT_EQ(a.train.label(i), b.train.label(i));
    expect_identical(a.train.image(i), b.train.image(i), "train image");
  }
  // Different seed -> different images.
  const auto c = make_data(6);
  EXPECT_GT(l1_norm(sub(a.train.image(0), c.train.image(0))), 0.0f);
}

TEST(Determinism, PoisoningSelection) {
  const auto data = make_data(7);
  attack::BadNetsTrigger trigger;
  attack::PoisonConfig cfg;
  Rng r1(11), r2(11);
  const auto p1 = attack::poison_training_set(data.train, trigger, cfg, r1);
  const auto p2 = attack::poison_training_set(data.train, trigger, cfg, r2);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1.label(i), p2.label(i));
    expect_identical(p1.image(i), p2.image(i), "poisoned image");
  }
}

TEST(Determinism, TrainingRun) {
  const auto data = make_data(9);
  models::ModelSpec spec{"vgg", 10, 3, 8};

  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    auto model = models::make_model(spec, rng);
    eval::TrainConfig cfg;
    cfg.epochs = 2;
    eval::train_classifier(*model, data.train, cfg, rng);
    return model->state_dict();
  };
  const auto s1 = run(13);
  const auto s2 = run(13);
  for (const auto& [name, tensor] : s1) {
    expect_identical(tensor, s2.at(name), name.c_str());
  }
}

TEST(Determinism, GradPruneDefense) {
  const auto data = make_data(15);
  models::ModelSpec spec{"vgg", 10, 3, 8};
  attack::BadNetsTrigger trigger;

  // One shared backdoored model.
  Rng train_rng(17);
  auto base = models::make_model(spec, train_rng);
  attack::PoisonConfig pcfg;
  const auto poisoned =
      attack::poison_training_set(data.train, trigger, pcfg, train_rng);
  eval::TrainConfig tc;
  tc.epochs = 2;
  eval::train_classifier(*base, poisoned, tc, train_rng);
  const auto base_state = base->state_dict();

  auto defend = [&](std::uint64_t seed) {
    Rng rng(seed);
    auto model = models::make_model(spec, rng);
    model->load_state_dict(base_state);
    const auto spc = data.train.sample_per_class(3, rng);
    const auto ctx = defense::make_defense_context(spc, trigger, spec, rng);
    core::GradPruneConfig cfg;
    cfg.max_prune_rounds = 4;
    cfg.finetune_max_epochs = 2;
    core::GradPruneDefense defense(cfg);
    defense.apply(*model, ctx);
    return model->state_dict();
  };
  const auto s1 = defend(23);
  const auto s2 = defend(23);
  for (const auto& [name, tensor] : s1) {
    expect_identical(tensor, s2.at(name), name.c_str());
  }
}

// The parallel runtime must not change a single bit of any result: a small
// train-and-eval run on 1 thread and on 4 threads produces identical
// weights and metrics. Uses the set_thread_count() hook (not env mutation)
// so the test is hermetic.
TEST(Determinism, ThreadCountInvariance) {
  const auto data = make_data(21);
  models::ModelSpec spec{"vgg", 10, 3, 8};

  auto run = [&] {
    Rng rng(31);
    auto model = models::make_model(spec, rng);
    eval::TrainConfig cfg;
    cfg.epochs = 2;
    eval::train_classifier(*model, data.train, cfg, rng);
    const double acc = eval::accuracy(*model, data.test);
    return std::make_pair(model->state_dict(), acc);
  };

  runtime::set_thread_count(1);
  const auto [serial_state, serial_acc] = run();
  runtime::set_thread_count(4);
  const auto [parallel_state, parallel_acc] = run();
  runtime::set_thread_count(0);

  EXPECT_DOUBLE_EQ(serial_acc, parallel_acc);
  for (const auto& [name, tensor] : serial_state) {
    expect_identical(tensor, parallel_state.at(name), name.c_str());
  }
}

// Observability must be a pure observer: with both pillars forced on, the
// instrumented pipeline (training AND the full Grad-Prune defense) produces
// bitwise-identical weights to an uninstrumented run. Instruments never
// read or advance any RNG and never feed back into computation, so this
// holds exactly - not approximately. Uses the set_*_enabled() hooks (not
// env mutation) so the test is hermetic.
TEST(Determinism, ObservabilityInvariance) {
  const auto data = make_data(25);
  models::ModelSpec spec{"vgg", 10, 3, 8};
  attack::BadNetsTrigger trigger;

  auto run = [&] {
    Rng train_rng(37);
    auto model = models::make_model(spec, train_rng);
    attack::PoisonConfig pcfg;
    const auto poisoned =
        attack::poison_training_set(data.train, trigger, pcfg, train_rng);
    eval::TrainConfig tc;
    tc.epochs = 2;
    eval::train_classifier(*model, poisoned, tc, train_rng);

    Rng defend_rng(41);
    const auto spc = data.train.sample_per_class(3, defend_rng);
    const auto ctx =
        defense::make_defense_context(spc, trigger, spec, defend_rng);
    core::GradPruneConfig cfg;
    cfg.max_prune_rounds = 3;
    cfg.finetune_max_epochs = 1;
    core::GradPruneDefense defense(cfg);
    defense.apply(*model, ctx);
    return model->state_dict();
  };

  const auto plain = run();

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const auto observed = run();
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  // The instrumented run really recorded something...
  EXPECT_GT(obs::snapshot_trace().size(), 0u);
  obs::clear_trace();
  obs::registry().reset_values();

  // ...and changed nothing.
  ASSERT_EQ(plain.size(), observed.size());
  for (const auto& [name, tensor] : plain) {
    expect_identical(tensor, observed.at(name), name.c_str());
  }
}

// src/autograd's graph (per-op nodes that run their kernels when built, a
// topological backward scheduler) is pinned to the eager tape it replaced:
// this golden FNV-1a hash of a full poison -> train -> Grad-Prune ->
// evaluate pipeline was captured from the original tape and must keep
// reproducing bit for bit, at every thread count. If any graph or
// scheduling change perturbs a single bit of any weight, the accuracy, or
// the pruned-unit count, this fails.
TEST(Determinism, GraphIRInvariance) {
  constexpr std::uint64_t kGoldenHash = 0xe9a3c98b7dbcddf3ull;

  const auto fnv1a_mix = [](std::uint64_t h, const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
    return h;
  };

  const auto pipeline_hash = [&fnv1a_mix] {
    Rng rng(55);
    data::SynthConfig dcfg;
    dcfg.height = dcfg.width = 8;
    dcfg.train_per_class = 6;
    dcfg.test_per_class = 2;
    const auto data = data::make_synth_cifar(dcfg, rng);

    models::ModelSpec spec{"vgg", 10, 3, 8};
    attack::BadNetsTrigger trigger;

    Rng train_rng(59);
    auto model = models::make_model(spec, train_rng);
    attack::PoisonConfig pcfg;
    const auto poisoned =
        attack::poison_training_set(data.train, trigger, pcfg, train_rng);
    eval::TrainConfig tc;
    tc.epochs = 2;
    eval::train_classifier(*model, poisoned, tc, train_rng);

    Rng defend_rng(61);
    const auto spc = data.train.sample_per_class(3, defend_rng);
    const auto ctx =
        defense::make_defense_context(spc, trigger, spec, defend_rng);
    core::GradPruneConfig cfg;
    cfg.max_prune_rounds = 3;
    cfg.finetune_max_epochs = 1;
    core::GradPruneDefense defense(cfg);
    const auto result = defense.apply(*model, ctx);

    const double acc = eval::accuracy(*model, data.test);

    std::uint64_t h = 1469598103934665603ull;
    for (const auto& [name, tensor] : model->state_dict()) {
      h = fnv1a_mix(h, name.data(), name.size());
      for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        const float v = tensor[i];
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = fnv1a_mix(h, &bits, sizeof(bits));
      }
    }
    std::uint64_t acc_bits;
    std::memcpy(&acc_bits, &acc, sizeof(acc_bits));
    h = fnv1a_mix(h, &acc_bits, sizeof(acc_bits));
    h = fnv1a_mix(h, &result.pruned_units, sizeof(result.pruned_units));
    return h;
  };

  for (const int threads : {1, 2, 4, 8}) {
    runtime::set_thread_count(threads);
    EXPECT_EQ(pipeline_hash(), kGoldenHash) << threads << " threads";
  }
  runtime::set_thread_count(0);
}

TEST(Determinism, EvaluationIsPure) {
  const auto data = make_data(19);
  models::ModelSpec spec{"vgg", 10, 3, 8};
  Rng rng(29);
  auto model = models::make_model(spec, rng);
  const double a1 = eval::accuracy(*model, data.test);
  const double a2 = eval::accuracy(*model, data.test);
  EXPECT_DOUBLE_EQ(a1, a2);
}

// The sharded-execution contract: the merged table is a pure function of
// the spec and seed, invariant to how many worker processes split the
// cells (and to which worker ran which cell).
TEST(Determinism, ProcessCountInvariance) {
  runtime::set_thread_count(1);

  eval::ExperimentScale scale;
  scale.data.height = scale.data.width = 8;
  scale.data.train_per_class = 8;
  scale.data.test_per_class = 2;
  scale.attack_train.epochs = 1;
  scale.base_width = 8;
  scale.spc_settings = {2, 5};
  scale.trials = 1;
  scale.defense_max_epochs = 2;
  scale.prune_max_rounds = 3;
  scale.anp_iterations = 2;
  scale.nad_teacher_epochs = 1;
  scale.nad_distill_epochs = 1;

  const auto make_spec = [&scale](const std::string& journal) {
    eval::TableSpec spec;
    spec.title = "process invariance";
    spec.dataset = "cifar";
    spec.arch = "preactresnet";
    spec.attacks = {"badnet"};
    spec.defenses = {"ft", "clp", "gradprune"};
    spec.scale = scale;
    spec.journal_path = journal;
    spec.resume = false;
    return spec;
  };
  const auto merged_output = [](eval::TableSpec spec) {
    spec.resume = true;
    ::testing::internal::CaptureStdout();
    eval::run_table(spec);
    const std::string out = ::testing::internal::GetCapturedStdout();
    std::string stripped;
    std::size_t pos = 0;
    while (pos < out.size()) {
      std::size_t end = out.find('\n', pos);
      if (end == std::string::npos) end = out.size();
      const std::string line = out.substr(pos, end - pos);
      if (line.rfind("total:", 0) != 0) {
        stripped += line;
        stripped += '\n';
      }
      pos = end + 1;
    }
    return stripped;
  };

  const std::string dir = "/tmp/bd_determinism_shard_" +
                          std::to_string(::getpid());
  const auto cleanup = [&dir](int workers) {
    std::remove((dir + "_j" + std::to_string(workers)).c_str());
    std::remove((dir + "_l" + std::to_string(workers)).c_str());
  };

  std::string reference;
  for (const int workers : {1, 2, 4}) {
    cleanup(workers);
    const std::string journal = dir + "_j" + std::to_string(workers);
    const std::string leases = dir + "_l" + std::to_string(workers);
    const eval::TableSpec spec = make_spec(journal);

    std::vector<pid_t> fleet;
    for (int w = 1; w <= workers; ++w) {
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
          ::dup2(null_fd, STDOUT_FILENO);
          ::dup2(null_fd, STDERR_FILENO);
          if (null_fd > STDERR_FILENO) ::close(null_fd);
        }
        eval::TableSpec worker_spec = spec;
        shard::ShardConfig config;
        config.lease_path = leases;
        config.worker_id = "w" + std::to_string(w);
        config.poll_interval_seconds = 0.01;
        worker_spec.shard = config;
        int rc = 0;
        try {
          eval::run_table(worker_spec);
        } catch (...) {
          rc = 1;
        }
        ::_exit(rc);
      }
      fleet.push_back(pid);
    }
    for (const pid_t pid : fleet) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status)) << workers << " workers";
      ASSERT_EQ(WEXITSTATUS(status), 0) << workers << " workers";
    }

    const std::string merged = merged_output(spec);
    ASSERT_NE(merged.find("Baseline"), std::string::npos);
    if (reference.empty()) {
      reference = merged;
    } else {
      EXPECT_EQ(merged, reference) << workers << " workers";
    }
    cleanup(workers);
  }
}

}  // namespace
}  // namespace bd
