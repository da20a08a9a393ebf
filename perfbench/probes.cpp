// Per-layer probes: direct calls into the public functions of the tensor,
// autograd, nn, optim, runtime, robust and core modules at the shapes and
// engine thread count of one workload. Each probe repeats its call and
// reports the median, so one slow call does not set the number.
#include <filesystem>
#include <string>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "bench.h"
#include "core/grad_prune.h"
#include "data/dataset.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "optim/optim.h"
#include "robust/journal.h"
#include "runtime/thread_pool.h"
#include "tensor/conv.h"

namespace perfbench {
namespace {

constexpr int kReps = 7;

bd::Tensor random_tensor(bd::Shape shape, bd::Rng& rng) {
  bd::Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// Median seconds of `reps` calls, after one untimed warm-up call.
template <typename Fn>
double median_seconds(Fn&& fn, int reps = kReps) {
  fn();
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    fn();
    times.push_back(now_seconds() - t0);
  }
  return median(times);
}

}  // namespace

void run_layer_probes(const ProbeConfig& config, Outcome& out) {
  using namespace bd;
  runtime::set_thread_count(config.engine_threads);
  Rng rng(7);
  const std::int64_t b = config.batch;
  const std::int64_t hw = config.image_size / 2;  // a mid-network feature map
  const std::int64_t c = 2 * config.spec.base_width;
  const Conv2dSpec same{1, 1};

  // Conv forward/backward on one mid-network 3x3 layer.
  const Tensor x = random_tensor({b, c, hw, hw}, rng);
  const Tensor w = random_tensor({c, c, 3, 3}, rng);
  const Tensor bias = random_tensor({c}, rng);
  const Tensor gy = random_tensor({b, c, hw, hw}, rng);
  const double fwd = median_seconds([&] { conv2d_forward(x, w, bias, same); });
  const double bwd =
      median_seconds([&] { conv2d_backward(x, w, true, gy, same); });
  const double flops = 2.0 * static_cast<double>(b * c * hw * hw * c * 9);
  out.add("tensor.conv2d_fwd_us", 1e6 * fwd, "us", kReps);
  out.add("tensor.conv2d_bwd_us", 1e6 * bwd, "us", kReps);
  out.add("tensor.conv_bwd_fwd_ratio", bwd / fwd, "ratio", kReps);
  out.add("tensor.gemm_gflops_computed", flops / fwd / 1e9, "GFLOP/s", kReps,
          "computed from shapes: 2*B*Cout*H*W*Cin*9 per forward");

  // Depthwise 3x3 at an MBConv expansion width.
  const std::int64_t dc = 4 * c;
  const Tensor dx = random_tensor({b, dc, hw, hw}, rng);
  const Tensor dw = random_tensor({dc, 1, 3, 3}, rng);
  const Tensor dgy = random_tensor({b, dc, hw, hw}, rng);
  out.add("tensor.depthwise_fwd_us",
          1e6 * median_seconds([&] {
            depthwise_conv2d_forward(dx, dw, Tensor(), same);
          }),
          "us", kReps);
  out.add("tensor.depthwise_bwd_us",
          1e6 * median_seconds([&] {
            depthwise_conv2d_backward(dx, dw, false, dgy, same);
          }),
          "us", kReps);

  // Runtime: fork/join of an empty parallel_for, and conv scaling 1 -> 2.
  const double dispatch = median_seconds([&] {
    for (int i = 0; i < 200; ++i) {
      runtime::parallel_for(0, 64, 1, [](std::int64_t, std::int64_t) {});
    }
  });
  out.add("runtime.dispatch_us", 1e6 * dispatch / 200.0, "us", kReps);
  runtime::set_thread_count(1);
  const double fwd1 = median_seconds([&] { conv2d_forward(x, w, bias, same); });
  runtime::set_thread_count(2);
  const double fwd2 = median_seconds([&] { conv2d_forward(x, w, bias, same); });
  runtime::set_thread_count(config.engine_threads);
  out.add("runtime.conv_speedup_2t", fwd1 / fwd2, "ratio", kReps);

  // Autograd: graph build, materialization and backward of one training
  // step of the workload's model; then the SGD step on its gradients.
  auto model = models::make_model(config.spec, rng);
  model->set_training(true);
  const Tensor images =
      random_tensor({b, config.spec.in_channels, config.image_size,
                     config.image_size}, rng);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < b; ++i) labels.push_back(i % config.spec.num_classes);
  std::vector<double> build, materialize, backward;
  for (int i = 0; i <= kReps; ++i) {
    model->zero_grad();
    const double t0 = now_seconds();
    ag::Var loss = ag::cross_entropy(model->forward(ag::Var(images)), labels);
    const double t1 = now_seconds();
    loss.value();
    const double t2 = now_seconds();
    loss.backward();
    const double t3 = now_seconds();
    if (i == 0) continue;  // warm-up
    build.push_back(t1 - t0);
    materialize.push_back(t2 - t1);
    backward.push_back(t3 - t2);
  }
  out.add("autograd.build_us", 1e6 * median(build), "us", kReps);
  out.add("autograd.materialize_us", 1e6 * median(materialize), "us", kReps);
  out.add("autograd.backward_us", 1e6 * median(backward), "us", kReps);
  out.add("autograd.arena_peak_bytes",
          static_cast<double>(ag::GradArena::local().stats().max_peak_bytes),
          "bytes", kReps);
  optim::Sgd sgd(model->parameters(), optim::SgdOptions{0.01f, 0.9f, 5e-4f});
  out.add("optim.sgd_step_us", 1e6 * median_seconds([&] { sgd.step(); }), "us",
          kReps);

  // BatchNorm in training mode: forward materialized, then backward.
  nn::BatchNorm2d bn(c);
  bn.set_training(true);
  std::vector<double> bn_fwd, bn_bwd;
  for (int i = 0; i <= kReps; ++i) {
    const ag::Var in(x, /*requires_grad=*/true);
    const double t0 = now_seconds();
    ag::Var y = bn.forward(in);
    y.value();
    const double t1 = now_seconds();
    ag::sum_all(y).backward();
    const double t2 = now_seconds();
    if (i == 0) continue;
    bn_fwd.push_back(t1 - t0);
    bn_bwd.push_back(t2 - t1);
  }
  out.add("nn.batchnorm_fwd_us", 1e6 * median(bn_fwd), "us", kReps);
  out.add("nn.batchnorm_bwd_us", 1e6 * median(bn_bwd), "us", kReps,
          "includes the scalar sum head");

  // Checkpoint save (durable write) and load of the model.
  const std::string ckpt = config.work_dir + "/probe.ckpt";
  out.add("nn.checkpoint_save_ms",
          1e3 * median_seconds([&] { nn::save_checkpoint(*model, ckpt); }), "ms",
          kReps);
  out.add("nn.checkpoint_load_ms",
          1e3 * median_seconds([&] { nn::load_checkpoint(*model, ckpt); }), "ms",
          kReps);
  out.add("nn.checkpoint_bytes",
          static_cast<double>(std::filesystem::file_size(ckpt)), "bytes", 1);

  // Journal append: one encoded job-sized record per call.
  const std::string journal = config.work_dir + "/probe.jsonl";
  const std::string line = robust::encode_journal_line(
      "job|j000001", {{"state", "done"}, {"tenant", "t0"}, {"acc", "0.98"},
                      {"asr", "0.01"}, {"ra", "0.97"}, {"seconds", "1.5"}});
  const double append = median_seconds([&] {
    for (int i = 0; i < 50; ++i) robust::append_line_atomic(journal, line);
  });
  out.add("robust.journal_append_us", 1e6 * append / 50.0, "us", kReps);

  // Grad-Prune scoring: one unlearning-gradient pass over three batches.
  data::ImageDataset backdoor(
      {config.spec.in_channels, config.image_size, config.image_size},
      config.spec.num_classes);
  for (std::int64_t i = 0; i < 3 * b; ++i) {
    backdoor.add(random_tensor({config.spec.in_channels, config.image_size,
                                config.image_size}, rng),
                 i % config.spec.num_classes);
  }
  out.add("core.score_ms",
          1e3 * median_seconds([&] { core::score_filters(*model, backdoor, 32); }),
          "ms", kReps);
}

}  // namespace perfbench
