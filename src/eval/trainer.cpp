#include "eval/trainer.h"

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "autograd/ops.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "optim/optim.h"
#include "robust/cancel.h"
#include "robust/fault_injector.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

// Batch work (forward/backward kernels, metric evaluation) executes on the
// bd::runtime parallel engine; the loop below stays sequential because SGD
// steps and RNG draws are order-dependent. Results are bitwise identical
// for every BDPROTO_THREADS setting (see runtime/thread_pool.h) — the
// TrainGuard decisions depend only on those thread-invariant loss values,
// so recovery preserves the invariance.

namespace bd::eval {

namespace {

/// Non-finite gradient check (skipped, with the norm, when the guard is
/// off).
const char* guarded_grad(const robust::TrainGuard& guard,
                         const optim::Optimizer& opt) {
  return guard.enabled() ? guard.check_grad_norm(opt.grad_norm()) : nullptr;
}

/// Per-batch divergence check. Computes the batch loss (applying any armed
/// `nan@n` fault), and either runs backward and returns nullptr (healthy)
/// or returns the reason the step must not be applied. `batch_loss` always
/// receives the observed loss.
const char* guarded_backward(robust::TrainGuard& guard, ag::Var& loss,
                             optim::Optimizer& opt, double& batch_loss) {
  batch_loss = static_cast<double>(loss.value()[0]);
  if (robust::FaultInjector::instance().fire(robust::FaultKind::kNanLoss)) {
    batch_loss = std::numeric_limits<double>::quiet_NaN();
  }
  if (const char* reason = guard.check_loss(batch_loss)) return reason;
  loss.backward();
  return guarded_grad(guard, opt);
}

}  // namespace

TrainResult train_classifier(models::Classifier& model,
                             const data::ImageDataset& train,
                             const TrainConfig& config, Rng& rng,
                             const data::ImageDataset* val) {
  if (train.empty() || (val != nullptr && val->empty())) {
    throw std::invalid_argument("train_classifier: empty train or val set");
  }
  BD_OBS_SPAN_ARG("train.run", config.epochs);
  if (config.verbose) {
    BD_LOG(Info) << "training on " << runtime::thread_count()
                 << " runtime thread(s)";
  }
  optim::SgdOptions opts;
  opts.lr = config.lr;
  opts.momentum = config.momentum;
  opts.weight_decay = config.weight_decay;
  auto owned_sgd = std::make_unique<optim::Sgd>(model.parameters(), opts);
  optim::Sgd& sgd = *owned_sgd;  // SAM's base when sam_rho > 0
  std::optional<optim::Sam> sam;
  if (config.sam_rho > 0.0f) sam.emplace(std::move(owned_sgd), config.sam_rho);
  robust::TrainGuard guard(config.guard);

  const auto loss_of = [&](const data::Batch& batch) {
    if (config.batch_loss) return config.batch_loss(model, batch);
    return ag::cross_entropy(model.forward(ag::Var(batch.images)),
                             batch.labels);
  };
  // One optimizer update; returns why it was rejected, or nullptr.
  const auto update = [&](const data::Batch& batch,
                          double& batch_loss) -> const char* {
    sgd.zero_grad();
    ag::Var loss = loss_of(batch);
    if (const char* reason = guarded_backward(guard, loss, sgd, batch_loss)) {
      return reason;
    }
    if (!sam) {
      sgd.step();
      return nullptr;
    }
    // SAM: ascend to w + e(w), take the gradient there, descend from w.
    sam->first_step();
    sgd.zero_grad();
    loss_of(batch).backward();
    if (const char* reason = guarded_grad(guard, sgd)) {
      sam->restore();
      return reason;
    }
    sam->second_step();
    return nullptr;
  };

  TrainResult result;
  std::map<std::string, Tensor> best_state;
  if (val != nullptr) {
    result.best_val_loss = dataset_loss(model, *val);
    best_state = model.state_dict();
  }
  std::map<std::string, Tensor> snapshot;
  if (guard.enabled()) snapshot = model.state_dict();
  std::int64_t epochs_without_improvement = 0;

  model.set_training(true);
  std::int64_t epoch = 0;
  bool stop = false;
  while (epoch < config.epochs && !stop) {
    BD_OBS_SPAN_ARG("train.epoch", epoch);
    data::DataLoader loader(train, config.batch_size, rng);
    data::Batch batch;
    double total = 0.0;
    std::int64_t seen = 0;
    std::int64_t step = 0;
    bool rolled_back = false;
    while (loader.next(batch)) {
      robust::poll_cancellation("train.batch");
      BD_OBS_SPAN_ARG("train.batch", step);
      BD_OBS_COUNT("train.batches", 1);
      BD_OBS_COUNT("train.samples", batch.size());
      double batch_loss = 0.0;
      if (const char* reason = update(batch, batch_loss)) {
        model.load_state_dict(snapshot);
        if (!guard.can_recover()) {
          guard.record_exhausted();
          BD_LOG(Warn) << "train guard: " << reason << " at epoch " << epoch
                       << " step " << step
                       << "; retry budget exhausted, stopping at last good "
                          "snapshot";
          stop = true;
        } else {
          sgd.options().lr *= static_cast<float>(guard.config().lr_backoff);
          guard.record_recovery(epoch, step, batch_loss, sgd.options().lr,
                                reason);
          BD_LOG(Warn) << "train guard: " << reason << " at epoch " << epoch
                       << " step " << step << "; rolled back, retrying with lr="
                       << sgd.options().lr;
          rolled_back = true;
        }
        break;
      }
      if (config.post_step) config.post_step();
      total += batch_loss * static_cast<double>(batch.size());
      seen += batch.size();
      ++step;
    }
    if (stop) break;
    if (rolled_back) continue;  // retry this epoch from the snapshot
    ++result.epochs_run;
    result.final_loss = total / static_cast<double>(seen);
    BD_OBS_GAUGE("train.epoch_loss", result.final_loss);
    if (config.verbose) {
      BD_LOG(Info) << "epoch " << (epoch + 1) << "/" << config.epochs
                   << " loss=" << result.final_loss
                   << " lr=" << sgd.options().lr;
    }
    sgd.options().lr *= config.lr_decay;
    if (val != nullptr) {
      const double val_loss = dataset_loss(model, *val);
      BD_OBS_GAUGE("train.val_loss", val_loss);
      if (val_loss < result.best_val_loss - 1e-6) {
        result.best_val_loss = val_loss;
        best_state = model.state_dict();
        epochs_without_improvement = 0;
      } else if (++epochs_without_improvement >= config.patience) {
        break;
      }
    }
    if (guard.enabled()) snapshot = model.state_dict();
    ++epoch;
  }
  if (val != nullptr) model.load_state_dict(best_state);
  model.set_training(false);
  result.guard = guard.report();
  return result;
}

data::ImageDataset concat(const data::ImageDataset& a,
                          const data::ImageDataset& b) {
  if (a.image_shape() != b.image_shape() ||
      a.num_classes() != b.num_classes()) {
    throw std::invalid_argument("concat: dataset metadata mismatch");
  }
  data::ImageDataset out(a.image_shape(), a.num_classes());
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.add(a.image(i), a.label(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.add(b.image(i), b.label(i));
  return out;
}

}  // namespace bd::eval
