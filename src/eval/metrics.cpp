#include "eval/metrics.h"

#include <vector>

#include "autograd/ops.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace bd::eval {

namespace {

/// Restores the module's training flag on scope exit.
class EvalModeScope {
 public:
  explicit EvalModeScope(nn::Module& m) : module_(m), was_training_(m.training()) {
    module_.set_training(false);
  }
  ~EvalModeScope() { module_.set_training(was_training_); }
  EvalModeScope(const EvalModeScope&) = delete;
  EvalModeScope& operator=(const EvalModeScope&) = delete;

 private:
  nn::Module& module_;
  bool was_training_;
};

/// The model's predicted class for every example, in dataset order: one
/// eval-mode, no-grad forward pass over the dataset in batches.
std::vector<std::int64_t> predict(models::Classifier& model,
                                  const data::ImageDataset& dataset,
                                  std::int64_t batch_size) {
  if (dataset.empty()) return {};
  BD_OBS_SPAN_ARG("eval.predict", static_cast<std::int64_t>(dataset.size()));
  EvalModeScope scope(model);
  ag::NoGradGuard no_grad;

  std::vector<std::int64_t> preds;
  preds.reserve(dataset.size());
  Rng dummy(0);
  data::DataLoader loader(dataset, batch_size, dummy, /*shuffle=*/false);
  data::Batch batch;
  while (loader.next(batch)) {
    const ag::Var logits = model.forward(ag::Var(batch.images));
    const auto batch_preds = argmax_rows(logits.value());
    preds.insert(preds.end(), batch_preds.begin(), batch_preds.end());
  }
  return preds;
}

/// Fraction of `dataset`'s examples whose prediction is their label.
double matching_share(const std::vector<std::int64_t>& preds,
                      const data::ImageDataset& dataset) {
  if (dataset.empty()) return 0.0;
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (preds[i] == dataset.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

/// True when `b` holds `a`'s image tensors in the same order, so one
/// prediction per image serves both labelings.
bool same_images(const data::ImageDataset& a, const data::ImageDataset& b) {
  if (a.size() != b.size() || a.image_shape() != b.image_shape()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a.image(i).shares_storage_with(b.image(i))) return false;
  }
  return true;
}

}  // namespace

double accuracy(models::Classifier& model, const data::ImageDataset& dataset,
                std::int64_t batch_size) {
  return matching_share(predict(model, dataset, batch_size), dataset);
}

double dataset_loss(models::Classifier& model,
                    const data::ImageDataset& dataset,
                    std::int64_t batch_size) {
  if (dataset.empty()) return 0.0;
  BD_OBS_SPAN_ARG("eval.dataset_loss",
                  static_cast<std::int64_t>(dataset.size()));
  EvalModeScope scope(model);
  ag::NoGradGuard no_grad;

  double total = 0.0;
  Rng dummy(0);
  data::DataLoader loader(dataset, batch_size, dummy, /*shuffle=*/false);
  data::Batch batch;
  while (loader.next(batch)) {
    const ag::Var logits = model.forward(ag::Var(batch.images));
    const ag::Var loss = ag::cross_entropy(logits, batch.labels);
    total += static_cast<double>(loss.value()[0]) *
             static_cast<double>(batch.size());
  }
  return total / static_cast<double>(dataset.size());
}

BackdoorMetrics evaluate_backdoor(models::Classifier& model,
                                  const data::ImageDataset& clean_test,
                                  const data::ImageDataset& asr_test,
                                  const data::ImageDataset& ra_test,
                                  std::int64_t batch_size) {
  BD_OBS_SPAN("eval.backdoor");
  BackdoorMetrics m;
  m.acc = 100.0 * accuracy(model, clean_test, batch_size);
  const auto preds = predict(model, asr_test, batch_size);
  m.asr = 100.0 * matching_share(preds, asr_test);
  m.ra = 100.0 * (same_images(asr_test, ra_test)
                      ? matching_share(preds, ra_test)
                      : accuracy(model, ra_test, batch_size));
  return m;
}

}  // namespace bd::eval
