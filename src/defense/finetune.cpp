#include "defense/finetune.h"

#include "eval/trainer.h"
#include "obs/obs.h"
#include "robust/cancel.h"
#include "util/stopwatch.h"

namespace bd::defense {

DefenseResult FinetuneDefense::apply(models::Classifier& model,
                                     const DefenseContext& context) {
  BD_OBS_SPAN("defense.finetune");
  robust::poll_cancellation("finetune.start");
  Stopwatch watch;
  eval::TrainConfig cfg;
  cfg.epochs = config_.max_epochs;
  cfg.batch_size = config_.batch_size;
  cfg.lr = config_.lr;
  cfg.momentum = config_.momentum;
  const eval::TrainResult train = eval::train_classifier(
      model, context.clean_train, cfg, context.rng_ref());

  DefenseResult out;
  out.defense_name = name();
  out.finetune_epochs = train.epochs_run;
  out.recoveries = train.guard.recoveries;
  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::defense
