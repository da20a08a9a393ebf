#include "defense/ftsam.h"

#include "eval/trainer.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace bd::defense {

DefenseResult FtSamDefense::apply(models::Classifier& model,
                                  const DefenseContext& context) {
  BD_OBS_SPAN("defense.ftsam");
  Stopwatch watch;
  eval::TrainConfig cfg;
  cfg.epochs = config_.max_epochs;
  cfg.batch_size = config_.batch_size;
  cfg.lr = config_.lr;
  cfg.momentum = config_.momentum;
  cfg.weight_decay = 0.0f;
  cfg.sam_rho = config_.rho;
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
