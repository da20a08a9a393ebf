#include "defense/nad.h"

#include "autograd/ops.h"
#include "eval/trainer.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace bd::defense {

ag::Var attention_map(const ag::Var& feature) {
  // A(F) = mean_c F^2 -> (N,1,H,W), then per-sample L2 normalization.
  ag::Var a = ag::reduce_mean(ag::mul(feature, feature), {1}, /*keepdim=*/true);
  ag::Var norm = ag::sqrt(
      ag::add_scalar(ag::reduce_sum(ag::mul(a, a), {1, 2, 3}, true), 1e-8f));
  return ag::div(a, norm);
}

DefenseResult NadDefense::apply(models::Classifier& model,
                                const DefenseContext& context) {
  BD_OBS_SPAN("defense.nad");
  Stopwatch watch;
  Rng& rng = context.rng_ref();
  DefenseResult out;
  out.defense_name = name();

  // 1. Teacher: copy of the backdoored model, fine-tuned on clean data.
  auto teacher = models::make_model(context.model_spec, rng);
  teacher->load_state_dict(model.state_dict());
  eval::TrainConfig teacher_cfg;
  teacher_cfg.epochs = config_.teacher_epochs;
  teacher_cfg.batch_size = config_.batch_size;
  teacher_cfg.lr = config_.lr;
  {
    BD_OBS_SPAN("nad.teacher");
    const eval::TrainResult teacher_train =
        eval::train_classifier(*teacher, context.clean_train, teacher_cfg,
                               rng);
    out.recoveries = teacher_train.guard.recoveries;
  }

  // 2. Distillation: CE + beta * sum_l ||A_l(S) - A_l(T)||^2.
  eval::TrainConfig distill_cfg;
  distill_cfg.epochs = config_.distill_epochs;
  distill_cfg.batch_size = config_.batch_size;
  distill_cfg.lr = config_.lr;
  distill_cfg.weight_decay = 0.0f;
  distill_cfg.batch_loss = [this, &teacher](models::Classifier& student,
                                            const data::Batch& batch) {
    // Teacher attention, computed without building a graph.
    std::vector<Tensor> teacher_attn;
    {
      ag::NoGradGuard no_grad;
      const auto t = teacher->forward_with_features(ag::Var(batch.images));
      teacher_attn.reserve(t.stage_features.size());
      for (const auto& f : t.stage_features) {
        teacher_attn.push_back(attention_map(f).value());
      }
    }
    const auto s = student.forward_with_features(ag::Var(batch.images));
    ag::Var loss = ag::cross_entropy(s.logits, batch.labels);
    for (std::size_t l = 0; l < s.stage_features.size(); ++l) {
      const ag::Var sa = attention_map(s.stage_features[l]);
      const ag::Var ta(teacher_attn[l]);  // constant
      loss = ag::add(loss, ag::mul_scalar(ag::mse_loss(sa, ta), config_.beta));
    }
    return loss;
  };
  {
    BD_OBS_SPAN("nad.distill");
    const eval::TrainResult distill =
        eval::train_classifier(model, context.clean_train, distill_cfg, rng);
    out.finetune_epochs = distill.epochs_run;
    out.recoveries += distill.guard.recoveries;
  }

  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::defense
