#include "attack/poison.h"

#include <stdexcept>

namespace bd::attack {

data::ImageDataset poison_training_set(const data::ImageDataset& clean,
                                       const TriggerApplier& trigger,
                                       const PoisonConfig& config, Rng& rng) {
  if (config.poison_ratio < 0.0 || config.poison_ratio >= 1.0) {
    throw std::invalid_argument("poison_training_set: ratio in [0,1)");
  }
  if (config.target_class < 0 ||
      config.target_class >= clean.num_classes()) {
    throw std::invalid_argument("poison_training_set: bad target class");
  }

  // Candidates: non-target-class examples.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean.label(i) != config.target_class) candidates.push_back(i);
  }
  rng.shuffle(candidates);
  const auto n_poison = static_cast<std::size_t>(
      static_cast<double>(clean.size()) * config.poison_ratio);
  if (n_poison > candidates.size()) {
    throw std::runtime_error(
        "poison_training_set: not enough non-target examples to poison");
  }

  std::vector<bool> poisoned(clean.size(), false);
  for (std::size_t k = 0; k < n_poison; ++k) poisoned[candidates[k]] = true;

  data::ImageDataset out(clean.image_shape(), clean.num_classes());
  out.reserve(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (poisoned[i]) {
      out.add(trigger.apply(clean.image(i)), config.target_class);
    } else {
      out.add(clean.image(i), clean.label(i));
    }
  }
  return out;
}

namespace {
data::ImageDataset triggered_test_set(const data::ImageDataset& clean_test,
                                      const TriggerApplier& trigger,
                                      std::int64_t target_class,
                                      bool use_target_labels) {
  data::ImageDataset out(clean_test.image_shape(), clean_test.num_classes());
  for (std::size_t i = 0; i < clean_test.size(); ++i) {
    if (clean_test.label(i) == target_class) continue;
    out.add(trigger.apply(clean_test.image(i)),
            use_target_labels ? target_class : clean_test.label(i));
  }
  if (out.empty()) {
    throw std::runtime_error("triggered_test_set: no non-target examples");
  }
  return out;
}
}  // namespace

data::ImageDataset make_asr_test_set(const data::ImageDataset& clean_test,
                                     const TriggerApplier& trigger,
                                     std::int64_t target_class) {
  return triggered_test_set(clean_test, trigger, target_class,
                            /*use_target_labels=*/true);
}

data::ImageDataset make_ra_test_set(const data::ImageDataset& clean_test,
                                    const TriggerApplier& trigger,
                                    std::int64_t target_class) {
  return triggered_test_set(clean_test, trigger, target_class,
                            /*use_target_labels=*/false);
}

TriggeredTestSets make_triggered_test_sets(
    const data::ImageDataset& clean_test, const TriggerApplier& trigger,
    std::int64_t target_class) {
  data::ImageDataset ra = make_ra_test_set(clean_test, trigger, target_class);
  data::ImageDataset asr(ra.image_shape(), ra.num_classes());
  asr.reserve(ra.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    asr.add(ra.image(i), target_class);
  }
  return {std::move(asr), std::move(ra)};
}

data::ImageDataset synthesize_backdoor_set(const data::ImageDataset& clean,
                                           const TriggerApplier& trigger) {
  data::ImageDataset out(clean.image_shape(), clean.num_classes());
  out.reserve(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    out.add(trigger.apply(clean.image(i)), clean.label(i));
  }
  return out;
}

}  // namespace bd::attack
