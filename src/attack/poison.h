// Dataset poisoning (Sec. III-B threat model).
//
// All-to-one targeted attack: a `poison_ratio` fraction of training images
// receives the trigger and is relabelled to the target class. Helpers also
// build the triggered test sets used by the ASR and RA metrics: one set of
// triggered non-target images under two labelings.
#pragma once

#include "attack/trigger.h"
#include "data/dataset.h"

namespace bd::attack {

struct PoisonConfig {
  double poison_ratio = 0.10;  // paper: 10% poisoning
  std::int64_t target_class = 0;
};

/// Training set with `poison_ratio` of examples triggered + relabelled.
/// Only examples whose true label differs from the target are poisoned
/// (poisoning a target-class image is a no-op for an all-to-one attack).
data::ImageDataset poison_training_set(const data::ImageDataset& clean,
                                       const TriggerApplier& trigger,
                                       const PoisonConfig& config, Rng& rng);

/// Test set for ASR: trigger applied to every non-target-class image,
/// labelled with the target class.
data::ImageDataset make_asr_test_set(const data::ImageDataset& clean_test,
                                     const TriggerApplier& trigger,
                                     std::int64_t target_class);

/// Test set for RA: same triggered images, labelled with the TRUE labels.
data::ImageDataset make_ra_test_set(const data::ImageDataset& clean_test,
                                    const TriggerApplier& trigger,
                                    std::int64_t target_class);

/// The ASR and RA test sets built together: the trigger is applied once
/// per non-target image, and `ra.image(i)` is the very tensor of
/// `asr.image(i)` (shared storage, same order), so eval::evaluate_backdoor
/// scores both metrics from one forward pass over the images.
struct TriggeredTestSets {
  data::ImageDataset asr;  // labelled with the target class
  data::ImageDataset ra;   // labelled with the true classes
};
TriggeredTestSets make_triggered_test_sets(
    const data::ImageDataset& clean_test, const TriggerApplier& trigger,
    std::int64_t target_class);

/// Defender-side synthesis (Sec. III-C assumption): the backdoor variant of
/// each clean defender image, labelled with its correct (true) label, which
/// is exactly the labelling the unlearning loss (Eq. 2) requires.
data::ImageDataset synthesize_backdoor_set(const data::ImageDataset& clean,
                                           const TriggerApplier& trigger);

}  // namespace bd::attack
