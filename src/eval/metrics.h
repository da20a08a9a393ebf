// Performance measures from Sec. V-C of the paper:
//   ACC - accuracy on the clean test set
//   ASR - accuracy on triggered images labelled with the target class
//   RA  - accuracy on triggered images labelled with their true classes
// ASR and RA are two labelings of one set, the triggered non-target test
// images. When the two sets share their images
// (attack::make_triggered_test_sets), both metrics come from one
// prediction per image, so ASR + RA <= 1 holds image by image: one
// prediction cannot match both the target and a (different) true label.
#pragma once

#include "data/dataset.h"
#include "models/classifier.h"

namespace bd::eval {

/// Fraction of examples the model classifies as their dataset label.
/// Runs in eval mode without gradient recording; restores training mode.
double accuracy(models::Classifier& model, const data::ImageDataset& dataset,
                std::int64_t batch_size = 64);

/// Mean cross-entropy of the model on the dataset (eval mode, no grad).
double dataset_loss(models::Classifier& model,
                    const data::ImageDataset& dataset,
                    std::int64_t batch_size = 64);

struct BackdoorMetrics {
  double acc = 0.0;  // clean accuracy, percent
  double asr = 0.0;  // attack success rate, percent
  double ra = 0.0;   // recovery accuracy, percent
};

/// Evaluates the three paper metrics (in percent): one prediction pass over
/// `clean_test` and one over `asr_test`. When every `ra_test.image(i)`
/// shares storage with `asr_test.image(i)`, RA is scored from the same
/// predictions; otherwise `ra_test` gets its own pass. The two paths give
/// the same bits, because a prediction depends only on its own image.
BackdoorMetrics evaluate_backdoor(models::Classifier& model,
                                  const data::ImageDataset& clean_test,
                                  const data::ImageDataset& asr_test,
                                  const data::ImageDataset& ra_test,
                                  std::int64_t batch_size = 64);

}  // namespace bd::eval
