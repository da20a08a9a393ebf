// Dataset containers and sampling utilities.
//
// The evaluation protocol follows the paper: the attacker trains on a
// poisoned training set; the defender only sees `k` clean samples per class
// (SPC in {2, 10, 100}) plus synthesized backdoor variants of those same
// samples; ACC/ASR/RA are measured on a held-out test set.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace bd::data {

/// A labelled image set. Images are individual (C,H,W) tensors in [0,1].
class ImageDataset {
 public:
  ImageDataset(Shape image_shape, std::int64_t num_classes);

  void add(Tensor image, std::int64_t label);
  void reserve(std::size_t n) { images_.reserve(n); labels_.reserve(n); }

  std::size_t size() const { return images_.size(); }
  bool empty() const { return images_.empty(); }
  const Tensor& image(std::size_t i) const { return images_.at(i); }
  std::int64_t label(std::size_t i) const { return labels_.at(i); }
  const Shape& image_shape() const { return image_shape_; }
  std::int64_t num_classes() const { return num_classes_; }

  /// Indices of all examples with the given label.
  std::vector<std::size_t> indices_of_class(std::int64_t label) const;

  /// New dataset holding the selected examples (deep label copy, shared
  /// image storage).
  ImageDataset subset(const std::vector<std::size_t>& indices) const;

  /// Samples exactly `per_class` examples of every class. Throws if any
  /// class has fewer examples than requested.
  ImageDataset sample_per_class(std::int64_t per_class, Rng& rng) const;

  /// Splits into (first, second) with `first_fraction` of examples in the
  /// first part, shuffled. Guarantees both parts are non-empty when
  /// size() >= 2 (the paper's SPC=2 setting: 1 train / 1 validation).
  std::pair<ImageDataset, ImageDataset> split(double first_fraction,
                                              Rng& rng) const;

  /// Splits class-by-class so both parts see every class. With 2 examples
  /// per class this yields exactly 1 train / 1 validation per class, the
  /// paper's SPC=2 protocol. Requires >= 2 examples of every class.
  std::pair<ImageDataset, ImageDataset> split_per_class(double first_fraction,
                                                        Rng& rng) const;

 private:
  Shape image_shape_;
  std::int64_t num_classes_;
  std::vector<Tensor> images_;
  std::vector<std::int64_t> labels_;
};

/// A training batch: stacked (N,C,H,W) images + labels.
struct Batch {
  Tensor images;
  std::vector<std::int64_t> labels;
  std::int64_t size() const { return images.defined() ? images.size(0) : 0; }
};

/// Stacks the given examples into one batch.
Batch stack(const ImageDataset& data, const std::vector<std::size_t>& indices);

/// Iterates a dataset in shuffled mini-batches.
class DataLoader {
 public:
  DataLoader(const ImageDataset& data, std::int64_t batch_size, Rng& rng,
             bool shuffle = true);

  /// Returns false when the epoch is exhausted.
  bool next(Batch& out);

  /// Restarts the epoch (reshuffles when enabled).
  void reset();

  std::int64_t batches_per_epoch() const;

 private:
  const ImageDataset& data_;
  std::int64_t batch_size_;
  Rng& rng_;
  bool shuffle_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

}  // namespace bd::data
