#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bd::data {

ImageDataset::ImageDataset(Shape image_shape, std::int64_t num_classes)
    : image_shape_(std::move(image_shape)), num_classes_(num_classes) {
  if (image_shape_.size() != 3) {
    throw std::invalid_argument("ImageDataset: image shape must be (C,H,W)");
  }
  if (num_classes_ <= 0) {
    throw std::invalid_argument("ImageDataset: num_classes must be positive");
  }
}

void ImageDataset::add(Tensor image, std::int64_t label) {
  if (image.shape() != image_shape_) {
    throw std::invalid_argument("ImageDataset::add: image shape " +
                                shape_string(image.shape()) +
                                " does not match dataset shape " +
                                shape_string(image_shape_));
  }
  if (label < 0 || label >= num_classes_) {
    throw std::invalid_argument("ImageDataset::add: label out of range");
  }
  images_.push_back(std::move(image));
  labels_.push_back(label);
}

std::vector<std::size_t> ImageDataset::indices_of_class(
    std::int64_t label) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) out.push_back(i);
  }
  return out;
}

ImageDataset ImageDataset::subset(
    const std::vector<std::size_t>& indices) const {
  ImageDataset out(image_shape_, num_classes_);
  out.reserve(indices.size());
  for (const auto i : indices) {
    out.add(images_.at(i), labels_.at(i));
  }
  return out;
}

ImageDataset ImageDataset::sample_per_class(std::int64_t per_class,
                                            Rng& rng) const {
  if (per_class <= 0) {
    throw std::invalid_argument("sample_per_class: per_class must be > 0");
  }
  ImageDataset out(image_shape_, num_classes_);
  out.reserve(static_cast<std::size_t>(per_class * num_classes_));
  for (std::int64_t c = 0; c < num_classes_; ++c) {
    auto idx = indices_of_class(c);
    if (static_cast<std::int64_t>(idx.size()) < per_class) {
      throw std::runtime_error("sample_per_class: class " + std::to_string(c) +
                               " has only " + std::to_string(idx.size()) +
                               " examples, need " + std::to_string(per_class));
    }
    rng.shuffle(idx);
    for (std::int64_t k = 0; k < per_class; ++k) {
      out.add(images_[idx[static_cast<std::size_t>(k)]], c);
    }
  }
  return out;
}

std::pair<ImageDataset, ImageDataset> ImageDataset::split(
    double first_fraction, Rng& rng) const {
  if (size() < 2) {
    throw std::runtime_error("ImageDataset::split: need at least 2 examples");
  }
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  auto n_first = static_cast<std::size_t>(
      static_cast<double>(size()) * first_fraction + 0.5);
  n_first = std::clamp<std::size_t>(n_first, 1, size() - 1);

  const std::vector<std::size_t> first(order.begin(),
                                       order.begin() + static_cast<std::ptrdiff_t>(n_first));
  const std::vector<std::size_t> second(order.begin() + static_cast<std::ptrdiff_t>(n_first),
                                        order.end());
  return {subset(first), subset(second)};
}

std::pair<ImageDataset, ImageDataset> ImageDataset::split_per_class(
    double first_fraction, Rng& rng) const {
  std::vector<std::size_t> first_idx, second_idx;
  for (std::int64_t c = 0; c < num_classes_; ++c) {
    auto idx = indices_of_class(c);
    if (idx.size() < 2) {
      throw std::runtime_error("split_per_class: class " + std::to_string(c) +
                               " needs at least 2 examples");
    }
    rng.shuffle(idx);
    auto n_first = static_cast<std::size_t>(
        static_cast<double>(idx.size()) * first_fraction + 0.5);
    n_first = std::clamp<std::size_t>(n_first, 1, idx.size() - 1);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      (i < n_first ? first_idx : second_idx).push_back(idx[i]);
    }
  }
  return {subset(first_idx), subset(second_idx)};
}

Batch stack(const ImageDataset& data,
            const std::vector<std::size_t>& indices) {
  if (indices.empty()) {
    throw std::invalid_argument("stack: empty index list");
  }
  const Shape& img = data.image_shape();
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  Batch batch;
  batch.images = Tensor({n, img[0], img[1], img[2]});
  batch.labels.resize(indices.size());
  const std::int64_t stride = img[0] * img[1] * img[2];
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const Tensor& src = data.image(indices[i]);
    std::copy(src.data(), src.data() + stride,
              batch.images.data() + static_cast<std::int64_t>(i) * stride);
    batch.labels[i] = data.label(indices[i]);
  }
  return batch;
}

DataLoader::DataLoader(const ImageDataset& data, std::int64_t batch_size,
                       Rng& rng, bool shuffle)
    : data_(data), batch_size_(batch_size), rng_(rng), shuffle_(shuffle) {
  if (batch_size_ <= 0) {
    throw std::invalid_argument("DataLoader: batch_size must be positive");
  }
  order_.resize(data.size());
  std::iota(order_.begin(), order_.end(), 0);
  reset();
}

void DataLoader::reset() {
  cursor_ = 0;
  if (shuffle_) rng_.shuffle(order_);
}

std::int64_t DataLoader::batches_per_epoch() const {
  return (static_cast<std::int64_t>(data_.size()) + batch_size_ - 1) /
         batch_size_;
}

bool DataLoader::next(Batch& out) {
  if (cursor_ >= order_.size()) return false;
  const std::size_t end = std::min(
      order_.size(), cursor_ + static_cast<std::size_t>(batch_size_));
  const std::vector<std::size_t> indices(order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                         order_.begin() + static_cast<std::ptrdiff_t>(end));
  cursor_ = end;
  out = stack(data_, indices);
  return true;
}

}  // namespace bd::data
