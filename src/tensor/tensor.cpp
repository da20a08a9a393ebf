#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace bd {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  return n;
}

std::string shape_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor() = default;

Tensor::Tensor(Shape shape)
    : storage_(std::make_shared<std::vector<float>>(
          static_cast<std::size_t>(shape_numel(shape)), 0.0f)),
      shape_(std::move(shape)),
      numel_(static_cast<std::int64_t>(storage_->size())) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : storage_(std::make_shared<std::vector<float>>(std::move(values))),
      shape_(std::move(shape)),
      numel_(static_cast<std::int64_t>(storage_->size())) {
  if (shape_numel(shape_) != numel_) {
    throw std::invalid_argument("Tensor: values size " +
                                std::to_string(numel_) +
                                " does not match shape " +
                                shape_string(shape_));
  }
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::scalar(float value) { return Tensor({}, {value}); }

std::int64_t Tensor::size(std::int64_t d) const {
  if (d < 0) d += dim();
  if (d < 0 || d >= dim()) {
    throw std::out_of_range("Tensor::size: dim " + std::to_string(d) +
                            " out of range for shape " + shape_string(shape_));
  }
  return shape_[static_cast<std::size_t>(d)];
}

float* Tensor::data() {
  if (!storage_) throw std::logic_error("Tensor::data on undefined tensor");
  return storage_->data();
}

const float* Tensor::data() const {
  if (!storage_) throw std::logic_error("Tensor::data on undefined tensor");
  return storage_->data();
}

std::span<float> Tensor::span() {
  return {data(), static_cast<std::size_t>(numel_)};
}

std::span<const float> Tensor::span() const {
  return {data(), static_cast<std::size_t>(numel_)};
}

float& Tensor::operator[](std::int64_t i) { return (*storage_)[static_cast<std::size_t>(i)]; }
float Tensor::operator[](std::int64_t i) const { return (*storage_)[static_cast<std::size_t>(i)]; }

float& Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h,
                   std::int64_t w) {
  const auto& s = shape_;
  return data()[((n * s[1] + c) * s[2] + h) * s[3] + w];
}

float Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) const {
  const auto& s = shape_;
  return data()[((n * s[1] + c) * s[2] + h) * s[3] + w];
}

float& Tensor::at2(std::int64_t r, std::int64_t c) {
  return data()[r * shape_[1] + c];
}

float Tensor::at2(std::int64_t r, std::int64_t c) const {
  return data()[r * shape_[1] + c];
}

Tensor Tensor::reshape(Shape new_shape) const {
  check_reshape(shape_, new_shape);
  Tensor view;
  view.storage_ = storage_;
  view.shape_ = std::move(new_shape);
  view.numel_ = numel_;
  return view;
}

Tensor Tensor::clone() const {
  if (!storage_) return Tensor();
  Tensor copy;
  copy.storage_ = std::make_shared<std::vector<float>>(*storage_);
  copy.shape_ = shape_;
  copy.numel_ = numel_;
  return copy;
}

void Tensor::fill(float value) {
  if (!storage_) throw std::logic_error("Tensor::fill on undefined tensor");
  std::fill(storage_->begin(), storage_->end(), value);
}

std::string Tensor::to_string(std::int64_t max_elems) const {
  std::ostringstream out;
  out << "Tensor" << shape_string(shape_) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel_, max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) out << ", ";
    out << (*this)[i];
  }
  if (numel_ > n) out << ", ...";
  out << '}';
  return out.str();
}

void check_same_shape(const Shape& a, const Shape& b, const char* op) {
  if (a != b) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_string(a) + " vs " + shape_string(b));
  }
}

void check_reshape(const Shape& from, const Shape& to) {
  if (shape_numel(to) != shape_numel(from)) {
    throw std::invalid_argument("Tensor::reshape: cannot reshape " +
                                shape_string(from) + " to " +
                                shape_string(to));
  }
}

}  // namespace bd
