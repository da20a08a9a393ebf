// Dense float32 tensor with shared, contiguous storage.
//
// This is the numeric substrate for the whole reproduction: the autograd
// engine, the neural-network modules, and the defenses all operate on
// bd::Tensor values. Tensors are always contiguous and row-major; reshape
// returns a view sharing storage, clone() makes a deep copy. Arithmetic
// lives in ops.h / conv.h / pool.h as free functions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace bd {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::int64_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" - for error messages.
std::string shape_string(const Shape& shape);

class Tensor {
 public:
  /// Empty tensor (rank 0, one element, value 0); distinct from defined().
  Tensor();

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor wrapping a copy of `values`; size must match the shape.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor scalar(float value);

  /// True when this tensor was constructed with a shape (not default).
  bool defined() const { return static_cast<bool>(storage_); }

  const Shape& shape() const { return shape_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t d) const;
  std::int64_t numel() const { return numel_; }

  float* data();
  const float* data() const;
  std::span<float> span();
  std::span<const float> span() const;

  /// Flat element access with bounds check in debug builds.
  float& operator[](std::int64_t i);
  float operator[](std::int64_t i) const;

  /// 4-D convenience accessor (NCHW), bounds unchecked in release.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const;

  /// 2-D convenience accessor (rows, cols).
  float& at2(std::int64_t r, std::int64_t c);
  float at2(std::int64_t r, std::int64_t c) const;

  /// View with a new shape over the same storage; numel must match.
  Tensor reshape(Shape new_shape) const;

  /// Deep copy (no shared storage).
  Tensor clone() const;

  /// Overwrites every element.
  void fill(float value);

  /// True if the two tensors share storage.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  std::string to_string(std::int64_t max_elems = 32) const;

 private:
  std::shared_ptr<std::vector<float>> storage_;
  Shape shape_;
  std::int64_t numel_ = 0;
};

/// Throws std::invalid_argument unless both shapes are identical.
void check_same_shape(const Shape& a, const Shape& b, const char* op);

/// Reshape's rule: throws std::invalid_argument unless `to` has as many
/// elements as `from`.
void check_reshape(const Shape& from, const Shape& to);

}  // namespace bd
