// Tensor arithmetic: elementwise ops with NumPy-style broadcasting,
// reductions, the one GEMM, and the broadcast-reduction helper the
// autograd engine uses to accumulate gradients back to parameter shapes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/tensor.h"

namespace bd {

/// Minimum per-chunk element count for parallel elementwise loops. Chunks
/// below this run serially inside parallel_for, so small tensors pay
/// (almost) nothing. Outputs of elementwise loops are disjoint, so results
/// never depend on where the chunks fall.
inline constexpr std::int64_t kElemwiseGrain = std::int64_t{1} << 15;

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

/// Result shape of broadcasting a with b under NumPy rules (shapes
/// right-aligned, size-1 or missing dims stretch). The one broadcast rule:
/// the kernels and autograd shape inference both call it. Throws
/// std::invalid_argument naming `op` if the shapes are incompatible.
Shape broadcast_shape(const Shape& a, const Shape& b,
                      const char* op = "broadcast_shape");

/// True if `from` broadcasts to `to` under NumPy rules.
bool broadcastable_to(const Shape& from, const Shape& to);

/// Sums `t` over its broadcast dimensions so the result has shape `target`.
/// Inverse of broadcasting; used to reduce output gradients to input shapes.
Tensor reduce_to_shape(const Tensor& t, const Shape& target);

// ---------------------------------------------------------------------------
// Elementwise binary (broadcasting)
// ---------------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Elementwise with scalars / unary
// ---------------------------------------------------------------------------

Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);

/// out[i] = f(a[i]). A template so `f` inlines into the loop.
template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            po[i] = f(pa[i]);
                          }
                        });
  return out;
}

/// out[i] = f(a[i], b[i]) for two tensors of one shape (no broadcasting);
/// throws std::invalid_argument naming `op` otherwise. Fuses an autograd
/// backward `grad * d(x)` into one pass.
template <typename F>
Tensor zip(const Tensor& a, const Tensor& b, F f, const char* op) {
  check_same_shape(a.shape(), b.shape(), op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            po[i] = f(pa[i], pb[i]);
                          }
                        });
  return out;
}

// In-place axpy: y += alpha * x (same shape).
void axpy_inplace(Tensor& y, float alpha, const Tensor& x);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

float sum_all(const Tensor& a);
float l1_norm(const Tensor& a);
float l2_norm(const Tensor& a);

/// The one shape rule of reduce_sum/reduce_mean over `axes`: negative axes
/// wrap, duplicates count once, reduced axes drop (or become 1 with
/// keepdim). Throws std::invalid_argument on an axis out of range.
Shape reduce_shape(const Shape& in, const std::vector<std::int64_t>& axes,
                   bool keepdim);

/// Sum over the given axes. With keepdim, reduced axes become size 1.
Tensor reduce_sum(const Tensor& a, const std::vector<std::int64_t>& axes,
                  bool keepdim);
Tensor reduce_mean(const Tensor& a, const std::vector<std::int64_t>& axes,
                   bool keepdim);

// ---------------------------------------------------------------------------
// Linear algebra / classification helpers
// ---------------------------------------------------------------------------

/// The one matrix product: C (m x n) = op(A) (m x k) * op(B) (k x n), where
/// op(X) is X or, with its flag set, X transposed. Operands are row-major
/// with rows `ld` floats apart (lda >= k, or >= m when trans_a; ldb >= n, or
/// >= k when trans_b; ldc >= n). C is overwritten: each element starts at +0
/// and adds a*b for k ascending, one rounded multiply and one rounded add per
/// term (the build's -ffp-contract=off keeps them unfused). Output tiles run
/// in parallel and k is never split, so that order, and every result, is the
/// same for any kernel, tile shape and thread count. Rows of op(A) are packed
/// into strips and a register tile of C is accumulated against column strips
/// of op(B). No term is skipped, so 0 * inf gives NaN as IEEE says. This and
/// gemm_packed below are one engine: gemm describes its operands with the
/// offset tables gemm_packed takes.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc);

/// Floats past its last addressed element that a B or C operand with
/// `slack` set holds for the kernel: one strip of the widest kernel.
inline constexpr std::int64_t kGemmSlack = 16;

/// A (m x k) of gemm_packed: element (r, p) at data[r * row_step + p *
/// col_step].
struct GemmA {
  const float* data;
  std::int64_t row_step, col_step;
};

/// B (k x n) of gemm_packed, described by offsets: element (p, j) at
/// data[row[p] + col[j]], where `col` null means col[j] = j. A strip of
/// columns whose offsets are consecutive is read in place, one vector load
/// per row and kernel lane group; any other is gathered into a strip first.
/// With `slack` every row may be read kGemmSlack floats past its last
/// column, so a partial last strip is read in place too (what it reads past
/// the last column feeds only columns that are not stored).
struct GemmB {
  const float* data;
  const std::int64_t* row;
  const std::int64_t* col;
  bool slack;
};

/// C (m x n) of gemm_packed: element (r, j) at data[r * ld + col[j]], where
/// `col` null means col[j] = j; a column with col[j] < 0 is not written.
/// With `accumulate` each element adds its product, a sum formed from +0
/// in k order as above, once to what C holds (BLAS beta = 1); otherwise it
/// stores it. With `slack` every float of a row from data[r * ld] through
/// kGemmSlack past its last column belongs to this call alone: the kernel
/// may read such floats and write them back unchanged, so a strip whose
/// stored columns are consecutive apart from dropped ones is stored as
/// masked vectors.
struct GemmC {
  float* data;
  std::int64_t ld;
  const std::int64_t* col;
  bool slack;
  bool accumulate;
};

struct GemmKernel;

/// A (m x k) packed once into the strips of the kernel gemm runs (see
/// GemmKernelScope), so many products can share it: a convolution packs its
/// weight once per call, not once per sample.
class GemmPackedA {
 public:
  GemmPackedA() = default;
  GemmPackedA(std::int64_t m, std::int64_t k, const GemmA& a);

 private:
  friend void gemm_packed(const GemmPackedA& a, std::int64_t n,
                          const GemmB& b, const GemmC& c);
  const GemmKernel* kernel_ = nullptr;
  std::int64_t m_ = 0, k_ = 0;
  std::unique_ptr<float[]> data_;
};

/// C (m x n) = or += A * B through the kernel `a` was packed for, with
/// every element's sum formed as gemm's, on the calling thread: callers run
/// independent products in parallel (each convolution over its samples or
/// weight columns).
void gemm_packed(const GemmPackedA& a, std::int64_t n, const GemmB& b,
                 const GemmC& c);

/// The micro-kernel gemm runs on this host, as its instruction set and
/// register tile ("sse 4x8", "avx2 6x16" or "avx512 8x16"): the widest the
/// CPU supports, chosen once. Every kernel gives the same bits.
const char* gemm_kernel_name();

/// Test hook: the names of the kernels this host can run, the baseline
/// first and gemm_kernel_name() last.
std::vector<std::string> gemm_host_kernels();

/// Test hook: while one is alive, gemm, gemm_packed and so every
/// convolution run the named kernel of gemm_host_kernels() on every thread;
/// any other name throws std::invalid_argument. Scopes do not nest.
class GemmKernelScope {
 public:
  explicit GemmKernelScope(const std::string& kernel);
  ~GemmKernelScope();
  GemmKernelScope(const GemmKernelScope&) = delete;
  GemmKernelScope& operator=(const GemmKernelScope&) = delete;
};

/// The one shape rule of matmul: (m,n) for op(a) (m,k) and op(b) (k,n),
/// where op transposes when its flag is set. Throws std::invalid_argument
/// unless both are rank 2 with matching inner dimensions.
Shape matmul_shape(const Shape& a, const Shape& b, bool trans_a = false,
                   bool trans_b = false);

/// op(a) x op(b) for rank-2 tensors: a thin wrapper over gemm, (m,k) x
/// (k,n) -> (m,n), reading a (or b) transposed when its flag is set, with
/// no transposed copy.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// The rows rule of the row-wise ops: throws std::invalid_argument naming
/// `op` unless `s` is rank 2 (rows, cols).
void check_rows(const Shape& s, const char* op);

/// Row-wise argmax of a (rows, cols) tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

/// Numerically stable log-softmax along dim 1 of a (rows, cols) tensor.
Tensor log_softmax_rows(const Tensor& a);

}  // namespace bd
