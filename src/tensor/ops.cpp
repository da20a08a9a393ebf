#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace bd {

namespace {

// Size of dim `d` of a rank-`rank` shape as seen by `s` right-aligned
// against it: 1 where `s` is shorter.
std::int64_t aligned_dim(const Shape& s, std::size_t rank, std::size_t d) {
  const std::size_t lead = rank - s.size();
  return d < lead ? 1 : s[d - lead];
}

// The loop nest one elementwise or reduction kernel walks: an iteration
// shape read through two operands that each broadcast to it. Size-1 dims
// are dropped, and every run of adjacent dims that both operands walk alike
// (both contiguously, or both not at all) is merged into one, so
// (N,C,H,W) against (1,C,1,1) becomes N*C rows of H*W with a scalar second
// operand. Dims are stored innermost first: dim 0 is the inner loop, which
// an operand reads with stride 1 or not at all (stride 0).
struct LoopNest {
  static constexpr std::size_t kMaxDims = 16;
  std::size_t ndims = 0;
  std::array<std::int64_t, kMaxDims> size{};
  std::array<std::int64_t, kMaxDims> stride_a{};
  std::array<std::int64_t, kMaxDims> stride_b{};

  LoopNest(const Shape& iter, const Shape& a, const Shape& b, const char* op) {
    const std::size_t rank = iter.size();
    std::int64_t run_a = 1, run_b = 1;  // each operand's stride at dim d
    for (std::size_t d = rank; d-- > 0;) {
      const std::int64_t n = iter[d];
      if (n == 1) continue;
      const bool walk_a = aligned_dim(a, rank, d) == n;
      const bool walk_b = aligned_dim(b, rank, d) == n;
      const std::size_t k = ndims;
      if (k > 0 && (stride_a[k - 1] != 0) == walk_a &&
          (stride_b[k - 1] != 0) == walk_b) {
        size[k - 1] *= n;
      } else {
        if (k == kMaxDims) {
          throw std::invalid_argument(std::string(op) + ": shapes " +
                                      shape_string(a) + " and " +
                                      shape_string(b) +
                                      " need more than 16 loops");
        }
        size[k] = n;
        stride_a[k] = walk_a ? run_a : 0;
        stride_b[k] = walk_b ? run_b : 0;
        ++ndims;
      }
      if (walk_a) run_a *= n;
      if (walk_b) run_b *= n;
    }
    if (ndims == 0) {  // one element: both operands read index 0
      size[0] = stride_a[0] = stride_b[0] = 1;
      ndims = 1;
    }
  }
};

// One row of a LoopNest: its coordinates over the outer dims (1..ndims-1)
// and the offset of its first element in each operand. Moving to the next
// row is one carry chain per row, never a per-element coordinate walk.
struct RowCursor {
  std::array<std::int64_t, LoopNest::kMaxDims> coord{};
  std::int64_t off_a = 0, off_b = 0;

  RowCursor(const LoopNest& nest, std::int64_t row) {
    for (std::size_t k = 1; k < nest.ndims; ++k) {
      coord[k] = row % nest.size[k];
      row /= nest.size[k];
      off_a += coord[k] * nest.stride_a[k];
      off_b += coord[k] * nest.stride_b[k];
    }
  }

  void next(const LoopNest& nest) {
    for (std::size_t k = 1; k < nest.ndims; ++k) {
      off_a += nest.stride_a[k];
      off_b += nest.stride_b[k];
      if (++coord[k] < nest.size[k]) return;
      off_a -= nest.size[k] * nest.stride_a[k];
      off_b -= nest.size[k] * nest.stride_b[k];
      coord[k] = 0;
    }
  }
};

// out = f(a, b) broadcast. Each output element is f of the two operands
// broadcasting pairs with it; the nest only orders the loops, so no bit
// depends on it. Outputs are disjoint, so chunks may split rows anywhere.
template <typename F>
Tensor broadcast(const Tensor& a, const Tensor& b, F f, const char* op) {
  Tensor out(broadcast_shape(a.shape(), b.shape(), op));
  const std::int64_t total = out.numel();
  if (total == 0) return out;
  const LoopNest nest(out.shape(), a.shape(), b.shape(), op);
  // The inner dim has size > 1 in the output, so at least one operand
  // walks it (or the nest is a single element that both walk).
  const std::int64_t inner = nest.size[0];
  const std::int64_t step_a = nest.stride_a[0], step_b = nest.stride_b[0];
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::parallel_for(
      0, total, kElemwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
        RowCursor row(nest, lo / inner);
        std::int64_t j = lo % inner;
        for (std::int64_t flat = lo; flat < hi; row.next(nest), j = 0) {
          const std::int64_t len = std::min(inner - j, hi - flat);
          const float* x = pa + row.off_a + j * step_a;
          const float* y = pb + row.off_b + j * step_b;
          float* o = po + flat;
          if (step_a != 0 && step_b != 0) {
            for (std::int64_t t = 0; t < len; ++t) o[t] = f(x[t], y[t]);
          } else if (step_a != 0) {
            const float s = *y;
            for (std::int64_t t = 0; t < len; ++t) o[t] = f(x[t], s);
          } else {
            const float s = *x;
            for (std::int64_t t = 0; t < len; ++t) o[t] = f(s, y[t]);
          }
          flat += len;
        }
      });
  return out;
}

// Adds every element of `in` into `out`, which has `in`'s rank with each
// dim equal to `in`'s or 1 and starts zero-filled. Serial, in ascending
// flat order of `in`: each output receives its addends one float add at a
// time in that order, whatever the thread count.
void sum_into(const Tensor& in, Tensor& out, const char* op) {
  if (in.numel() == 0) return;
  const LoopNest nest(in.shape(), in.shape(), out.shape(), op);
  const std::int64_t inner = nest.size[0];
  const std::int64_t rows = in.numel() / inner;
  const float* x = in.data();
  RowCursor row(nest, 0);
  for (std::int64_t r = 0; r < rows; ++r, row.next(nest), x += inner) {
    float* y = out.data() + row.off_b;
    if (nest.stride_b[0] != 0) {
      for (std::int64_t j = 0; j < inner; ++j) y[j] += x[j];
    } else {
      float s = *y;
      for (std::int64_t j = 0; j < inner; ++j) s += x[j];
      *y = s;
    }
  }
}

}  // namespace

Shape broadcast_shape(const Shape& a, const Shape& b, const char* op) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    const std::int64_t da = aligned_dim(a, rank, d);
    const std::int64_t db = aligned_dim(b, rank, d);
    if (da != db && da != 1 && db != 1) {
      throw std::invalid_argument(std::string(op) + ": incompatible shapes " +
                                  shape_string(a) + " and " +
                                  shape_string(b));
    }
    out[d] = da == 1 ? db : da;
  }
  return out;
}

bool broadcastable_to(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  for (std::size_t d = 0; d < to.size(); ++d) {
    const std::int64_t f = aligned_dim(from, to.size(), d);
    if (f != to[d] && f != 1) return false;
  }
  return true;
}

Tensor reduce_to_shape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  if (!broadcastable_to(target, t.shape())) {
    throw std::invalid_argument("reduce_to_shape: " + shape_string(target) +
                                " does not broadcast to " +
                                shape_string(t.shape()));
  }
  const std::size_t rank = t.shape().size();
  Shape padded(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    padded[d] = aligned_dim(target, rank, d);
  }
  Tensor out(std::move(padded));
  sum_into(t, out, "reduce_to_shape");
  return out.reshape(target);
}

Tensor add(const Tensor& a, const Tensor& b) {
  return broadcast(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return broadcast(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return broadcast(a, b, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return broadcast(a, b, [](float x, float y) { return x / y; }, "div");
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}
Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? x : 0.0f; });
}
Tensor sigmoid(const Tensor& a) {
  return unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

void axpy_inplace(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y.shape(), x.shape(), "axpy_inplace");
  float* py = y.data();
  const float* px = x.data();
  runtime::parallel_for(0, y.numel(), kElemwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            py[i] += alpha * px[i];
                          }
                        });
}

// Full floating-point reductions (sum/mean/norms) and the scatter-style
// reductions below stay serial: splitting them across workers would reorder
// the accumulation and break the bitwise thread-count-invariance contract.
float sum_all(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) s += a[i];
  return static_cast<float>(s);
}

float l1_norm(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) s += std::fabs(a[i]);
  return static_cast<float>(s);
}

float l2_norm(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(s));
}

Shape reduce_shape(const Shape& in, const std::vector<std::int64_t>& axes,
                   bool keepdim) {
  const auto rank = static_cast<std::int64_t>(in.size());
  std::vector<bool> reduced(in.size(), false);
  for (std::int64_t ax : axes) {
    if (ax < 0) ax += rank;
    if (ax < 0 || ax >= rank) {
      throw std::invalid_argument("reduce_sum: axis out of range");
    }
    reduced[static_cast<std::size_t>(ax)] = true;
  }
  Shape out;
  for (std::size_t d = 0; d < in.size(); ++d) {
    if (!reduced[d]) {
      out.push_back(in[d]);
    } else if (keepdim) {
      out.push_back(1);
    }
  }
  return out;
}

Tensor reduce_sum(const Tensor& a, const std::vector<std::int64_t>& axes,
                  bool keepdim) {
  Tensor out(reduce_shape(a.shape(), axes, /*keepdim=*/true));
  sum_into(a, out, "reduce_sum");
  if (keepdim) return out;
  return out.reshape(reduce_shape(a.shape(), axes, /*keepdim=*/false));
}

Tensor reduce_mean(const Tensor& a, const std::vector<std::int64_t>& axes,
                   bool keepdim) {
  Tensor s = reduce_sum(a, axes, keepdim);
  const std::int64_t denom = a.numel() / std::max<std::int64_t>(1, s.numel());
  return mul_scalar(s, 1.0f / static_cast<float>(denom));
}

namespace {

// The micro-kernel's view of one strip: every packed strip of A against
// one strip of at most NR columns of B, into C.
struct StripCall {
  std::int64_t k;
  const float* pa;  // packed A: `rows` rows in MR-row strips
  std::int64_t rows;
  const float* pb;  // row p of the B strip: NR floats at pb + b_row[p]
  const std::int64_t* b_row;
  float* c;  // row r of the C strip starts at c + r * ldc
  std::int64_t ldc;
  std::int64_t cols;  // columns of the strip that exist
  // How the strip is stored: with c_col, column j at c_col[j] (none where
  // negative), one float at a time; else NR floats as vectors, where `keep`
  // (if set) marks the lanes that take the result and the others are
  // written back unchanged.
  const std::int64_t* c_col;
  const std::int32_t* keep;
  bool accumulate;
};

// The widest NR of any kernel.
constexpr std::int64_t kMaxNr = kGemmSlack;

// Every packed strip of A against one B strip, one MR x NR register block
// per A strip, each held as MR * NR / Lanes vectors of Lanes floats. Every
// element starts at +0 and adds a*b for p = 0..k-1 in order, then is stored
// or, accumulating, added once to C. The vectors are GCC/Clang vector
// extensions, which lower to the SIMD registers of the calling function's
// target; each lane does one rounded multiply and one rounded add per term,
// so every instantiation gives the same bits.
template <int Lanes, int MR, int NR>
[[gnu::always_inline]] inline void strip_kernel(const StripCall& s) {
  static_assert(NR <= kMaxNr);
  // typedef, not `using`: GCC drops a dependent vector_size on an alias.
  typedef float Vec __attribute__((vector_size(Lanes * sizeof(float))));
  typedef std::int32_t Mask
      __attribute__((vector_size(Lanes * sizeof(std::int32_t))));
  // The same vectors at element alignment, for loads and stores anywhere in
  // an array.
  typedef float VecU __attribute__((vector_size(Lanes * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
  typedef std::int32_t MaskU
      __attribute__((vector_size(Lanes * sizeof(std::int32_t)),
                     aligned(alignof(std::int32_t)), may_alias));
  static_assert(sizeof(Vec) == Lanes * sizeof(float) &&
                alignof(VecU) == alignof(float));
  constexpr int kNV = NR / Lanes;
  const float* pa = s.pa;
  for (std::int64_t r0 = 0; r0 < s.rows; r0 += MR, pa += MR * s.k) {
    Vec acc[MR][kNV];
    for (auto& row : acc) {
      for (Vec& v : row) v = Vec{};  // +0
    }
    for (std::int64_t p = 0; p < s.k; ++p) {
      const VecU* bv = reinterpret_cast<const VecU*>(s.pb + s.b_row[p]);
      for (int r = 0; r < MR; ++r) {
        const float av = pa[p * MR + r];
        for (int v = 0; v < kNV; ++v) acc[r][v] = acc[r][v] + av * bv[v];
      }
    }
    for (std::int64_t r = 0; r < std::min<std::int64_t>(MR, s.rows - r0);
         ++r) {
      float* out = s.c + (r0 + r) * s.ldc;
      if (s.c_col != nullptr) {
        float row[NR];
        for (int v = 0; v < kNV; ++v) {
          *reinterpret_cast<VecU*>(row + v * Lanes) = acc[r][v];
        }
        for (std::int64_t j = 0; j < s.cols; ++j) {
          if (s.c_col[j] < 0) continue;
          float& o = out[s.c_col[j]];
          o = s.accumulate ? o + row[j] : row[j];
        }
        continue;
      }
      for (int v = 0; v < kNV; ++v) {
        VecU* dst = reinterpret_cast<VecU*>(out + v * Lanes);
        Vec val = acc[r][v];
        if (s.accumulate || s.keep != nullptr) {
          const Vec old = *dst;
          if (s.accumulate) val = old + val;
          if (s.keep != nullptr) {
            const Mask keep =
                *reinterpret_cast<const MaskU*>(s.keep + v * Lanes);
            val = keep ? val : old;
          }
        }
        *dst = val;
      }
    }
  }
}

using StripFn = void (*)(const StripCall&);

// The instantiations, each compiled for its instruction set. The target
// strings name no FMA, and -ffp-contract=off would keep a*b and +acc two
// rounded operations even where the target has one.
void strip_sse(const StripCall& s) { strip_kernel<4, 4, 8>(s); }
#if defined(__x86_64__)
[[gnu::target("avx2")]] void strip_avx2(const StripCall& s) {
  strip_kernel<8, 6, 16>(s);
}
// One 16-lane vector per row: at the small n of conv layers this beat both
// AVX2 and an 8 x 32 AVX-512 tile end to end.
[[gnu::target("avx512f")]] void strip_avx512(const StripCall& s) {
  strip_kernel<16, 8, 16>(s);
}
#endif

}  // namespace

struct GemmKernel {
  const char* name;  // instruction set and MR x NR tile
  std::int64_t mr, nr;
  StripFn strip;
};

namespace {

// The kernels this host can run, baseline first and widest last; read once.
const std::vector<GemmKernel>& host_kernels() {
  static const std::vector<GemmKernel> kernels = [] {
#if defined(__x86_64__)
    std::vector<GemmKernel> v{{"sse 4x8", 4, 8, strip_sse}};
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"avx2 6x16", 6, 16, strip_avx2});
    }
    if (__builtin_cpu_supports("avx512f")) {
      v.push_back({"avx512 8x16", 8, 16, strip_avx512});
    }
#else
    std::vector<GemmKernel> v{{"vec4 4x8", 4, 8, strip_sse}};
#endif
    return v;
  }();
  return kernels;
}

// The kernel a live GemmKernelScope names, else null.
std::atomic<const GemmKernel*> scoped_kernel{nullptr};

const GemmKernel& active_kernel() {
  const GemmKernel* scoped = scoped_kernel.load(std::memory_order_acquire);
  return scoped != nullptr ? *scoped : host_kernels().back();
}

// Output tiles of gemm, its unit of parallel work: kTileRows x kTileCols
// of C. kTileRows is a multiple of every kernel's MR (4, 6, 8) and
// kTileCols of every NR (8, 16).
constexpr std::int64_t kTileRows = 96;
constexpr std::int64_t kTileCols = 256;

// Copies rows [r0, r0 + rows) of A (m x k) into mr-row strips, each k x mr
// and k-major; rows past `rows` in the last strip are zero.
void pack_a(const GemmA& a, std::int64_t k, std::int64_t r0,
            std::int64_t rows, std::int64_t mr, float* dst) {
  const std::int64_t strips = (rows + mr - 1) / mr;
  std::fill(dst + (strips - 1) * k * mr, dst + strips * k * mr, 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* out = dst + (r / mr) * k * mr + r % mr;
    const float* src = a.data + (r0 + r) * a.row_step;
    for (std::int64_t p = 0; p < k; ++p) out[p * mr] = src[p * a.col_step];
  }
}

// Room for the gathered B strips of one product, k rows of nr floats, and
// their row offsets: on the stack when they fit, as every grad-weight strip
// of the quick and full models' convs does, else allocated. Set up on first
// use, since most products read B in place.
class GatherStrip {
 public:
  // The strip's floats; rows() holds row p's offset, p * nr. Every call
  // passes the same k and nr.
  float* get(std::int64_t k, std::int64_t nr) {
    if (rows_ == nullptr) {
      data_ = local_;
      rows_ = local_row_;
      if (k * nr > kLocal) {
        heap_ = std::make_unique_for_overwrite<float[]>(
            static_cast<std::size_t>(k * nr));
        heap_row_ = std::make_unique_for_overwrite<std::int64_t[]>(
            static_cast<std::size_t>(k));
        data_ = heap_.get();
        rows_ = heap_row_.get();
      }
      for (std::int64_t p = 0; p < k; ++p) rows_[p] = p * nr;
    }
    return data_;
  }
  const std::int64_t* rows() const { return rows_; }

 private:
  // kLocal / 8 rows suffice: every kernel's nr is 8 or more.
  static constexpr std::int64_t kLocal = 8192;
  float local_[kLocal];
  std::int64_t local_row_[kLocal / 8];
  float* data_ = nullptr;
  std::int64_t* rows_ = nullptr;
  std::unique_ptr<float[]> heap_;
  std::unique_ptr<std::int64_t[]> heap_row_;
};

// Every packed strip of A (`rows` rows) against columns [0, n) of B into C,
// one kernel call per strip of nr columns.
void run_strips(const GemmKernel& kernel, std::int64_t k, const float* pa,
                std::int64_t rows, std::int64_t n, const GemmB& b,
                const GemmC& c, GatherStrip& gather) {
  const std::int64_t nr = kernel.nr;
  for (std::int64_t c0 = 0; c0 < n; c0 += nr) {
    const std::int64_t cols = std::min(nr, n - c0);
    // Column j of the strip: its offset in B's rows and in C's rows.
    const auto b_at = [&](std::int64_t j) {
      return b.col != nullptr ? b.col[c0 + j] : c0 + j;
    };
    const auto c_at = [&](std::int64_t j) {
      return c.col != nullptr ? c.col[c0 + j] : c0 + j;
    };
    StripCall call{k,    pa,   rows,    nullptr, nullptr,     nullptr,
                   c.ld, cols, nullptr, nullptr, c.accumulate};
    bool in_place = cols == nr || b.slack;
    for (std::int64_t j = 1; j < cols && in_place; ++j) {
      in_place = b_at(j) == b_at(0) + j;
    }
    if (in_place) {
      call.pb = b.data + b_at(0);
      call.b_row = b.row;
    } else {
      float* strip = gather.get(k, nr);
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = b.data + b.row[p];
        float* dst = strip + p * nr;
        for (std::int64_t j = 0; j < cols; ++j) dst[j] = src[b_at(j)];
        std::fill(dst + cols, dst + nr, 0.0f);
      }
      call.pb = strip;
      call.b_row = gather.rows();
    }
    // C: if every stored column j sits at from + j for one `from`, the
    // strip is stored as vectors at `from`: whole ones when all nr columns
    // are stored, else masked ones, which need C's slack. Otherwise it is
    // stored one float at a time.
    std::int32_t keep[kMaxNr] = {};
    std::int64_t from = 0, stored = 0;
    bool aligned = true;
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t at = c_at(j);
      if (at < 0) continue;
      if (stored == 0) from = at - j;
      aligned = aligned && at == from + j;
      keep[j] = -1;
      ++stored;
    }
    if (stored == 0) continue;
    std::int64_t col[kMaxNr];
    if (aligned && from >= 0 && (stored == nr || c.slack)) {
      call.c = c.data + from;
      if (stored < nr) call.keep = keep;
    } else {
      for (std::int64_t j = 0; j < cols; ++j) col[j] = c_at(j);
      call.c = c.data;
      call.c_col = col;
    }
    kernel.strip(call);
  }
}

}  // namespace

GemmPackedA::GemmPackedA(std::int64_t m, std::int64_t k, const GemmA& a)
    : kernel_(&active_kernel()), m_(m), k_(k) {
  const std::int64_t mr = kernel_->mr;
  const std::int64_t floats = (m + mr - 1) / mr * mr * k;
  data_ = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(std::max<std::int64_t>(floats, 1)));
  if (m > 0) pack_a(a, k, 0, m, mr, data_.get());
}

void gemm_packed(const GemmPackedA& a, std::int64_t n, const GemmB& b,
                 const GemmC& c) {
  if (a.m_ <= 0 || n <= 0) return;
  GatherStrip gather;
  run_strips(*a.kernel_, a.k_, a.data_.get(), a.m_, n, b, c, gather);
}

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  const GemmKernel& kernel = active_kernel();
  const GemmA ga{a, trans_a ? 1 : lda, trans_a ? lda : 1};
  // op(B)(p, j) is at p * ldb + j, or at p + j * ldb when transposed.
  std::vector<std::int64_t> b_row(static_cast<std::size_t>(k));
  for (std::int64_t p = 0; p < k; ++p) b_row[p] = trans_b ? p : p * ldb;
  std::vector<std::int64_t> b_col;
  if (trans_b) {
    b_col.resize(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) b_col[j] = j * ldb;
  }
  const std::int64_t row_tiles = (m + kTileRows - 1) / kTileRows;
  const std::int64_t col_tiles = (n + kTileCols - 1) / kTileCols;
  // Tiles write disjoint blocks of C and each element's sum runs whole
  // inside one micro-kernel call, so neither the kernel, the tile shape nor
  // the thread split can change a result.
  runtime::parallel_for(
      0, row_tiles * col_tiles,
      runtime::grain_for_cost(std::min(m, kTileRows) *
                              std::min(n, kTileCols) *
                              std::max<std::int64_t>(k, 1)),
      [&](std::int64_t lo, std::int64_t hi) {
        // The tile's rows of op(A), packed once and reused by every strip
        // of B.
        const auto packed_a = std::make_unique_for_overwrite<float[]>(
            static_cast<std::size_t>(kTileRows *
                                     std::max<std::int64_t>(k, 1)));
        GatherStrip gather;
        for (std::int64_t t = lo; t < hi; ++t) {
          const std::int64_t ct = t / row_tiles, rt = t % row_tiles;
          const std::int64_t r0 = rt * kTileRows, c0 = ct * kTileCols;
          const std::int64_t rows = std::min(kTileRows, m - r0);
          pack_a(ga, k, r0, rows, kernel.mr, packed_a.get());
          const GemmB tile_b{trans_b ? b : b + c0, b_row.data(),
                             trans_b ? b_col.data() + c0 : nullptr, false};
          const GemmC tile_c{c + r0 * ldc + c0, ldc, nullptr, false, false};
          run_strips(kernel, k, packed_a.get(), rows,
                     std::min(kTileCols, n - c0), tile_b, tile_c, gather);
        }
      });
}

const char* gemm_kernel_name() { return host_kernels().back().name; }

std::vector<std::string> gemm_host_kernels() {
  std::vector<std::string> names;
  for (const GemmKernel& kernel : host_kernels()) names.emplace_back(kernel.name);
  return names;
}

GemmKernelScope::GemmKernelScope(const std::string& kernel) {
  for (const GemmKernel& candidate : host_kernels()) {
    if (kernel == candidate.name) {
      scoped_kernel.store(&candidate, std::memory_order_release);
      return;
    }
  }
  throw std::invalid_argument("gemm: kernel '" + kernel +
                              "' does not run on this host");
}

GemmKernelScope::~GemmKernelScope() {
  scoped_kernel.store(nullptr, std::memory_order_release);
}

Shape matmul_shape(const Shape& a, const Shape& b, bool trans_a,
                   bool trans_b) {
  if (a.size() != 2 || b.size() != 2 ||
      a[trans_a ? 0 : 1] != b[trans_b ? 1 : 0]) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_string(a) + (trans_a ? "^T" : "") +
                                " and " + shape_string(b) +
                                (trans_b ? "^T" : ""));
  }
  return {a[trans_a ? 1 : 0], b[trans_b ? 0 : 1]};
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  Tensor out(matmul_shape(a.shape(), b.shape(), trans_a, trans_b));
  const std::int64_t m = out.size(0), n = out.size(1);
  const std::int64_t k = a.size(trans_a ? 0 : 1);
  gemm(trans_a, trans_b, m, n, k, a.data(), a.size(1), b.data(), b.size(1),
       out.data(), n);
  return out;
}

void check_rows(const Shape& s, const char* op) {
  if (s.size() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank 2");
  }
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  check_rows(a.shape(), "argmax_rows");
  const std::int64_t rows = a.size(0), cols = a.size(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  runtime::parallel_for(0, rows, runtime::grain_for_cost(cols),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const float* row = a.data() + i * cols;
                            std::int64_t best = 0;
                            for (std::int64_t j = 1; j < cols; ++j) {
                              if (row[j] > row[best]) best = j;
                            }
                            out[static_cast<std::size_t>(i)] = best;
                          }
                        });
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  check_rows(a.shape(), "log_softmax_rows");
  const std::int64_t rows = a.size(0), cols = a.size(1);
  Tensor out(a.shape());
  // Row-local reductions only; rows are independent, so parallelizing over
  // rows never reorders a floating-point sum.
  runtime::parallel_for(
      0, rows, runtime::grain_for_cost(cols),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* row = a.data() + i * cols;
          float* orow = out.data() + i * cols;
          float mx = row[0];
          for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
          double denom = 0.0;
          for (std::int64_t j = 0; j < cols; ++j) {
            denom += std::exp(row[j] - mx);
          }
          const float log_denom = static_cast<float>(std::log(denom));
          for (std::int64_t j = 0; j < cols; ++j) {
            orow[j] = row[j] - mx - log_denom;
          }
        }
      });
  return out;
}

}  // namespace bd
