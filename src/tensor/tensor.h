// Dense row-major float32 tensor.
//
// This is the storage substrate underneath the autograd engine and all
// neural-network modules. It deliberately supports only what the
// rationalization pipeline needs: contiguous row-major float data with up to
// four dimensions, value semantics, and a small set of factory functions.
// Compute kernels live in tensor_ops.h; where the bytes live is
// storage.h's business.
#ifndef DAR_TENSOR_TENSOR_H_
#define DAR_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tensor/random.h"
#include "tensor/storage.h"

namespace dar {

/// Shape of a tensor: a list of dimension sizes, outermost first.
using Shape = std::vector<int64_t>;

/// Returns the number of elements implied by `shape` (1 for a scalar shape).
int64_t NumElements(const Shape& shape);

/// Human-readable "[2, 3, 4]" rendering of a shape.
std::string ShapeToString(const Shape& shape);

/// A dense, contiguous, row-major float32 tensor with value semantics.
///
/// Copying copies the buffer; moving steals it. Rank 0 (scalar) through
/// rank 4 are supported. Indexing helpers are provided for ranks 1–3, which
/// covers every access pattern in the library ([batch], [batch, dim],
/// [batch, time, dim]).
class Tensor {
 public:
  /// Creates an empty tensor (rank 1, zero elements).
  Tensor();

  /// Creates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Creates a tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);

  /// Creates a tensor holding a copy of `values`; sizes must agree.
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  // ---- Factories ----------------------------------------------------------

  /// All zeros.
  static Tensor Zeros(Shape shape);

  /// Scratch buffer the caller promises to FULLY overwrite before any
  /// element is read. Its elements are not written: a reused buffer holds
  /// whatever its last owner left. When the sentinel poison mode is on
  /// (check::SetPoisonScratch) every element is NaN instead, so a kernel
  /// that breaks the promise and reads an unwritten element produces a NaN
  /// the op-level sentinels attribute; check::AuditMethodByName runs every
  /// architecture that way.
  static Tensor Scratch(Shape shape);

  /// All ones.
  static Tensor Ones(Shape shape);

  /// All elements equal to `value`.
  static Tensor Full(Shape shape, float value);

  /// A scalar (rank-0) tensor.
  static Tensor Scalar(float value);

  /// 1-D tensor from explicit values.
  static Tensor FromVector(std::vector<float> values);

  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Pcg32& rng, float stddev = 1.0f);

  /// I.i.d. Uniform[lo, hi) entries.
  static Tensor Rand(Shape shape, Pcg32& rng, float lo = 0.0f, float hi = 1.0f);

  /// Identity matrix of size n x n.
  static Tensor Eye(int64_t n);

  /// [start, start+step, ...], `count` entries.
  static Tensor Arange(int64_t count, float start = 0.0f, float step = 1.0f);

  // ---- Introspection ------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  TensorData& vec() { return data_; }
  const TensorData& vec() const { return data_; }

  // ---- Element access (bounds-checked) ------------------------------------

  /// Scalar value of a rank-0 or single-element tensor.
  float item() const;

  float& at(int64_t i);
  float at(int64_t i) const;
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;

  /// Flat (linear) access without shape interpretation.
  float& flat(int64_t i);
  float flat(int64_t i) const;

  // ---- Whole-tensor utilities ---------------------------------------------

  /// Returns a tensor with the same data and a new shape; element counts
  /// must match. This is a copy (buffers are value-semantic).
  Tensor Reshape(Shape new_shape) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// True if shapes are equal and all elements differ by at most `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  /// "Tensor([2, 3]) [[...], [...]]" preview (truncated for large tensors).
  std::string ToString(int64_t max_per_dim = 8) const;

 private:
  struct Unwritten {};
  /// A tensor of `shape` whose elements are not written.
  Tensor(Shape shape, Unwritten);

  Shape shape_;
  TensorData data_;
};

}  // namespace dar

#endif  // DAR_TENSOR_TENSOR_H_
