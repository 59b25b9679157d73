#include "tensor/tensor.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "check/sentinel.h"
#include "tensor/check.h"

namespace dar {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DAR_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor() : shape_{0} {}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  DAR_CHECK_LE(shape_.size(), 4u);
  data_.assign(static_cast<size_t>(NumElements(shape_)), 0.0f);
}

Tensor::Tensor(Shape shape, float value) : shape_(std::move(shape)) {
  DAR_CHECK_LE(shape_.size(), 4u);
  data_.assign(static_cast<size_t>(NumElements(shape_)), value);
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(values.begin(), values.end()) {
  DAR_CHECK_LE(shape_.size(), 4u);
  DAR_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data_.size()));
}

Tensor::Tensor(Shape shape, Unwritten)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(NumElements(shape_))) {
  DAR_CHECK_LE(shape_.size(), 4u);
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Scratch(Shape shape) {
  Tensor t(std::move(shape), Unwritten{});
  if (check::PoisonEnabled()) t.Fill(std::numeric_limits<float>::quiet_NaN());
  return t;
}

Tensor Tensor::Ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  return Tensor(std::move(shape), value);
}

Tensor Tensor::Scalar(float value) { return Tensor(Shape{}, value); }

Tensor Tensor::FromVector(std::vector<float> values) {
  Shape shape{static_cast<int64_t>(values.size())};
  return Tensor(std::move(shape), std::move(values));
}

Tensor Tensor::Randn(Shape shape, Pcg32& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.Normal(0.0f, stddev);
  return t;
}

Tensor Tensor::Rand(Shape shape, Pcg32& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::Arange(int64_t count, float start, float step) {
  Tensor t(Shape{count});
  for (int64_t i = 0; i < count; ++i) t.flat(i) = start + step * static_cast<float>(i);
  return t;
}

int64_t Tensor::size(int64_t axis) const {
  if (axis < 0) axis += dim();
  DAR_CHECK_GE(axis, 0);
  DAR_CHECK_LT(axis, dim());
  return shape_[static_cast<size_t>(axis)];
}

float Tensor::item() const {
  DAR_CHECK_EQ(numel(), 1);
  return data_[0];
}

float& Tensor::at(int64_t i) {
  DAR_CHECK_EQ(dim(), 1);
  DAR_CHECK_GE(i, 0);
  DAR_CHECK_LT(i, shape_[0]);
  return data_[static_cast<size_t>(i)];
}

float Tensor::at(int64_t i) const { return const_cast<Tensor*>(this)->at(i); }

float& Tensor::at(int64_t i, int64_t j) {
  DAR_CHECK_EQ(dim(), 2);
  DAR_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float Tensor::at(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  DAR_CHECK_EQ(dim(), 3);
  DAR_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
            k < shape_[2]);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float& Tensor::flat(int64_t i) {
  DAR_CHECK(i >= 0 && i < numel());
  return data_[static_cast<size_t>(i)];
}

float Tensor::flat(int64_t i) const { return const_cast<Tensor*>(this)->flat(i); }

Tensor Tensor::Reshape(Shape new_shape) const {
  DAR_CHECK_EQ(NumElements(new_shape), numel());
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ToString(int64_t max_per_dim) const {
  std::ostringstream os;
  os << "Tensor(" << ShapeToString(shape_) << ")";
  if (dim() <= 2) {
    os << " [";
    int64_t rows = dim() == 2 ? shape_[0] : 1;
    int64_t cols = dim() == 2 ? shape_[1] : numel();
    for (int64_t i = 0; i < std::min(rows, max_per_dim); ++i) {
      if (dim() == 2) os << (i ? ", [" : "[");
      for (int64_t j = 0; j < std::min(cols, max_per_dim); ++j) {
        if (j) os << ", ";
        os << data_[static_cast<size_t>(i * cols + j)];
      }
      if (cols > max_per_dim) os << ", ...";
      if (dim() == 2) os << "]";
    }
    if (rows > max_per_dim) os << ", ...";
    os << "]";
  }
  return os.str();
}

}  // namespace dar
