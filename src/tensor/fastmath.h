// Branch-free scalar math shared by the elementwise kernels.
//
// FastExp lived as a private helper inside tensor_ops.cc; it moved here so
// the fused GRU op (nn/gru.cc) computes its sigmoid/tanh gates with the
// EXACT same polynomial the tensor-level Sigmoid/Tanh kernels use — the
// fused forward stays bit-identical to the op-composed forward it
// replaced.
//
// Written for GCC's loop vectorizer under the Release flags (-O3 -mavx2
// -mfma, default -ftrapping-math), which leaves a loop scalar if its body
// calls std::floor or selects between floats with std::min / std::max:
//   * the clamp is two bit selects (Select below) with the comparisons
//     std::max(-87.0f, x) and std::min(88.0f, x) make, so NaN still maps
//     to -87;
//   * floor is truncate-and-adjust on int32, exact because the argument
//     lies in (-126, 128) after the clamp, and the exponent bits of 2^z
//     come from that integer.
// Every arithmetic expression is unchanged, so FMA contraction and every
// result bit are too (tests/tensor_ops_test.cc holds all three functions
// to the std::floor / std::min / std::max formula). The loops this makes
// vectorize: tensor Sigmoid / Tanh (tensor_ops.cc) and the GRU cell rows
// (nn/gru.cc). Check with -fopt-info-vec.
#ifndef DAR_TENSOR_FASTMATH_H_
#define DAR_TENSOR_FASTMATH_H_

#include <cstdint>
#include <cstring>

namespace dar {
namespace fastmath {

/// c ? a : b on the bits of a and b, which the vectorizer lowers to a
/// compare and a blend.
inline float Select(bool c, float a, float b) {
  uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  const uint32_t mask = 0u - static_cast<uint32_t>(c);
  const uint32_t bits = (ua & mask) | (ub & ~mask);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// Branch-free single-precision e^x (Cephes-style range reduction plus a
// degree-5 polynomial), |relative error| < 2e-7 across the clamped range.
// Plain arithmetic end to end, so elementwise sigmoid/tanh loops
// auto-vectorize instead of calling scalar libm — those kernels run
// hundreds of thousands of libm calls per batched forward otherwise.
inline float FastExp(float x) {
  x = Select(-87.0f < x, x, -87.0f);  // std::max(-87.0f, x)
  x = Select(x < 88.0f, x, 88.0f);    // std::min(88.0f, x)
  const float v = x * 1.44269504089f + 0.5f;
  int32_t zi = static_cast<int32_t>(v);       // round(x / ln 2): truncate,
  zi -= static_cast<float>(zi) > v ? 1 : 0;   // then step down to floor
  const float z = static_cast<float>(zi);
  x -= z * 0.693359375f;                      // ln 2, high part
  x -= z * -2.12194440e-4f;                   // ln 2, low part
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * x * x + x + 1.0f;
  // 2^z via exponent bits; z is within [-126, 127] after the clamp, so the
  // bit pattern is a valid normal float.
  uint32_t bits = static_cast<uint32_t>(zi + 127) << 23;
  float pow2;
  std::memcpy(&pow2, &bits, sizeof(pow2));
  return y * pow2;
}

/// The library's sigmoid: 1 / (1 + FastExp(-x)). One home for the formula
/// so the tensor kernel and the fused GRU gates cannot drift apart.
inline float FastSigmoid(float x) { return 1.0f / (1.0f + FastExp(-x)); }

/// The library's tanh: 2 / (1 + FastExp(-2x)) - 1.
inline float FastTanh(float x) {
  return 2.0f / (1.0f + FastExp(-2.0f * x)) - 1.0f;
}

}  // namespace fastmath
}  // namespace dar

#endif  // DAR_TENSOR_FASTMATH_H_
