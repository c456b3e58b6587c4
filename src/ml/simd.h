// Vectorized scoring kernels for the read path. Every dot product in the
// system — FeatureVector::Dot, the zero-copy FeatureVectorView scans, the
// SGD axpy, the RFF projections — funnels through these so that all five
// architectures compute bit-identical eps values no matter which build
// variant is running.
//
// Bit-compatibility contract: each kernel defines a *canonical* summation
// order — four fused-multiply-add accumulator stripes (lane j sums elements
// i ≡ j mod 4) reduced as (a0 + a2) + (a1 + a3), then an fma tail — and both
// the scalar reference (`*Scalar`, always compiled) and the AVX2/FMA
// implementation realize exactly that order. A 256-bit fmadd over doubles is
// the same four fma stripes in one register, so the two paths agree to the
// last ulp; tests/ml_simd_test.cc asserts it.
//
// Dispatch is at RUNTIME: when the build compiled the AVX2 TU
// (ml/simd_avx2.cc, the only file built with -mavx2 -mfma), each kernel
// checks cpuid once and routes accordingly — a binary built on an AVX2
// machine still runs (scalar) on hardware without it. -DHAZY_SIMD=OFF
// drops the AVX2 TU entirely. Either way results are bit-identical, so
// water-line and Skiing decisions never drift across builds or machines.
//
// All kernels tolerate unaligned inputs: tuple bytes come straight out of
// slotted pages at arbitrary offsets, so loads go through memcpy (scalar)
// or unaligned-load intrinsics (AVX2), never through a typed dereference.

#ifndef HAZY_ML_SIMD_H_
#define HAZY_ML_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/vector.h"

namespace hazy::ml::simd {

/// Name of the kernel set the build dispatches to ("avx2-fma" or "scalar").
/// Benchmarks report it so BENCH_*.json rows identify the code path.
const char* KernelName();

// ---------------------------------------------------------------------------
// Scalar reference kernels (canonical summation order, always compiled).
// ---------------------------------------------------------------------------

/// Dense dot over n unaligned doubles: sum x[i] * w[i].
double DotDenseScalar(const double* x, const double* w, size_t n);

/// Sparse gather-dot: sum val[i] * w[idx[i]], treating w[j] = 0 for
/// j >= wn. `idx` must be strictly increasing (so one bounds check on the
/// last index covers the whole vector).
double DotSparseScalar(const uint32_t* idx, const double* val, size_t nnz,
                       const double* w, size_t wn);

// ---------------------------------------------------------------------------
// Dispatched kernels (AVX2/FMA when the build enables it, else the scalar
// reference; bit-identical either way).
// ---------------------------------------------------------------------------

double DotDense(const double* x, const double* w, size_t n);
double DotSparse(const uint32_t* idx, const double* val, size_t nnz,
                 const double* w, size_t wn);

/// w[i] = fma(scale, x[i], w[i]) for i in [0, n). Element-wise, so SIMD and
/// scalar are trivially bit-identical (both use fused multiply-add).
void AxpyDense(double scale, const double* x, double* w, size_t n);

/// w[idx[i]] = fma(scale, val[i], w[idx[i]]). Scatter stays scalar (AVX2
/// has no scatter) but uses fma for cross-path identity.
void AxpySparse(double scale, const uint32_t* idx, const double* val,
                size_t nnz, double* w);

/// w[i] *= s for i in [0, n) — the SGD regularization shrink.
void Scale(double* w, size_t n, double s);

/// Sum of squared differences over two dense arrays (RBF kernel distance).
double SquaredDistance(const double* x, const double* y, size_t n);

/// Sum of |x[i] - y[i]| (Laplacian kernel distance).
double L1Distance(const double* x, const double* y, size_t n);

// ---------------------------------------------------------------------------
// Strip scoring: the blocked read-path primitive. Scores a strip of N
// feature-vector views against one weight vector per pass, writing
// eps[i] = dot(views[i], w) - b. This is what the heap-page and window
// scans call once per strip instead of once per tuple, keeping the weight
// vector hot in cache and the per-tuple dispatch cost amortized.
// ---------------------------------------------------------------------------

void ScoreStrip(const FeatureVectorView* views, size_t n, const double* w,
                size_t wn, double b, double* eps_out);

/// Convenience over a model weight vector.
inline void ScoreStrip(const FeatureVectorView* views, size_t n,
                       const std::vector<double>& w, double b, double* eps_out) {
  ScoreStrip(views, n, w.data(), w.size(), b, eps_out);
}

namespace detail {
/// Shared guarded sparse path (indices may exceed wn); one definition so
/// the scalar and AVX2 kernels cannot diverge on it.
double DotSparseGuarded(const uint32_t* idx, const double* val, size_t nnz,
                        const double* w, size_t wn);
}  // namespace detail

#ifdef HAZY_HAVE_AVX2
/// The AVX2/FMA bodies (ml/simd_avx2.cc). Call through the dispatched
/// top-level functions, not directly — these assume cpuid support.
namespace avx2 {
double DotDense(const double* x, const double* w, size_t n);
double DotSparse(const uint32_t* idx, const double* val, size_t nnz,
                 const double* w, size_t wn);
void AxpyDense(double scale, const double* x, double* w, size_t n);
void Scale(double* w, size_t n, double s);
double SquaredDistance(const double* x, const double* y, size_t n);
double L1Distance(const double* x, const double* y, size_t n);
void ScoreStrip(const FeatureVectorView* views, size_t n, const double* w,
                size_t wn, double b, double* eps_out);
}  // namespace avx2
#endif  // HAZY_HAVE_AVX2

}  // namespace hazy::ml::simd

#endif  // HAZY_ML_SIMD_H_
