// Level-2/3 kernels on Matrix. gemm is cache-blocked and parallelized
// over row panels via the shared thread pool; everything downstream
// (Gram matrices for the SVD fast path, RPCA iterations) sits on top.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Matrix multiply(const Matrix& a, const Matrix& b);

/// C = A^T * A (n x n), exploiting symmetry.
Matrix gram(const Matrix& a);

/// C = A * A^T (m x m), exploiting symmetry.
Matrix outer_gram(const Matrix& a);

/// outer_gram writing into caller-owned storage (resized to m x m,
/// reusing capacity). Numerically identical to outer_gram; performs no
/// allocation once `g` has capacity.
void outer_gram_into(const Matrix& a, Matrix& g);

/// y = A * x.
std::vector<double> multiply(const Matrix& a, std::span<const double> x);

/// y = A * x into a preallocated y (y.size() == a.rows()).
void multiply_into(const Matrix& a, std::span<const double> x,
                   std::span<double> y);

/// y = A^T * x.
std::vector<double> multiply_transposed(const Matrix& a,
                                        std::span<const double> x);

/// y = A^T * x into a preallocated y (y.size() == a.cols()).
void multiply_transposed_into(const Matrix& a, std::span<const double> x,
                              std::span<double> y);

/// y = 0.0 + w_0 * r_0 + w_1 * r_1 + ... in ascending k, skipping every
/// row whose weight is zero; a y with no nonzero weight is all +0.0.
/// Row k is rows[k * row_stride .. + y.size()) and its weight is
/// weights[k * weight_stride]. Per element this is exactly a zero fill
/// followed by axpy(w_k, r_k, y) for each nonzero w_k, so it is
/// bit-identical to that form at every SIMD level; the columns stay in
/// registers across the rows instead of one pass over y per row.
void weighted_row_sum(const double* weights, std::size_t weight_stride,
                      const double* rows, std::size_t row_stride,
                      std::size_t count, std::span<double> y);

/// Dot product.
double dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm of a vector.
double norm2(std::span<const double> x);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y = 0.0 + alpha * x. The explicit leading 0.0 matches the first
/// accumulation onto a zero-filled output bitwise (it turns a -0.0
/// product into +0.0, exactly as `0.0 += v` would).
void scaled_set(double alpha, std::span<const double> x,
                std::span<double> y);

/// x *= alpha.
void scale(double alpha, std::span<double> x);

}  // namespace netconst::linalg
