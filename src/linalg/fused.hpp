// Fused elementwise kernels for the RPCA iteration loop.
//
// The solver's algebra was originally written as chains of Matrix
// operator+/-/* calls; each link allocated (and zero-faulted) a fresh
// m x n temporary and made an extra pass over memory. Every kernel here
// computes one full right-hand side in a single pass and writes into a
// caller-owned output, so an APG iteration touches each matrix exactly
// once and allocates nothing (see docs/PERFORMANCE.md).
//
// Bit-exactness contract: each kernel performs the same floating-point
// operations, in the same per-element order, as the operator chain it
// replaces — this is what lets the workspace solvers match the reference
// solvers exactly (tests/rpca/workspace_equivalence_test.cpp). The
// elementwise kernels parallelize over the shared pool with a coarse
// grain, which is safe because every output element is computed
// independently; the reductions run on the calling thread.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

/// The whole APG gradient step plus the sparse-block prox in
/// one pass. With the extrapolated points yd = d + (d - d_prev) * c and
/// ye = e + (e - e_prev) * c and the shared residual r = (yd + ye) - a,
/// writes gd = yd - r * inv_lf and e_next = soft-threshold(ye - r *
/// inv_lf, soft_tau) without materializing yd, ye, r, or the raw ge: six
/// kernel launches (eighteen passes over m x n memory) become one launch
/// with seven passes. The per-element operation order is exactly that
/// of the reference's Matrix operator chain (rpca/reference.cpp) — the
/// extrapolation, the residual, both gradient steps, then the soft
/// threshold — which is what keeps the proximal solvers bit-exact.
void gradient_step(const Matrix& d, const Matrix& d_prev, const Matrix& e,
                   const Matrix& e_prev, const Matrix& a, double c,
                   double inv_lf, double soft_tau, Matrix& gd,
                   Matrix& e_next);

/// out = a - b.
void sub(const Matrix& a, const Matrix& b, Matrix& out);

/// out = soft-threshold(src, tau): sign(v) * max(|v| - tau, 0) without
/// the copy the out-of-place soft_threshold makes. The solvers fuse the
/// threshold into gradient_step and rank1_polish_pass; this one-kernel
/// form is the oracle those passes are tested against.
void soft_threshold_into(const Matrix& src, double tau, Matrix& out);

/// One iteration of the rank-1 polish after its power iteration, in a
/// single pass: given the factors u (= A_t v, length rows) and v (length
/// cols) of the new low-rank iterate, writes
///   d      = u v^T                    (d(i, j) = u[i] * v[j])
///   e      = soft-threshold(a - d, tau)
///   target = a - e                    (the next power iteration's input)
/// and the sums change_sq = sum (d - d_prev)^2 + (e - e_prev)^2,
/// scale_sq = sum d^2 + e^2 and residual_sq = sum ((a - d) - e)^2 over
/// the new d and e (linalg::residual_norm's square, bit for bit). The
/// elementwise work is vectorized, but every sum adds its per-element
/// terms one at a time in index order — the scalar loop's association —
/// so unlike iterate_change_norms the result is bit-identical at every
/// SIMD level, and so are the polish's convergence decisions. Requires
/// tau >= 0. d may be d_prev and e may be e_prev (the polish writes its
/// iterates in place): every body loads an element's d_prev and e_prev
/// before it stores that element's d and e. target must not alias any
/// other argument, nor d and e alias a or each other.
void rank1_polish_pass(const Matrix& a, std::span<const double> u,
                       std::span<const double> v, double tau,
                       const Matrix& d_prev, const Matrix& e_prev, Matrix& d,
                       Matrix& e, Matrix& target, double& change_sq,
                       double& scale_sq, double& residual_sq);

/// rank1_polish_pass without the previous iterates: one pass writing
///   d      = u v^T
///   e      = soft-threshold(a - d, tau)
///   target = a - e
/// and no sums. It is the rank-1 Huber fit's finishing pass: it leaves
/// the fit's (D, E) and, in `target`, the power-iteration input the
/// closing alternation opens with. Same row body and per-element
/// operations as rank1_polish_pass, so bit-identical at every SIMD
/// level. Requires tau >= 0; d, e and target must not alias a.
void rank1_finish_pass(const Matrix& a, std::span<const double> u,
                       std::span<const double> v, double tau, Matrix& d,
                       Matrix& e, Matrix& target);

/// One sweep of the rank-1 Huber fit's exact 1-D minimisations: for
/// every column k of `b`, writes
///   next[k] = argmin_x sum_t h_tau(b(t, k) - c[t] x),   started at x[k],
/// where h_tau is the Huber function and `bt` holds b^T. Each fit is a
/// bracketed semismooth Newton (rpca::rank1_huber_fit describes it).
/// Under AVX2 the fits run in lanes, four to a vector, lane l of a
/// vector starting at column k reading b[t * b.cols() + k + l]. The
/// vectors start at columns 0, 4, 8, ... and, when the column count is
/// not a multiple of 4, at cols - 4, refitting up to three columns to
/// the same values. A pass over the terms advances a group of vectors
/// at once: all of them when there are at most four (the u-sweep of a
/// 10-row window: vectors at columns 0, 4 and 6), otherwise two (the
/// last one alone when their number is odd). Every lane repeats the
/// scalar fit's operations in the same order, leaves its group at its
/// own evaluation count, and hands a fit that needs a bisection step to
/// the scalar code with its exact state. The scalar fits — every fit at
/// the other levels, every fit of a b with fewer than four columns, and
/// the handoffs — read the contiguous rows of `bt`. The result is
/// therefore bit-identical at every SIMD level. A fit whose Newton step
/// rounds to its own start ends there: a fit started at its own
/// minimiser (a sweep after convergence) takes one evaluation of g'
/// instead of bisecting down from the outermost kinks. When
/// `evaluations` is not empty (one entry per fit), each fit writes the
/// evaluations of g' it took, the same at every level. Requires tau >= 0
/// and c.size() == b.rows(); `next` must not alias `x` or `c`.
void huber_fit_columns(const Matrix& b, const Matrix& bt,
                       std::span<const double> c, double tau,
                       std::span<const double> x, std::span<double> next,
                       std::span<int> evaluations = {});

/// The rank-1 Huber fit's Newton pass (rpca::rank1_huber_fit): one pass
/// over `a` at the factors u (length rows) and v (length cols, each v_j
/// the minimiser of its column against u). With r = a - u v^T,
/// psi = clamp(r, -tau, tau) and q = 1 where r is on h_tau's quadratic
/// piece (0 elsewhere), it returns the objective
///   F = sum_ij psi (r - psi / 2)           (= sum h_tau(r))
/// and writes the gradient of the reduced objective F(u, v(u))
///   gradient[i] = -sum_j psi_ij v_j.
/// It leaves in `lanes` what huber_newton_hessian needs. Every sum runs
/// in four column lanes, lane l taking the columns j = l mod 4 in index
/// order (within a column, i in index order); the lanes add as
/// ((l0 + l1) + l2) + l3. Under AVX2 a vector holds four adjacent
/// columns, one per lane; the scalar and NEON levels, and the last
/// cols mod 4 columns, take one column at a time into the same lanes,
/// so the result is bit-identical at every level.
double huber_newton_pass(const Matrix& a, std::span<const double> u,
                         std::span<const double> v, double tau,
                         std::span<double> gradient, Matrix& lanes);

/// The reduced objective's Hessian (rows x rows) at the point of the
/// last huber_newton_pass on a rows x cols window, from the `lanes` it
/// left:
///   hessian = diag_i(sum_j q_ij v_j^2) - sum_j w_j b_j b_j^T,
///   b_ij = q_ij u_i v_j - psi_ij,  w_j = 1 / sum_i q_ij u_i^2
/// (w_j = 0 when that sum is 0). Entry (k, i) adds (b_kj w_j) b_ij in
/// the pass's column lanes; under AVX2 a group of entries streams the
/// rows of b with their lanes in registers. Bit-identical at every
/// level. The fit calls it only where it takes a Newton step.
void huber_newton_hessian(std::size_t rows, std::size_t cols, Matrix& lanes,
                          Matrix& hessian);

/// Fused convergence reduction of the proximal solvers: one pass
/// computing change_sq = ||D - D_prev||_F^2 + ||E - E_prev||_F^2 and
/// scale_sq = ||D||_F^2 + ||E||_F^2, in the exact interleaved
/// accumulation order the in-solver loop used (scalar path). Under a
/// SIMD level the accumulators are lane-split — deterministic for a
/// fixed level but reassociated, which is why only the workspace
/// solvers call this and rpca::reference keeps its own loop.
void iterate_change_norms(const Matrix& d, const Matrix& d_prev,
                          const Matrix& e, const Matrix& e_prev,
                          double& change_sq, double& scale_sq);

}  // namespace netconst::linalg
