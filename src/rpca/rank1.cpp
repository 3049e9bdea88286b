#include "rpca/rank1.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca {

namespace {

/// Power iteration on A^T A for the dominant singular pair: leaves the
/// right vector in scratch.v and A v (= sigma * u_hat) in scratch.u, so
/// the rank-1 approximation is u v^T. A zero `a` leaves both all +0.0,
/// whose outer product is the +0.0 matrix.
void rank1_factors(const linalg::Matrix& a, Rank1Scratch& scratch,
                   int max_iterations, double tolerance) {
  NETCONST_CHECK(!a.empty(), "rank-1 approximation of an empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double>& u = scratch.u;
  std::vector<double>& v = scratch.v;
  std::vector<double>& w = scratch.w;
  v.assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
  u.resize(m);
  w.resize(n);
  const auto zero = [&] {
    u.assign(m, 0.0);
    v.assign(n, 0.0);
  };
  double sigma_prev = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    linalg::multiply_into(a, v, u);  // A v
    const double unorm = linalg::norm2(u);
    if (unorm == 0.0) return zero();  // A is zero
    linalg::scale(1.0 / unorm, u);
    linalg::multiply_transposed_into(a, u, w);  // A^T u
    const double sigma = linalg::norm2(w);
    if (sigma == 0.0) return zero();
    for (std::size_t j = 0; j < n; ++j) v[j] = w[j] / sigma;
    if (std::abs(sigma - sigma_prev) <=
        tolerance * std::max(sigma, 1.0)) {
      break;
    }
    sigma_prev = sigma;
  }
  linalg::multiply_into(a, v, u);  // = sigma * u_hat
}

/// Which piece of h_tau the residual r is on: +1 / -1 on the linear
/// parts, 0 on the quadratic one.
int huber_piece(double r, double tau) {
  return static_cast<int>(r > tau) - static_cast<int>(r < -tau);
}

/// g(x) = sum_t h_tau(b[t] - c[t] x): writes g'(x) and g''(x) (on x's
/// piece). Branch-free: the pieces of a noisy window are a coin toss per
/// term. Clamping r to [-tau, tau] gives the linear parts' -c tau and
/// +c tau bit for bit, and adding 0.0 (c^2 times 0) to the non-negative
/// curvature changes nothing.
void huber_slope(const double* b, const double* c, std::size_t count,
                 double tau, double x, double& slope, double& curvature) {
  double g = 0.0, h = 0.0;
  for (std::size_t t = 0; t < count; ++t) {
    const double r = b[t] - c[t] * x;
    g -= c[t] * std::min(std::max(r, -tau), tau);
    h += c[t] * c[t] * static_cast<double>(huber_piece(r, tau) == 0);
  }
  slope = g;
  curvature = h;
}

/// Whether every term of g sits on the same piece at x and at `from`.
bool same_pieces(const double* b, const double* c, std::size_t count,
                 double tau, double x, double from) {
  for (std::size_t t = 0; t < count; ++t) {
    if (huber_piece(b[t] - c[t] * x, tau) !=
        huber_piece(b[t] - c[t] * from, tau)) {
      return false;
    }
  }
  return true;
}

/// Exact minimiser of g above, from `x`. g' is nondecreasing and
/// piecewise linear, so a Newton step that stays on the piece it was
/// computed on lands on g' = 0 and ends the fit. Every evaluation
/// tightens a sign bracket, and a step that is not a Newton step into
/// that bracket bisects it (seeded from the outermost kinks, outside
/// which g' is -tau sum|c| and +tau sum|c|).
double huber_fit_1d(const double* b, const double* c, std::size_t count,
                    double tau, double x) {
  constexpr int kMaxEvaluations = 200;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = -kInf, hi = kInf;
  double slope = 0.0, curvature = 0.0;
  huber_slope(b, c, count, tau, x, slope, curvature);
  for (int e = 0; e < kMaxEvaluations && slope != 0.0; ++e) {
    (slope > 0.0 ? hi : lo) = x;
    double next = curvature > 0.0 ? x - slope / curvature : x;
    const bool newton = curvature > 0.0 && next > lo && next < hi;
    if (newton && same_pieces(b, c, count, tau, next, x)) return next;
    if (!newton) {
      if (lo == -kInf || hi == kInf) {
        double kink_lo = kInf, kink_hi = -kInf;
        for (std::size_t t = 0; t < count; ++t) {
          if (c[t] == 0.0) continue;
          const double k1 = (b[t] - tau) / c[t];
          const double k2 = (b[t] + tau) / c[t];
          kink_lo = std::min({kink_lo, k1, k2});
          kink_hi = std::max({kink_hi, k1, k2});
        }
        lo = std::max(lo, kink_lo);
        hi = std::min(hi, kink_hi);
      }
      next = 0.5 * lo + 0.5 * hi;
      if (!(next > lo && next < hi)) break;  // bracket is two neighbours
    }
    x = next;
    huber_slope(b, c, count, tau, x, slope, curvature);
  }
  return x;
}

}  // namespace

void rank1_approximation_into(const linalg::Matrix& a, Rank1Scratch& scratch,
                              linalg::Matrix& out, int max_iterations,
                              double tolerance) {
  rank1_factors(a, scratch, max_iterations, tolerance);
  const std::vector<double>& u = scratch.u;
  const std::vector<double>& v = scratch.v;
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) out(i, j) = u[i] * v[j];
  }
}

void solve_rank1(const linalg::Matrix& a, const Options& options,
                 double lambda, SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(lambda > 0.0, "rank-1 solver requires lambda > 0");
  const Stopwatch clock;
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "rank-1 RPCA of an all-zero matrix");
  reset_result(result);
  ++ws.stats.solves;

  // Threshold scaled to the data so lambda is comparable to the convex
  // solvers (their effective thresholds also scale with ||A||).
  const double mean_abs =
      linalg::l1_norm(a) / static_cast<double>(a.size());
  const double tau = lambda * mean_abs;

  ws.e.resize(a.rows(), a.cols());
  ws.e.fill(0.0);
  double prev_residual = std::numeric_limits<double>::infinity();
  for (int k = 0; k < options.max_iterations; ++k) {
    linalg::sub(a, ws.e, ws.target);
    rank1_approximation_into(ws.target, ws.rank1, ws.d);

    linalg::sub(a, ws.d, ws.target);
    linalg::soft_threshold_into(ws.target, tau, ws.e);

    linalg::sub_sub(a, ws.d, ws.e, ws.residual);
    result.residual = linalg::frobenius_norm(ws.residual) / a_fro;
    result.iterations = k + 1;
    // The soft threshold leaves a floor of magnitude-tau residual, so
    // converge on the *change* of the residual rather than its value.
    if (std::abs(prev_residual - result.residual) <= options.tolerance) {
      result.converged = true;
      break;
    }
    prev_residual = result.residual;
  }

  result.rank = 1;
  result.low_rank.swap(ws.d);
  result.sparse.swap(ws.e);
  result.solve_seconds = clock.seconds();
}

void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance, SolverWorkspace& ws) {
  NETCONST_CHECK(lambda > 0.0, "polish requires lambda > 0");
  NETCONST_CHECK(max_iterations > 0 && tolerance > 0.0,
                 "polish needs positive iteration budget and tolerance");
  NETCONST_CHECK(result.low_rank.same_shape(a) && result.sparse.same_shape(a),
                 "polish factors do not match the data shape");
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "polish of an all-zero matrix");
  // Same threshold scaling as solve_rank1, so a polished convex solve
  // and a plain Rank1 solve describe the same fixed point.
  const double mean_abs =
      linalg::l1_norm(a) / static_cast<double>(a.size());
  const double tau = lambda * mean_abs;

  result.polished = true;
  result.polish_converged = false;
  // The power iteration's input A - E; each pass below leaves the next
  // one in ws.target.
  linalg::sub(a, result.sparse, ws.target);
  for (int k = 0; k < max_iterations; ++k) {
    rank1_factors(ws.target, ws.rank1, kPowerIterations, kPowerTolerance);
    // Next iterates into ws.d / ws.e; current ones stay in the result
    // until the swap below, so the change sums see both. One pass forms
    // D = u v^T, E = soft(A - D), the next A - E and both sums.
    double change = 0.0, scale = 0.0;
    linalg::rank1_polish_pass(a, ws.rank1.u, ws.rank1.v, tau,
                              result.low_rank, result.sparse, ws.d, ws.e,
                              ws.target, change, scale);
    result.low_rank.swap(ws.d);
    result.sparse.swap(ws.e);
    result.polish_iterations = k + 1;
    if (std::sqrt(change) <= tolerance * std::sqrt(scale)) {
      result.polish_converged = true;
      break;
    }
  }

  linalg::sub_sub(a, result.low_rank, result.sparse, ws.residual);
  result.residual = linalg::frobenius_norm(ws.residual) / a_fro;
  result.rank = 1;
}

int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, SolverWorkspace& ws) {
  NETCONST_CHECK(lambda > 0.0, "Huber fit requires lambda > 0");
  NETCONST_CHECK(max_sweeps >= 0, "Huber fit needs a sweep budget >= 0");
  NETCONST_CHECK(result.sparse.same_shape(a),
                 "Huber fit start does not match the data shape");
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "Huber fit of an all-zero matrix");
  const double mean_abs =
      linalg::l1_norm(a) / static_cast<double>(a.size());
  const double tau = lambda * mean_abs;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  linalg::sub(a, result.sparse, ws.target);
  rank1_factors(ws.target, ws.rank1, kPowerIterations, kPowerTolerance);
  std::vector<double>& u = ws.rank1.u;
  std::vector<double>& v = ws.rank1.v;
  // The v_j fits read columns: A^T in ws.target makes them contiguous
  // (a strided column walk would put every row in one cache set).
  linalg::Matrix& at = ws.target;
  at.resize(n, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) at(j, i) = a(i, j);
  }
  int sweeps = 0;
  while (sweeps < max_sweeps) {
    double dv = 0.0, vv = 0.0, du = 0.0, uu = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double next =
          huber_fit_1d(at.row(j).data(), u.data(), m, tau, v[j]);
      dv += (next - v[j]) * (next - v[j]);
      vv += next * next;
      v[j] = next;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double next =
          huber_fit_1d(a.row(i).data(), v.data(), n, tau, u[i]);
      du += (next - u[i]) * (next - u[i]);
      uu += next * next;
      u[i] = next;
    }
    ++sweeps;
    if (std::sqrt(dv) <= kHuberFitTolerance * std::sqrt(vv) &&
        std::sqrt(du) <= kHuberFitTolerance * std::sqrt(uu)) {
      break;
    }
  }

  result.low_rank.resize(m, n);
  result.sparse.resize(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d = u[i] * v[j];
      const double x = a(i, j) - d;
      result.low_rank(i, j) = d;
      result.sparse(i, j) = x > tau ? x - tau : (x < -tau ? x + tau : 0.0);
    }
  }
  linalg::sub_sub(a, result.low_rank, result.sparse, ws.residual);
  result.residual = linalg::frobenius_norm(ws.residual) / a_fro;
  result.rank = 1;
  return sweeps;
}

}  // namespace netconst::rpca
