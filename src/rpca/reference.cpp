// Verbatim copies of the pre-workspace solvers. See reference.hpp for
// why these must not be modernized.
#include "rpca/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/shrinkage.hpp"
#include "rpca/rank1.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca::reference {
namespace {

linalg::Matrix rank1_approximation(const linalg::Matrix& a,
                                   int max_iterations = 200,
                                   double tolerance = 1e-12) {
  NETCONST_CHECK(!a.empty(), "rank-1 approximation of an empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Power iteration on A^T A for the dominant right singular vector.
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  double sigma_prev = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    std::vector<double> u = linalg::multiply(a, v);   // A v
    const double unorm = linalg::norm2(u);
    if (unorm == 0.0) return linalg::Matrix(m, n);    // A is zero
    linalg::scale(1.0 / unorm, u);
    std::vector<double> w = linalg::multiply_transposed(a, u);  // A^T u
    const double sigma = linalg::norm2(w);
    if (sigma == 0.0) return linalg::Matrix(m, n);
    for (std::size_t j = 0; j < n; ++j) v[j] = w[j] / sigma;
    if (std::abs(sigma - sigma_prev) <=
        tolerance * std::max(sigma, 1.0)) {
      break;
    }
    sigma_prev = sigma;
  }

  const std::vector<double> u = linalg::multiply(a, v);  // = sigma * u_hat
  linalg::Matrix d(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = u[i] * v[j];
  }
  return d;
}

void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance) {
  NETCONST_CHECK(lambda > 0.0, "polish requires lambda > 0");
  NETCONST_CHECK(max_iterations > 0 && tolerance > 0.0,
                 "polish needs positive iteration budget and tolerance");
  NETCONST_CHECK(result.low_rank.same_shape(a) && result.sparse.same_shape(a),
                 "polish factors do not match the data shape");
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "polish of an all-zero matrix");
  // Threshold scaled to the data, so one lambda means the same across
  // windows.
  const double mean_abs =
      linalg::l1_norm(a) / static_cast<double>(a.size());
  const double tau = lambda * mean_abs;

  linalg::Matrix d = std::move(result.low_rank);
  linalg::Matrix e = std::move(result.sparse);
  result.polished = true;
  result.polish_converged = false;
  for (int k = 0; k < max_iterations; ++k) {
    linalg::Matrix target = a;
    target -= e;
    linalg::Matrix d_next = reference::rank1_approximation(target);

    linalg::Matrix e_target = a;
    e_target -= d_next;
    linalg::Matrix e_next = linalg::soft_threshold(e_target, tau);

    double change = 0.0, scale = 0.0;
    for (std::size_t idx = 0; idx < d.data().size(); ++idx) {
      const double dd = d_next.data()[idx] - d.data()[idx];
      const double de = e_next.data()[idx] - e.data()[idx];
      change += dd * dd + de * de;
      scale += d_next.data()[idx] * d_next.data()[idx] +
               e_next.data()[idx] * e_next.data()[idx];
    }
    d = std::move(d_next);
    e = std::move(e_next);
    result.polish_iterations = k + 1;
    if (std::sqrt(change) <= tolerance * std::sqrt(scale)) {
      result.polish_converged = true;
      break;
    }
  }

  linalg::Matrix residual = a;
  residual -= d;
  residual -= e;
  result.residual = linalg::frobenius_norm(residual) / a_fro;
  result.rank = 1;
  result.low_rank = std::move(d);
  result.sparse = std::move(e);
}

}  // namespace

Result solve_apg(const linalg::Matrix& a, const Options& options) {
  NETCONST_CHECK(options.lambda > 0.0, "APG requires lambda > 0");
  const Stopwatch clock;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double lambda = options.lambda;
  const double a_norm = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_norm > 0.0, "APG of an all-zero matrix is trivial");

  // Continuation schedule: mu starts near the spectral norm and decays to
  // mu_bar (values follow the reference APG implementation).
  double mu = 0.99 * linalg::spectral_norm(a);
  if (mu <= 0.0) mu = 1.0;
  const double mu_bar = 1e-9 * mu;
  const double eta = 0.9;
  // Lipschitz constant of the smooth part's gradient is 2 (two blocks).
  const double inv_lf = 0.5;

  linalg::Matrix d(m, n);
  linalg::Matrix e(m, n);
  linalg::Matrix d_prev = d;
  linalg::Matrix e_prev = e;
  double t = 1.0, t_prev = 1.0;

  Result result;
  for (int k = 0; k < options.max_iterations; ++k) {
    const double momentum = (t_prev - 1.0) / t;
    // Extrapolated points Y_D, Y_E.
    linalg::Matrix yd = d;
    {
      linalg::Matrix diff = d;
      diff -= d_prev;
      diff *= momentum;
      yd += diff;
    }
    linalg::Matrix ye = e;
    {
      linalg::Matrix diff = e;
      diff -= e_prev;
      diff *= momentum;
      ye += diff;
    }

    // Shared residual Y_D + Y_E - A of the smooth term.
    linalg::Matrix residual = yd;
    residual += ye;
    residual -= a;

    // Proximal gradient steps on each block.
    linalg::Matrix gd = yd;
    {
      linalg::Matrix step = residual;
      step *= inv_lf;
      gd -= step;
    }
    linalg::Matrix ge = ye;
    {
      linalg::Matrix step = residual;
      step *= inv_lf;
      ge -= step;
    }

    d_prev = std::move(d);
    e_prev = std::move(e);
    const auto svt =
        linalg::singular_value_threshold(gd, mu * inv_lf, options.svd);
    d = svt.value;
    result.rank = svt.rank;
    e = linalg::soft_threshold(ge, lambda * mu * inv_lf);

    t_prev = t;
    t = 0.5 * (1.0 + std::sqrt(4.0 * t * t + 1.0));
    mu = std::max(eta * mu, mu_bar);
    result.iterations = k + 1;

    // Convergence: relative change of the stacked iterate (D, E).
    double change = 0.0, scale = 0.0;
    for (std::size_t idx = 0; idx < d.data().size(); ++idx) {
      const double dd = d.data()[idx] - d_prev.data()[idx];
      const double de = e.data()[idx] - e_prev.data()[idx];
      change += dd * dd + de * de;
      scale += d.data()[idx] * d.data()[idx] +
               e.data()[idx] * e.data()[idx];
    }
    if (std::sqrt(change) <=
        options.tolerance * std::max(std::sqrt(scale), 1.0)) {
      result.converged = true;
      break;
    }
  }

  {
    linalg::Matrix res = a;
    res -= d;
    res -= e;
    result.residual = linalg::frobenius_norm(res) / a_norm;
  }
  result.low_rank = std::move(d);
  result.sparse = std::move(e);
  result.solve_seconds = clock.seconds();
  return result;
}

Result solve(const linalg::Matrix& a, const Options& options) {
  NETCONST_CHECK(!a.empty(), "RPCA of an empty matrix");
  Options opts = options;
  if (opts.lambda <= 0.0) opts.lambda = default_lambda(a.rows(), a.cols());
  // Qualified calls: argument-dependent lookup would otherwise make the
  // production rpca:: overloads ambiguous with these.
  Result result = reference::solve_apg(a, opts);
  result.solver_residual = result.residual;
  if (opts.polish_iterations > 0) {
    const Stopwatch polish_clock;
    reference::polish_rank1(a, result, opts.lambda, opts.polish_iterations,
                 opts.polish_tolerance);
    result.solve_seconds += polish_clock.seconds();
  }
  return result;
}

namespace {

/// Dominant singular pair of `a` by the power iteration of
/// rank1_approximation above: {A v (= sigma * u_hat), v}.
std::pair<std::vector<double>, std::vector<double>> rank1_factors(
    const linalg::Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  double sigma_prev = 0.0;
  for (int it = 0; it < kPowerIterations; ++it) {
    std::vector<double> u = linalg::multiply(a, v);
    const double unorm = linalg::norm2(u);
    if (unorm == 0.0) return {std::vector<double>(m), std::vector<double>(n)};
    linalg::scale(1.0 / unorm, u);
    const std::vector<double> w = linalg::multiply_transposed(a, u);
    const double sigma = linalg::norm2(w);
    if (sigma == 0.0) return {std::vector<double>(m), std::vector<double>(n)};
    for (std::size_t j = 0; j < n; ++j) v[j] = w[j] / sigma;
    if (std::abs(sigma - sigma_prev) <=
        kPowerTolerance * std::max(sigma, 1.0)) {
      break;
    }
    sigma_prev = sigma;
  }
  return {linalg::multiply(a, v), v};
}

struct HuberPoint {
  double slope = 0.0;
  double curvature = 0.0;
  std::vector<int> pieces;  // +1 / -1 linear parts, 0 quadratic
};

HuberPoint huber_point(const std::vector<double>& b,
                       const std::vector<double>& c, double tau, double x) {
  HuberPoint p;
  for (std::size_t t = 0; t < b.size(); ++t) {
    const double r = b[t] - c[t] * x;
    if (r > tau) {
      p.slope -= c[t] * tau;
      p.pieces.push_back(1);
    } else if (r < -tau) {
      p.slope += c[t] * tau;
      p.pieces.push_back(-1);
    } else {
      p.slope -= c[t] * r;
      p.curvature += c[t] * c[t];
      p.pieces.push_back(0);
    }
  }
  return p;
}

}  // namespace

double huber_fit_1d(const std::vector<double>& b,
                    const std::vector<double>& c, double tau, double x) {
  const double inf = std::numeric_limits<double>::infinity();
  double lo = -inf, hi = inf;
  HuberPoint here = huber_point(b, c, tau, x);
  for (int e = 0; e < 200 && here.slope != 0.0; ++e) {
    if (here.slope > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    double next = x;
    bool newton = false;
    if (here.curvature > 0.0) {
      next = x - here.slope / here.curvature;
      if (next == x) break;  // x is the minimiser to rounding
      newton = next > lo && next < hi;
    }
    if (!newton) {
      if (lo == -inf || hi == inf) {
        std::vector<double> kinks;
        for (std::size_t t = 0; t < b.size(); ++t) {
          if (c[t] == 0.0) continue;
          kinks.push_back((b[t] - tau) / c[t]);
          kinks.push_back((b[t] + tau) / c[t]);
        }
        lo = std::max(lo, *std::min_element(kinks.begin(), kinks.end()));
        hi = std::min(hi, *std::max_element(kinks.begin(), kinks.end()));
      }
      next = 0.5 * lo + 0.5 * hi;
      if (!(next > lo && next < hi)) break;
    }
    HuberPoint there = huber_point(b, c, tau, next);
    const bool same_piece = there.pieces == here.pieces;
    x = next;
    here = std::move(there);
    if (newton && same_piece) break;
  }
  return x;
}

double huber_newton_pass(const linalg::Matrix& a, const std::vector<double>& u,
                         const std::vector<double>& v, double tau,
                         std::vector<double>& gradient,
                         linalg::Matrix& hessian) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double> objective(4, 0.0);
  linalg::Matrix g(m, 4), diagonal(m, 4);
  std::vector<linalg::Matrix> outer(4, linalg::Matrix(m, m));
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t l = j % 4;
    std::vector<double> b(m);
    double c = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = u[i] * v[j];
      const double r = a(i, j) - p;
      double psi = r, q = 1.0;
      if (r > tau) {
        psi = tau;
        q = 0.0;
      } else if (r < -tau) {
        psi = -tau;
        q = 0.0;
      }
      objective[l] += psi * (r - 0.5 * psi);
      g(i, l) -= psi * v[j];
      diagonal(i, l) += q * (v[j] * v[j]);
      c += q * (u[i] * u[i]);
      b[i] = q * p - psi;
    }
    const double w = c > 0.0 ? 1.0 / c : 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t i = 0; i <= k; ++i) outer[l](k, i) += (b[k] * w) * b[i];
    }
  }
  const auto add_lanes = [](const std::vector<double>& x) {
    return ((x[0] + x[1]) + x[2]) + x[3];
  };
  gradient.assign(m, 0.0);
  hessian = linalg::Matrix(m, m);
  for (std::size_t k = 0; k < m; ++k) {
    gradient[k] = add_lanes({g(k, 0), g(k, 1), g(k, 2), g(k, 3)});
    for (std::size_t i = 0; i <= k; ++i) {
      const double s = add_lanes(
          {outer[0](k, i), outer[1](k, i), outer[2](k, i), outer[3](k, i)});
      hessian(k, i) = hessian(i, k) = -s;
    }
    hessian(k, k) = add_lanes({diagonal(k, 0), diagonal(k, 1), diagonal(k, 2),
                               diagonal(k, 3)}) -
                    add_lanes({outer[0](k, k), outer[1](k, k),
                               outer[2](k, k), outer[3](k, k)});
  }
  return add_lanes(objective);
}

namespace {

/// Twin of the fit's Newton step: -(H + (tr H / m) u u^T / ||u||^2)^-1 g
/// into `step`; false when that matrix is not positive definite.
bool newton_step(const std::vector<double>& u,
                 const std::vector<double>& gradient, linalg::Matrix hessian,
                 std::vector<double>& step) {
  const std::size_t m = u.size();
  double uu = 0.0, trace = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    uu += u[k] * u[k];
    trace += hessian(k, k);
  }
  const double gauge = trace / static_cast<double>(m) / uu;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l <= k; ++l) hessian(k, l) += gauge * (u[k] * u[l]);
  }
  step = gradient;
  for (double& x : step) x = -x;
  return linalg::cholesky_solve(hessian, step);
}

/// Adds sum (to - from)^2 to `change` and sum to^2 to `scale`.
void measure_change(const std::vector<double>& from,
                    const std::vector<double>& to, double& change,
                    double& scale) {
  for (std::size_t k = 0; k < to.size(); ++k) {
    change += (to[k] - from[k]) * (to[k] - from[k]);
    scale += to[k] * to[k];
  }
}

}  // namespace

int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, double polish_tolerance) {
  NETCONST_CHECK(lambda > 0.0, "Huber fit requires lambda > 0");
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "Huber fit of an all-zero matrix");
  const double tau =
      lambda * (linalg::l1_norm(a) / static_cast<double>(a.size()));
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  linalg::Matrix target = a;
  target -= result.sparse;
  auto [u, v] = reference::rank1_factors(target);
  // Every v_j against `c` over column j of A, from v.
  const auto fit_v = [&](const std::vector<double>& c) {
    std::vector<double> next(n);
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> column(m);
      for (std::size_t i = 0; i < m; ++i) column[i] = a(i, j);
      next[j] = reference::huber_fit_1d(column, c, tau, v[j]);
    }
    return next;
  };
  const double tolerance = polish_tolerance / 10.0;
  int sweeps = 0;
  if (max_sweeps > 0) {
    v = fit_v(u);
    ++sweeps;
  }
  bool newton = false;
  double objective = 0.0;
  std::vector<double> gradient;
  linalg::Matrix hessian;
  while (sweeps < max_sweeps) {
    double dv = 0.0, vv = 0.0, du = 0.0, uu = 0.0;
    bool accepted = false;
    std::vector<double> step;
    if (newton && newton_step(u, gradient, hessian, step)) {
      double t = 1.0;
      for (int h = 0; h <= kNewtonHalvings && sweeps < max_sweeps;
           ++h, t *= 0.5) {
        std::vector<double> trial(m);
        for (std::size_t k = 0; k < m; ++k) trial[k] = u[k] + t * step[k];
        const std::vector<double> trial_v = fit_v(trial);
        const double trial_objective =
            huber_newton_pass(a, trial, trial_v, tau, gradient, hessian);
        ++sweeps;
        if (trial_objective <=
            objective + kObjectiveRounding * std::abs(objective)) {
          objective = trial_objective;
          measure_change(u, trial, du, uu);
          measure_change(v, trial_v, dv, vv);
          u = trial;
          v = trial_v;
          accepted = true;
          break;
        }
      }
    }
    if (!accepted) {
      if (sweeps == max_sweeps) break;
      std::vector<double> next_u(m);
      for (std::size_t i = 0; i < m; ++i) {
        std::vector<double> row(n);
        for (std::size_t j = 0; j < n; ++j) row[j] = a(i, j);
        next_u[i] = reference::huber_fit_1d(row, v, tau, u[i]);
      }
      measure_change(u, next_u, du, uu);
      u = next_u;
      const std::vector<double> next_v = fit_v(u);
      objective = huber_newton_pass(a, u, next_v, tau, gradient, hessian);
      ++sweeps;
      measure_change(v, next_v, dv, vv);
      v = next_v;
      newton = true;
    }
    if (std::sqrt(dv) <= tolerance * std::sqrt(vv) &&
        std::sqrt(du) <= tolerance * std::sqrt(uu)) {
      break;
    }
  }

  linalg::Matrix d(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = u[i] * v[j];
  }
  linalg::Matrix e_target = a;
  e_target -= d;
  result.sparse = linalg::soft_threshold(e_target, tau);
  result.low_rank = std::move(d);
  linalg::Matrix residual = a;
  residual -= result.low_rank;
  residual -= result.sparse;
  result.residual = linalg::frobenius_norm(residual) / a_fro;
  result.rank = 1;
  return sweeps;
}

void polish(const linalg::Matrix& a, const Options& options,
            bool huber_start, Result& result) {
  const Stopwatch polish_clock;
  const double lambda = options.lambda > 0.0
                            ? options.lambda
                            : default_lambda(a.rows(), a.cols());
  const int budget = options.polish_iterations;
  int fit_sweeps = 0;
  if (huber_start && budget > 1) {
    fit_sweeps = reference::rank1_huber_fit(
        a, result, lambda, std::min(kHuberFitSweeps, budget - 1),
        options.polish_tolerance);
  }
  reference::polish_rank1(a, result, lambda, budget - fit_sweeps,
                          options.polish_tolerance);
  result.polish_iterations += fit_sweeps;
  result.solve_seconds += polish_clock.seconds();
}

}  // namespace netconst::rpca::reference
