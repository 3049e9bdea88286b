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

double estimate_noise_sigma(const linalg::Matrix& a) {
  NETCONST_CHECK(!a.empty(), "noise estimate of an empty matrix");
  linalg::Matrix residual = a;
  residual -= reference::rank1_approximation(a);
  std::vector<double> magnitudes;
  magnitudes.reserve(residual.size());
  for (double v : residual.data()) magnitudes.push_back(std::abs(v));
  const std::size_t mid = magnitudes.size() / 2;
  std::nth_element(magnitudes.begin(), magnitudes.begin() + mid,
                   magnitudes.end());
  // MAD -> sigma for Gaussian noise.
  return 1.4826 * magnitudes[mid];
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

Result solve_stable_pcp(const linalg::Matrix& a,
                        const StablePcpOptions& options) {
  NETCONST_CHECK(!a.empty(), "stable PCP of an empty matrix");
  const Stopwatch clock;
  Options opts = options.base;
  if (opts.lambda <= 0.0) opts.lambda = default_lambda(a.rows(), a.cols());
  double sigma = options.noise_sigma;
  if (sigma <= 0.0) sigma = reference::estimate_noise_sigma(a);
  NETCONST_CHECK(sigma >= 0.0, "noise sigma must be non-negative");

  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "stable PCP of an all-zero matrix");
  // Zhou et al.'s recommended Lagrangian weight.
  const double mu =
      std::sqrt(2.0 * static_cast<double>(std::max(a.rows(), a.cols()))) *
      std::max(sigma, 1e-12 * linalg::max_abs(a));
  const double inv_lf = 0.5;  // gradient Lipschitz constant is 2

  linalg::Matrix d(a.rows(), a.cols()), d_prev = d;
  linalg::Matrix e(a.rows(), a.cols()), e_prev = e;
  double t = 1.0, t_prev = 1.0;

  Result result;
  for (int k = 0; k < opts.max_iterations; ++k) {
    const double momentum = (t_prev - 1.0) / t;
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
    linalg::Matrix residual = yd;
    residual += ye;
    residual -= a;
    residual *= inv_lf;

    linalg::Matrix gd = yd;
    gd -= residual;
    linalg::Matrix ge = ye;
    ge -= residual;

    d_prev = std::move(d);
    e_prev = std::move(e);
    const auto svt =
        linalg::singular_value_threshold(gd, mu * inv_lf, opts.svd);
    d = svt.value;
    result.rank = svt.rank;
    e = linalg::soft_threshold(ge, opts.lambda * mu * inv_lf);

    t_prev = t;
    t = 0.5 * (1.0 + std::sqrt(4.0 * t * t + 1.0));
    result.iterations = k + 1;

    double change = 0.0, scale = 0.0;
    for (std::size_t idx = 0; idx < d.data().size(); ++idx) {
      const double dd = d.data()[idx] - d_prev.data()[idx];
      const double de = e.data()[idx] - e_prev.data()[idx];
      change += dd * dd + de * de;
      scale += d.data()[idx] * d.data()[idx] +
               e.data()[idx] * e.data()[idx];
    }
    if (std::sqrt(change) <=
        opts.tolerance * std::max(std::sqrt(scale), 1.0)) {
      result.converged = true;
      break;
    }
  }

  // Debias: the nuclear-norm prox shrinks every kept singular value by
  // ~mu/2; refit D as the exact rank-r projection of A - E with the
  // discovered rank (standard post-processing for stable PCP).
  if (result.rank > 0) {
    linalg::Matrix target = a;
    target -= e;
    d = linalg::low_rank_approximation(target, result.rank, opts.svd);
  }

  {
    linalg::Matrix res = a;
    res -= d;
    res -= e;
    result.residual = linalg::frobenius_norm(res) / a_fro;
  }
  result.low_rank = std::move(d);
  result.sparse = std::move(e);
  result.solve_seconds = clock.seconds();
  return result;
}

Result solve_stable_pcp_tf(const linalg::Matrix& a,
                           const StablePcpTfOptions& options) {
  NETCONST_CHECK(!a.empty(), "TF stable PCP of an empty matrix");
  const Stopwatch clock;
  Options opts = options.base;
  if (opts.lambda <= 0.0) opts.lambda = default_lambda(a.rows(), a.cols());
  double sigma = options.noise_sigma;
  if (sigma <= 0.0) sigma = reference::estimate_noise_sigma(a);
  NETCONST_CHECK(sigma >= 0.0, "noise sigma must be non-negative");

  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "TF stable PCP of an all-zero matrix");
  // Stable PCP's Lagrangian weight; the TF shrink reuses its scale.
  const double mu =
      std::sqrt(2.0 * static_cast<double>(std::max(a.rows(), a.cols()))) *
      std::max(sigma, 1e-12 * linalg::max_abs(a));
  const double inv_lf = 0.5;  // gradient Lipschitz constant is 2
  const std::size_t keep_rows =
      rpca::tf_passband_rows(a.rows(), options.passband_fraction);
  const double tf_threshold = options.tf_weight * mu * inv_lf;

  // The transform kernels are the production solver's sequential scalar
  // loops (see reference.hpp); only the surrounding iterate algebra is
  // the frozen allocation-per-expression style.
  linalg::Matrix basis;
  rpca::temporal_dct_basis_into(a.rows(), basis);
  linalg::Matrix coeffs;
  const auto tf_prox = [&](linalg::Matrix& panel) {
    rpca::temporal_dct_forward(basis, panel, coeffs);
    rpca::shrink_high_frequencies(coeffs, keep_rows, tf_threshold);
    rpca::temporal_dct_inverse(basis, coeffs, panel);
  };

  linalg::Matrix d(a.rows(), a.cols()), d_prev = d;
  linalg::Matrix e(a.rows(), a.cols()), e_prev = e;
  double t = 1.0, t_prev = 1.0;

  Result result;
  for (int k = 0; k < opts.max_iterations; ++k) {
    const double momentum = (t_prev - 1.0) / t;
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
    linalg::Matrix residual = yd;
    residual += ye;
    residual -= a;
    residual *= inv_lf;

    linalg::Matrix gd = yd;
    gd -= residual;
    linalg::Matrix ge = ye;
    ge -= residual;

    d_prev = std::move(d);
    e_prev = std::move(e);
    const auto svt =
        linalg::singular_value_threshold(gd, mu * inv_lf, opts.svd);
    d = svt.value;
    result.rank = svt.rank;
    if (tf_threshold > 0.0 && keep_rows < a.rows()) tf_prox(d);
    e = linalg::soft_threshold(ge, opts.lambda * mu * inv_lf);

    t_prev = t;
    t = 0.5 * (1.0 + std::sqrt(4.0 * t * t + 1.0));
    result.iterations = k + 1;

    double change = 0.0, scale = 0.0;
    for (std::size_t idx = 0; idx < d.data().size(); ++idx) {
      const double dd = d.data()[idx] - d_prev.data()[idx];
      const double de = e.data()[idx] - e_prev.data()[idx];
      change += dd * dd + de * de;
      scale += d.data()[idx] * d.data()[idx] +
               e.data()[idx] * e.data()[idx];
    }
    if (std::sqrt(change) <=
        opts.tolerance * std::max(std::sqrt(scale), 1.0)) {
      result.converged = true;
      break;
    }
  }

  // Debias exactly like stable PCP, then re-impose the band limit once
  // (the refit reintroduces high-frequency energy from A - E).
  if (result.rank > 0) {
    linalg::Matrix target = a;
    target -= e;
    d = linalg::low_rank_approximation(target, result.rank, opts.svd);
    if (tf_threshold > 0.0 && keep_rows < a.rows()) tf_prox(d);
  }

  {
    linalg::Matrix res = a;
    res -= d;
    res -= e;
    result.residual = linalg::frobenius_norm(res) / a_fro;
  }
  result.low_rank = std::move(d);
  result.sparse = std::move(e);
  result.solve_seconds = clock.seconds();
  return result;
}

Result solve(const linalg::Matrix& a, Solver solver,
             const Options& options) {
  NETCONST_CHECK(!a.empty(), "RPCA of an empty matrix");
  Options opts = options;
  if (opts.lambda <= 0.0) opts.lambda = default_lambda(a.rows(), a.cols());
  // Qualified calls: argument-dependent lookup would otherwise make the
  // production rpca:: overloads ambiguous with these.
  auto dispatch = [&]() -> Result {
    switch (solver) {
      case Solver::Apg:
        return reference::solve_apg(a, opts);
      case Solver::StablePcp: {
        StablePcpOptions stable;
        stable.base = opts;
        return reference::solve_stable_pcp(a, stable);
      }
      case Solver::StablePcpTf: {
        StablePcpTfOptions stable;
        stable.base = opts;
        return reference::solve_stable_pcp_tf(a, stable);
      }
    }
    throw Error("unknown RPCA solver");
  };
  Result result = dispatch();
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

}  // namespace

int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps) {
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
  int sweeps = 0;
  while (sweeps < max_sweeps) {
    const std::vector<double> u_prev = u;
    const std::vector<double> v_prev = v;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> column(m);
      for (std::size_t i = 0; i < m; ++i) column[i] = a(i, j);
      v[j] = reference::huber_fit_1d(column, u, tau, v[j]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<double> row(n);
      for (std::size_t j = 0; j < n; ++j) row[j] = a(i, j);
      u[i] = reference::huber_fit_1d(row, v, tau, u[i]);
    }
    ++sweeps;
    double dv = 0.0, vv = 0.0, du = 0.0, uu = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dv += (v[j] - v_prev[j]) * (v[j] - v_prev[j]);
      vv += v[j] * v[j];
    }
    for (std::size_t i = 0; i < m; ++i) {
      du += (u[i] - u_prev[i]) * (u[i] - u_prev[i]);
      uu += u[i] * u[i];
    }
    if (std::sqrt(dv) <= kHuberFitTolerance * std::sqrt(vv) &&
        std::sqrt(du) <= kHuberFitTolerance * std::sqrt(uu)) {
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
        a, result, lambda, std::min(kHuberFitSweeps, budget - 1));
  }
  reference::polish_rank1(a, result, lambda, budget - fit_sweeps,
                          options.polish_tolerance);
  result.polish_iterations += fit_sweeps;
  result.solve_seconds += polish_clock.seconds();
}

}  // namespace netconst::rpca::reference
