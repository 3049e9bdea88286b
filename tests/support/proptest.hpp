// Minimal seeded property-based testing support.
//
// run_property() executes N independent cases, each with its own Rng
// derived deterministically from a base seed, and names the case (and
// its derived seed) in the failure trace — a failing case replays by
// construction, no shrinking machinery needed at this scale.
//
// The generators below build the structured random inputs the chaos
// suite fuzzes: rank-1-plus-sparse data matrices shaped like TP-matrix
// layers, exact-count NaN fault masks, and byte-mutated parser inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::testing {

/// Run `cases` property cases; `body` receives (Rng&) seeded per case.
template <typename Body>
void run_property(std::uint64_t seed, int cases, Body&& body) {
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t case_seed =
        seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(c + 1);
    SCOPED_TRACE("property case " + std::to_string(c) + " (derived seed " +
                 std::to_string(case_seed) + ")");
    Rng rng(case_seed);
    body(rng);
  }
}

inline std::size_t random_size(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// A random instance of the paper's data model: every row repeats one
/// positive constant row (rank 1), and a sparse set of entries is
/// multiplied by an outlier factor (interference).
struct Rank1SparseCase {
  linalg::Matrix data;          // constant + sparse outliers
  linalg::Matrix constant_row;  // 1 x cols ground truth
  std::size_t outliers = 0;
};

inline Rank1SparseCase random_rank1_sparse(Rng& rng, std::size_t rows,
                                           std::size_t cols,
                                           double outlier_fraction,
                                           double outlier_factor = 5.0) {
  Rank1SparseCase out;
  out.constant_row = linalg::Matrix(1, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    out.constant_row(0, j) = rng.uniform(0.05, 1.0);
  }
  out.data = linalg::Matrix(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double v = out.constant_row(0, j);
      if (rng.uniform() < outlier_fraction) {
        v *= outlier_factor;
        ++out.outliers;
      }
      out.data(i, j) = v;
    }
  }
  return out;
}

/// Overwrite exactly floor(fraction * rows * cols) distinct entries with
/// quiet NaN (partial Fisher-Yates over the flattened index space).
/// Returns the masked entry count.
inline std::size_t mask_entries(Rng& rng, linalg::Matrix& data,
                                double fraction) {
  const std::size_t total = data.rows() * data.cols();
  const auto masked =
      static_cast<std::size_t>(fraction * static_cast<double>(total));
  std::vector<std::size_t> indices(total);
  for (std::size_t k = 0; k < total; ++k) indices[k] = k;
  for (std::size_t k = 0; k < masked; ++k) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(k),
                        static_cast<std::int64_t>(total - 1)));
    std::swap(indices[k], indices[pick]);
    data(indices[k] / data.cols(), indices[k] % data.cols()) =
        std::numeric_limits<double>::quiet_NaN();
  }
  return masked;
}

/// Apply 1-4 random byte mutations to `input`: overwrite, insert or
/// delete one byte, duplicate a short chunk, or truncate. Written bytes
/// lean towards the CSV dialect's structure (separators, line ends,
/// comment marks, number syntax) so mutants reach past the first check.
inline std::string mutate_bytes(Rng& rng, std::string input) {
  static constexpr char kBytes[] = ",\n\r#-+.eE0123456789naif \0\xff";
  const auto pick_byte = [&] {
    return rng.uniform() < 0.8
               ? kBytes[random_size(rng, 0, sizeof(kBytes) - 2)]
               : static_cast<char>(rng.uniform_int(0, 255));
  };
  const std::size_t mutations = random_size(rng, 1, 4);
  for (std::size_t m = 0; m < mutations; ++m) {
    const std::size_t at = random_size(rng, 0, input.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (at < input.size()) input[at] = pick_byte();
        break;
      case 1:
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at),
                     pick_byte());
        break;
      case 2:
        if (at < input.size()) input.erase(at, 1);
        break;
      case 3:
        input.insert(at, input.substr(at, random_size(rng, 1, 16)));
        break;
      default:
        input.resize(at);
        break;
    }
  }
  return input;
}

/// A parser's fuzz contract: `parse()` returns, or throws netconst::Error
/// (ContractViolation included). Any other exception fails the test.
template <typename Parse>
void expect_parses_or_throws_error(const std::string& input, Parse&& parse) {
  try {
    parse();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-Error exception '" << e.what()
                  << "' on input:\n" << input;
  } catch (...) {
    ADD_FAILURE() << "non-standard exception on input:\n" << input;
  }
}

}  // namespace netconst::testing
