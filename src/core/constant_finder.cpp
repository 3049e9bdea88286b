#include "core/constant_finder.hpp"

#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::core {

linalg::Matrix constant_row(const linalg::Matrix& low_rank,
                            std::size_t cluster_size) {
  NETCONST_CHECK(low_rank.cols() == cluster_size * cluster_size,
                 "low-rank width does not match the cluster size");
  NETCONST_CHECK(low_rank.rows() >= 1, "empty low-rank component");
  linalg::Matrix row(1, low_rank.cols());
  for (std::size_t j = 0; j < low_rank.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < low_rank.rows(); ++i) sum += low_rank(i, j);
    row(0, j) = sum / static_cast<double>(low_rank.rows());
  }
  return netmodel::TemporalPerformance::unflatten_row(row, 0, cluster_size);
}

ConstantComponent assemble_component(const linalg::Matrix& latency_data,
                                     const rpca::Result& latency,
                                     const linalg::Matrix& bandwidth_data,
                                     const rpca::Result& bandwidth,
                                     std::size_t cluster_size,
                                     double l0_rel_tolerance) {
  ConstantComponent component;
  component.solve_seconds = latency.solve_seconds + bandwidth.solve_seconds;
  component.latency_rank = latency.rank;
  component.bandwidth_rank = bandwidth.rank;
  component.latency_error_norm =
      rpca::relative_l0(latency.sparse, latency_data, l0_rel_tolerance);
  component.error_norm =
      rpca::relative_l0(bandwidth.sparse, bandwidth_data, l0_rel_tolerance);
  component.constant = netmodel::matrices_to_performance(
      constant_row(latency.low_rank, cluster_size),
      constant_row(bandwidth.low_rank, cluster_size));
  return component;
}

ConstantComponent find_constant(const netmodel::TemporalPerformance& series,
                                const ConstantFinderOptions& options) {
  NETCONST_CHECK(series.row_count() >= 2,
                 "need at least two calibration rows");
  const std::size_t n = series.cluster_size();
  const Stopwatch clock;

  const linalg::Matrix lat_data =
      series.flatten(netmodel::Field::Latency);
  const linalg::Matrix bw_data =
      series.flatten(netmodel::Field::Bandwidth);

  const rpca::Result lat = rpca::solve(lat_data, options.rpca);
  const rpca::Result bw = rpca::solve(bw_data, options.rpca);

  ConstantComponent component = assemble_component(
      lat_data, lat, bw_data, bw, n, options.l0_rel_tolerance);
  // Keep the historical meaning: wall-clock of this whole decomposition
  // step (flatten + the two solves).
  component.solve_seconds = clock.seconds();
  return component;
}

}  // namespace netconst::core
