#include "netmodel/trace.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::netmodel {
namespace {

Trace make_trace(std::size_t snapshots, std::size_t n, Rng& rng) {
  TemporalPerformance series;
  for (std::size_t s = 0; s < snapshots; ++s) {
    PerformanceMatrix p(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          p.set_link(i, j, {rng.uniform(1e-4, 1e-3),
                            rng.uniform(1e7, 1e8)});
        }
      }
    }
    series.append(static_cast<double>(s) * 30.0, std::move(p));
  }
  return Trace(std::move(series));
}

TEST(Trace, Duration) {
  Rng rng(1);
  const Trace t = make_trace(5, 3, rng);
  EXPECT_EQ(t.duration(), 120.0);
  EXPECT_EQ(make_trace(1, 3, rng).duration(), 0.0);
}

TEST(Trace, CsvRoundTrip) {
  Rng rng(2);
  const Trace t = make_trace(4, 3, rng);
  const std::string path = ::testing::TempDir() + "/netconst_trace.csv";
  t.save_csv(path);
  const Trace back = Trace::load_csv(path);
  ASSERT_EQ(back.snapshot_count(), t.snapshot_count());
  ASSERT_EQ(back.cluster_size(), t.cluster_size());
  for (std::size_t s = 0; s < t.snapshot_count(); ++s) {
    EXPECT_EQ(back.series().time_at(s), t.series().time_at(s));
    for (std::size_t i = 0; i < t.cluster_size(); ++i) {
      for (std::size_t j = 0; j < t.cluster_size(); ++j) {
        if (i == j) continue;
        EXPECT_EQ(back.series().snapshot(s).link(i, j).alpha,
                  t.series().snapshot(s).link(i, j).alpha);
        EXPECT_EQ(back.series().snapshot(s).link(i, j).beta,
                  t.series().snapshot(s).link(i, j).beta);
      }
    }
  }
}

TEST(Trace, WindowSelectsInclusiveRange) {
  Rng rng(3);
  const Trace t = make_trace(5, 2, rng);  // times 0, 30, 60, 90, 120
  const Trace w = t.window(30.0, 90.0);
  EXPECT_EQ(w.snapshot_count(), 3u);
  EXPECT_EQ(w.series().time_at(0), 30.0);
  EXPECT_THROW(t.window(10.0, 5.0), ContractViolation);
}

TEST(Trace, PrefixTruncates) {
  Rng rng(4);
  const Trace t = make_trace(5, 2, rng);
  EXPECT_EQ(t.prefix(3).snapshot_count(), 3u);
  EXPECT_EQ(t.prefix(99).snapshot_count(), 5u);
}

TEST(ReplayCursor, ReplaysByTime) {
  Rng rng(5);
  const Trace t = make_trace(3, 2, rng);  // times 0, 30, 60
  ReplayCursor cursor(t);
  EXPECT_EQ(cursor.start_time(), 0.0);
  EXPECT_EQ(cursor.end_time(), 60.0);
  EXPECT_EQ(cursor.at(45.0).link(0, 1).alpha,
            t.series().snapshot(1).link(0, 1).alpha);
}

TEST(ReplayCursor, EmptyTraceThrows) {
  Trace empty;
  EXPECT_THROW(ReplayCursor{empty}, ContractViolation);
}

TEST(Trace, LoadRejectsSelfLinks) {
  const std::string path = ::testing::TempDir() + "/netconst_bad_trace.csv";
  {
    CsvTable table;
    table.header = {"time", "i", "j", "alpha", "beta"};
    table.rows = {{"0", "1", "1", "0.1", "1e6"}};
    write_csv_file(path, table);
  }
  EXPECT_THROW(Trace::load_csv(path), ContractViolation);
}

// Corrupt-input regressions: every malformed trace below used to either
// crash, allocate absurd matrices, or load garbage silently.

std::string write_rows(const std::vector<std::vector<std::string>>& rows,
                       const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/netconst_trace_" + tag + ".csv";
  CsvTable table;
  table.header = {"time", "i", "j", "alpha", "beta"};
  table.rows = rows;
  write_csv_file(path, table);
  return path;
}

TEST(Trace, LoadRejectsHeaderOnlyFile) {
  EXPECT_THROW(Trace::load_csv(write_rows({}, "empty")), Error);
}

TEST(Trace, LoadRejectsNegativeAndFractionalIndices) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "-1", "1", "0.1", "1e6"}}, "neg")),
      Error);
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1.5", "0.1", "1e6"}}, "frac")),
      Error);
}

TEST(Trace, LoadRejectsHugeIndexInsteadOfAllocating) {
  // A raw cast would try to build a ~1e18 x 1e18 matrix pair.
  EXPECT_THROW(Trace::load_csv(write_rows(
                   {{"0", "0", "999999999999999999", "0.1", "1e6"}}, "huge")),
               Error);
}

TEST(Trace, LoadRejectsCellsOutOfProportionToItsRows) {
  // 2,000 rows, each its own snapshot, one naming VM 3,999 (inside the
  // 2 x rows index bound): 2,000 matrices of 4,000 x 4,000 links, about
  // 0.5 TB, from a ~60 KB file. The loader must refuse before
  // allocating.
  std::vector<std::vector<std::string>> rows;
  for (int t = 0; t < 2000; ++t) {
    rows.push_back({std::to_string(t), "0", t == 1000 ? "3999" : "1", "0.1",
                    "1e6"});
  }
  EXPECT_THROW(Trace::load_csv(write_rows(rows, "cubic")), Error);
}

TEST(Trace, LoadRejectsNonFiniteTimestamp) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"nan", "0", "1", "0.1", "1e6"}}, "nant")),
      Error);
}

TEST(Trace, LoadRejectsInvalidLinkParameters) {
  EXPECT_THROW(Trace::load_csv(write_rows({{"0", "0", "1", "-0.1", "1e6"}},
                                          "negalpha")),
               Error);
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1", "0.1", "0"}}, "zerobeta")),
      Error);
  // Half-missing parameters are corruption, not a degraded measurement.
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1", "nan", "1e6"}}, "half")),
      Error);
}

TEST(Trace, LoadRejectsNonNumericCells) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "zero", "1", "0.1", "1e6"}}, "word")),
      Error);
}

TEST(Trace, MissingLinksSurviveTheCsvRoundTrip) {
  TemporalPerformance series;
  PerformanceMatrix snap(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) snap.set_link(i, j, {1e-4, 1e7});
    }
  }
  snap.mark_link_missing(0, 2);
  series.append(0.0, std::move(snap));

  const std::string path =
      ::testing::TempDir() + "/netconst_trace_missing.csv";
  Trace(std::move(series)).save_csv(path);
  const Trace back = Trace::load_csv(path);
  EXPECT_TRUE(back.series().snapshot(0).link_missing(0, 2));
  EXPECT_EQ(back.series().snapshot(0).missing_links(), 1u);
  EXPECT_DOUBLE_EQ(back.series().snapshot(0).link(1, 2).alpha, 1e-4);
}

// Byte-mutation fuzz of Trace::load_csv over this file's inputs (a
// saved trace with a missing link, and the corrupt-row cases above):
// every mutant loads or throws Error. The mutant goes through a file in
// the working directory, the loader's only entry point.
TEST(Trace, FuzzedCsvLoadsOrThrowsError) {
  Rng trace_rng(9);
  TemporalPerformance series = make_trace(3, 3, trace_rng).series();
  PerformanceMatrix degraded = series.snapshot(2);
  degraded.mark_link_missing(0, 2);
  series.append(120.0, std::move(degraded));
  const std::string saved_path = write_rows({}, "fuzz_seed");
  Trace(std::move(series)).save_csv(saved_path);
  std::ostringstream saved;
  saved << std::ifstream(saved_path).rdbuf();
  const std::string header = "time,i,j,alpha,beta\n";
  const std::string corpus[] = {
      saved.str(),
      header + "0,1,1,0.1,1e6\n",
      header + "0,-1,1,0.1,1e6\n0,0,1.5,0.1,1e6\n",
      header + "0,0,999999999999999999,0.1,1e6\n",
      header + "nan,0,1,0.1,1e6\n0,0,1,nan,1e6\n",
      header + "0,0,1,-0.1,1e6\n0,0,1,0.1,0\n30,1,0,nan,nan\n"};

  const std::string path = "netconst_trace_fuzz.csv";
  netconst::testing::run_property(0x7CE, 300, [&](Rng& rng) {
    const std::string& seed = corpus[netconst::testing::random_size(
        rng, 0, std::size(corpus) - 1)];
    const std::string input = netconst::testing::mutate_bytes(rng, seed);
    std::ofstream(path, std::ios::binary) << input;
    netconst::testing::expect_parses_or_throws_error(
        input, [&] { Trace::load_csv(path); });
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netconst::netmodel
