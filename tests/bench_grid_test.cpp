// Pins the Fig. 8/9 sweep grid and the shared table/CSV headers, and unit
// tests the helpers the figure harnesses share: print_sweep_tables (the
// single section/table loop both binaries use), CsvSink, and
// TelemetryScope. The grid contents are part of the benchmark contract —
// fig8/fig9 output is diffed against golden logs elsewhere, and a silent
// change to the axes would invalidate every recorded comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace ctb::bench {
namespace {

TEST(SweepGrid, AxesMatchThePaper) {
  EXPECT_EQ(sweep_mn(), (std::vector<int>{128, 256, 512}));
  EXPECT_EQ(sweep_batch(), (std::vector<int>{4, 16, 64, 256}));
  EXPECT_EQ(sweep_k(),
            (std::vector<int>{16, 32, 64, 128, 256, 512, 1024, 2048}));
}

TEST(SweepGrid, CellsEnumerateInPrintOrder) {
  const std::vector<SweepCell> cells = sweep_cells();
  ASSERT_EQ(cells.size(),
            sweep_mn().size() * sweep_batch().size() * sweep_k().size());
  std::size_t i = 0;
  for (int mn : sweep_mn()) {
    for (int batch : sweep_batch()) {
      for (int k : sweep_k()) {
        EXPECT_EQ(cells[i].mn, mn) << "cell " << i;
        EXPECT_EQ(cells[i].batch, batch) << "cell " << i;
        EXPECT_EQ(cells[i].k, k) << "cell " << i;
        ++i;
      }
    }
  }
}

TEST(SweepGrid, HeadersArePinned) {
  EXPECT_EQ(fig8_table_header(),
            (std::vector<std::string>{"K", "magma(us)", "tiling(us)",
                                      "speedup", "magma tile", "our tile",
                                      "histogram (1.0 = 10 chars)"}));
  EXPECT_EQ(fig9_table_header(),
            (std::vector<std::string>{"K", "magma(us)", "tiling(us)",
                                      "full(us)", "heuristic", "full/magma",
                                      "full/tiling",
                                      "histogram (1.0 = 10 chars)"}));
  EXPECT_STREQ(fig8_csv_header(), "mn,batch,k,magma_us,tiling_us,speedup");
  EXPECT_STREQ(fig9_csv_header(),
               "mn,batch,k,magma_us,tiling_us,full_us,heuristic,"
               "full_vs_magma,full_vs_tiling");
}

TEST(PrintSweepTables, VisitsEveryCellOnceInOrderWithSectionHeaders) {
  const std::vector<SweepCell> cells = sweep_cells();
  std::vector<int> rows(cells.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<int>(i);

  std::ostringstream os;
  std::vector<SweepCell> visited;
  print_sweep_tables(os, {"K", "row"}, rows,
                     [&](TextTable& t, const SweepCell& cell, int row) {
                       EXPECT_EQ(row, static_cast<int>(visited.size()));
                       visited.push_back(cell);
                       t.add_row({TextTable::fmt(cell.k),
                                  TextTable::fmt(row)});
                     });

  ASSERT_EQ(visited.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(visited[i].mn, cells[i].mn) << i;
    EXPECT_EQ(visited[i].batch, cells[i].batch) << i;
    EXPECT_EQ(visited[i].k, cells[i].k) << i;
  }

  // One section header per (mn, batch) pair, in sweep order.
  const std::string out = os.str();
  std::size_t pos = 0;
  for (int mn : sweep_mn()) {
    for (int batch : sweep_batch()) {
      std::ostringstream header;
      header << "--- M=N=" << mn << ", batch=" << batch << " ---";
      const std::size_t at = out.find(header.str(), pos);
      ASSERT_NE(at, std::string::npos) << header.str();
      pos = at + 1;
    }
  }
}

TEST(CsvSink, NoopWithoutEnvAndWritesHeaderPlusRowsWithIt) {
  unsetenv("CTB_BENCH_CSV");
  CsvSink silent(fig8_csv_header());
  silent.row("should,not,appear,anywhere");

  const std::string path = ::testing::TempDir() + "ctb_bench_grid_test.csv";
  setenv("CTB_BENCH_CSV", path.c_str(), 1);
  {
    CsvSink sink(fig8_csv_header());
    sink.row("128,4,16,1.0,2.0,0.5");
  }
  unsetenv("CTB_BENCH_CSV");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  // Line 1: the "# isa=...,threads=..." provenance comment making A/B
  // artifacts self-describing; then the column header and the rows.
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, csv_provenance_comment());
  EXPECT_EQ(line.rfind("# isa=", 0), 0u) << line;
  EXPECT_NE(line.find(",threads="), std::string::npos) << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, fig8_csv_header());
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "128,4,16,1.0,2.0,0.5");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(TelemetryScope, WritesMetricsAndTraceWhenDirIsSet) {
  unsetenv("CTB_BENCH_TELEMETRY");
  { TelemetryScope inert("grid_test_inert"); }

  const std::string dir = ::testing::TempDir();
  setenv("CTB_BENCH_TELEMETRY", dir.c_str(), 1);
  {
    TelemetryScope scope("grid_test");
    CTB_TEL_COUNT("test.grid.scope", 1);
  }
  unsetenv("CTB_BENCH_TELEMETRY");
  telemetry::set_enabled(false);

  const std::string metrics_path = dir + "/grid_test.metrics.json";
  const std::string trace_path = dir + "/grid_test.trace.json";
  std::ifstream metrics(metrics_path), trace(trace_path);
  ASSERT_TRUE(metrics.good());
  ASSERT_TRUE(trace.good());
  std::stringstream ss;
  ss << metrics.rdbuf();
  EXPECT_NE(ss.str().find("\"test.grid.scope\":1"), std::string::npos)
      << ss.str();
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace ctb::bench
