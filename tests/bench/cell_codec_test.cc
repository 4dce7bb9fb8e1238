// Golden tests for the BENCH cell codec in bench/bench_common.h: the
// sweep-journal record a cell encodes to, the cell object BenchJson::write
// emits for it, and the journal round trip (a resumed sweep must re-emit
// the JSON a live run wrote). The pinned strings are the format: a change
// here breaks resuming journals written by older builds, or the committed
// BENCH_*.json artifacts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "util/fsio.h"

namespace spineless::bench {
namespace {

using Fields = util::SweepJournal::Fields;

// Every section filled, every field distinct from its default and from
// the others. result_hash sits above 2^63 so a signed parse would clip it;
// wall_s and p50_ratio are not dyadic, so the journal's %.17g matters.
BenchJson::Cell full_cell() {
  BenchJson::Cell c;
  c.label = "DRing m=7 | su2";
  c.wall_s = 0.1;
  c.events = 123456789;
  c.intra_jobs = 3;
  c.table_build_s = 0.375;
  c.has_fct = true;
  c.flows = 401;
  c.completed = 397;
  c.p50_ms = 1.0625;
  c.p99_ms = 7.25;
  c.drops = 11;
  c.retransmits = 13;
  c.has_fault = true;
  c.blackhole_s = 0.0125;
  c.detect_ms = 2.5;
  c.outage_ms = 4.75;
  c.blackhole_drops = 17;
  c.gray_drops = 19;
  c.corrupt_drops = 23;
  c.rescued_flows = 29;
  c.goodput_recovery = 0.96875;
  c.undetected_gray_windows = 31;
  c.fault_outages = 37;
  c.fault_completed = 41;
  c.fault_flows = 43;
  c.has_hybrid = true;
  c.result_hash = 18446744073709551557ULL;
  c.fluid_windows = 47;
  c.fluid_solves = 53;
  c.fluid_solves_skipped = 59;
  c.internal_flows = 61;
  c.boundary_flows = 67;
  c.external_flows = 71;
  c.region_switches = 73;
  c.cut_links = 79;
  c.has_hybrid_fault = true;
  c.failed_links = 83;
  c.stalled_flows = 89;
  c.boundary_repins = 97;
  c.fluid_outages = 101;
  c.fluid_blackhole_s = 0.0625;
  c.stalled_s = 1.125;
  c.has_calib = true;
  c.packet_p50_ms = 0.9375;
  c.packet_p99_ms = 6.5;
  c.p50_ratio = 1.1333333333333333;
  c.p99_ratio = 1.115;
  return c;
}

// What run_resumable journals for a cell whose every attempt threw.
BenchJson::Cell failed_cell() {
  BenchJson::Cell c;
  c.label = "cell4";
  c.wall_s = 0.5;
  c.status = "failed";
  c.attempts = 3;
  c.error = "worker threw: boom";
  return c;
}

// The cells array exactly as BenchJson::write puts it in the file.
std::string emitted_cells(const std::vector<BenchJson::Cell>& cells) {
  // One file per test and call: ctest runs the tests in parallel.
  static int calls = 0;
  const std::string path =
      ::testing::TempDir() + "spineless_cell_codec_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(calls++) + ".json";
  std::string json_out = "--json_out=" + path;
  std::string jobs = "--jobs=1";
  char prog[] = "cell_codec_test";
  char* argv[] = {prog, jobs.data(), json_out.data()};
  const Flags flags(3, argv);
  BenchJson json("codec", flags);
  json.mark_resumed();  // cell wall times are made up, not process uptime
  for (const BenchJson::Cell& c : cells) json.add(c);
  json.write();
  std::string doc;
  EXPECT_TRUE(util::read_file(path, &doc));
  util::remove_file(path);
  const std::string open = "\"cells\":[";
  const auto begin = doc.find(open);
  const auto end = doc.rfind("]}");
  if (begin == std::string::npos || end == std::string::npos) return doc;
  return doc.substr(begin + open.size(), end - begin - open.size());
}

TEST(BenchCellCodec, FullCellJournalRecordIsPinned) {
  const Fields expected = {
      {"label", "DRing m=7 | su2"},
      {"wall_s", "0.10000000000000001"},
      {"events", "123456789"},
      {"intra_jobs", "3"},
      {"table_build_s", "0.375"},
      {"fct", "1"},
      {"flows", "401"},
      {"completed", "397"},
      {"p50_ms", "1.0625"},
      {"p99_ms", "7.25"},
      {"drops", "11"},
      {"retransmits", "13"},
      {"hybrid", "1"},
      {"result_hash", "18446744073709551557"},
      {"fluid_windows", "47"},
      {"fluid_solves", "53"},
      {"fluid_solves_skipped", "59"},
      {"internal_flows", "61"},
      {"boundary_flows", "67"},
      {"external_flows", "71"},
      {"region_switches", "73"},
      {"cut_links", "79"},
      {"hybrid_fault", "1"},
      {"failed_links", "83"},
      {"fluid_outages", "101"},
      {"stalled_flows", "89"},
      {"boundary_repins", "97"},
      {"fluid_blackhole_s", "0.0625"},
      {"stalled_s", "1.125"},
      {"goodput_recovery", "0.96875"},
      {"calib", "1"},
      {"packet_p50_ms", "0.9375"},
      {"packet_p99_ms", "6.5"},
      {"p50_ratio", "1.1333333333333333"},
      {"p99_ratio", "1.115"},
      {"fault", "1"},
      {"blackhole_s", "0.012500000000000001"},
      {"detect_ms", "2.5"},
      {"outage_ms", "4.75"},
      {"blackhole_drops", "17"},
      {"gray_drops", "19"},
      {"corrupt_drops", "23"},
      {"rescued_flows", "29"},
      {"undetected_gray", "31"},
      {"ctrl_outages", "37"},
      {"fault_completed", "41"},
      {"fault_flows", "43"},
  };
  EXPECT_EQ(cell_to_fields(full_cell()), expected);
}

TEST(BenchCellCodec, FullCellJsonIsPinned) {
  EXPECT_EQ(
      emitted_cells({full_cell()}),
      R"({"label":"DRing m=7 | su2","wall_s":0.1,"events":123456789,)"
      R"("events_per_sec":1.23456789e+09,"intra_jobs":3,"table_build_s":0.375,)"
      R"("fct":{"flows":401,"completed":397,"p50_ms":1.0625,"p99_ms":7.25,)"
      R"("drops":11,"retransmits":13},)"
      R"("hybrid":{"result_hash":18446744073709551557,"fluid_windows":47,)"
      R"("fluid_solves":53,"fluid_solves_skipped":59,"internal_flows":61,)"
      R"("boundary_flows":67,"external_flows":71,"region_switches":73,)"
      R"("cut_links":79},)"
      R"("fault_tolerance":{"failed_links":83,"fluid_outages":101,)"
      R"("stalled_flows":89,"boundary_repins":97,"fluid_blackhole_s":0.0625,)"
      R"("stalled_s":1.125,"goodput_recovery":0.96875},)"
      R"("calibration":{"packet_p50_ms":0.9375,"packet_p99_ms":6.5,)"
      R"("p50_ratio":1.13333333,"p99_ratio":1.115},)"
      R"("fault":{"blackhole_s":0.0125,"detect_ms":2.5,"outage_ms":4.75,)"
      R"("blackhole_drops":17,"gray_drops":19,"corrupt_drops":23,)"
      R"("rescued_flows":29,"goodput_recovery":0.96875,)"
      R"("undetected_gray_windows":31,"ctrl_outages":37,"completed":41,)"
      R"("flows":43}})");
}

TEST(BenchCellCodec, FailedCellIsPinned) {
  const Fields expected = {
      {"label", "cell4"},
      {"wall_s", "0.5"},
      {"events", "0"},
      {"intra_jobs", "1"},
      {"status", "failed"},
      {"attempts", "3"},
      {"error", "worker threw: boom"},
  };
  EXPECT_EQ(cell_to_fields(failed_cell()), expected);
  EXPECT_EQ(emitted_cells({failed_cell()}),
            R"({"label":"cell4","wall_s":0.5,"events":0,"events_per_sec":0,)"
            R"("intra_jobs":1,"status":"failed","error":"worker threw: boom",)"
            R"("attempts":3})");
}

TEST(BenchCellCodec, JournalRoundTripReEmitsTheSameJson) {
  for (const BenchJson::Cell& c : {full_cell(), failed_cell()}) {
    const BenchJson::Cell back = cell_from_fields(cell_to_fields(c));
    EXPECT_EQ(emitted_cells({back}), emitted_cells({c})) << c.label;
    EXPECT_EQ(cell_to_fields(back), cell_to_fields(c)) << c.label;
  }
}

// Keys a record lacks take the Cell defaults, including detect_ms and
// outage_ms at -1 ("no outage seen") rather than 0.
TEST(BenchCellCodec, MissingKeysDecodeToCellDefaults) {
  const Fields sparse = {{"label", "sparse"}, {"fault", "1"}};
  EXPECT_EQ(emitted_cells({cell_from_fields(sparse)}),
            R"({"label":"sparse","wall_s":0,"events":0,"events_per_sec":0,)"
            R"("intra_jobs":1,"fault":{"blackhole_s":0,"detect_ms":-1,)"
            R"("outage_ms":-1,"blackhole_drops":0,"gray_drops":0,)"
            R"("corrupt_drops":0,"rescued_flows":0,"goodput_recovery":0,)"
            R"("undetected_gray_windows":0,"ctrl_outages":0,"completed":0,)"
            R"("flows":0}})");
}

}  // namespace
}  // namespace spineless::bench
