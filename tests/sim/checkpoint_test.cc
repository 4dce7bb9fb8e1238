// Checkpoint/restore and invariant-auditor tests.
//
// The headline contract: a run segmented at quiescent boundaries — with or
// without a save + restore in the middle — is byte-identical to one
// uninterrupted run_until, for every intra_jobs split, including with an
// active FaultPlan. "Byte-identical" is asserted through exact equality of
// event counts, per-flow records, drop counters, and the injector/monitor
// JSON reports (which carry no wall-clock content).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fct_experiment.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/checkpoint.h"
#include "sim/sharded_engine.h"
#include "sim/snapshot.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "util/error.h"
#include "util/fsio.h"
#include "workload/flows.h"

namespace spineless::sim {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "spineless_ckpt_" + name;
}

// --- FCT experiment round trips --------------------------------------------

struct FctPrint {
  std::uint64_t events = 0;
  std::size_t flows = 0, completed = 0;
  std::int64_t drops = 0, retransmits = 0, max_queue = 0;
  double p50 = 0, p99 = 0;
  bool operator==(const FctPrint&) const = default;
};

FctPrint print(const core::FctResult& r) {
  return FctPrint{r.events,      r.flows,  r.completed,
                  r.queue_drops, r.retransmits, r.max_queue_bytes,
                  r.median_ms(), r.p99_ms()};
}

core::FctConfig small_cfg(int intra) {
  core::FctConfig cfg;
  cfg.flowgen.offered_load_bps = workload::spine_offered_load_bps(
      6, 2, 10e9, /*utilization=*/0.3);
  cfg.flowgen.window = units::kMillisecond;
  cfg.drain_factor = 8.0;
  cfg.seed = 7;
  cfg.net.intra_jobs = intra;
  return cfg;
}

TEST(Checkpoint, SegmentedAuditedRunMatchesOneShot) {
  for (const bool dring : {false, true}) {
    SCOPED_TRACE(dring ? "dring" : "leaf-spine");
    const topo::Graph g =
        dring ? topo::make_dring(6, 2, 2).graph : topo::make_leaf_spine(6, 2);
    const auto tm = workload::RackTm::uniform(g);
    const FctPrint base = print(core::run_fct_experiment(g, tm, small_cfg(1)));
    ASSERT_GT(base.completed, 0u);
    for (const int intra : {1, 2, 4, 7}) {
      SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
      auto cfg = small_cfg(intra);
      cfg.checkpoint.audit = true;  // forces the segmented loop + auditor
      EXPECT_EQ(base, print(core::run_fct_experiment(g, tm, cfg)));
    }
  }
}

TEST(Checkpoint, KillAndResumeIsByteIdentical) {
  const topo::Graph g = topo::make_dring(6, 2, 2).graph;
  const auto tm = workload::RackTm::uniform(g);
  const FctPrint base = print(core::run_fct_experiment(g, tm, small_cfg(1)));
  for (const int intra : {1, 2, 4, 7}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const std::string path = tmp_path("fct" + std::to_string(intra));
    util::remove_file(path);
    // The intra=4 cell saves and restores across *real* reactor threads
    // (reactor_threads is deliberately outside the config hash, so the
    // snapshot is portable between cooperative and threaded runs).
    const int threads = intra == 4 ? 4 : 0;

    // First run: cancel at the first boundary, right after the snapshot.
    auto cfg = small_cfg(intra);
    cfg.net.reactor_threads = threads;
    cfg.checkpoint.path = path;
    cfg.checkpoint.audit = true;
    cfg.checkpoint.cancel = [] { return true; };
    const auto partial = core::run_fct_experiment(g, tm, cfg);
    EXPECT_FALSE(partial.finished);
    ASSERT_TRUE(util::file_exists(path));

    // Second run: restore and continue to the deadline.
    auto cfg2 = small_cfg(intra);
    cfg2.net.reactor_threads = threads;
    cfg2.checkpoint.path = path;
    cfg2.checkpoint.resume = true;
    cfg2.checkpoint.audit = true;
    const auto resumed = core::run_fct_experiment(g, tm, cfg2);
    EXPECT_TRUE(resumed.finished);
    EXPECT_EQ(base, print(resumed));
    util::remove_file(path);
  }
}

TEST(Checkpoint, ResumeWithoutSnapshotStartsFromScratch) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const auto tm = workload::RackTm::uniform(g);
  const FctPrint base = print(core::run_fct_experiment(g, tm, small_cfg(1)));
  auto cfg = small_cfg(1);
  cfg.checkpoint.path = tmp_path("missing");
  util::remove_file(cfg.checkpoint.path);
  cfg.checkpoint.resume = true;
  cfg.checkpoint.cancel = [] { return false; };  // run to completion
  const auto r = core::run_fct_experiment(g, tm, cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(base, print(r));
  util::remove_file(cfg.checkpoint.path);
}

TEST(Checkpoint, ConfigHashMismatchIsRefused) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const auto tm = workload::RackTm::uniform(g);
  const std::string path = tmp_path("hash");
  util::remove_file(path);
  auto cfg = small_cfg(1);
  cfg.checkpoint.path = path;
  cfg.checkpoint.cancel = [] { return true; };
  ASSERT_FALSE(core::run_fct_experiment(g, tm, cfg).finished);

  auto other = small_cfg(1);
  other.seed = 8;  // different experiment -> different config hash
  other.checkpoint.path = path;
  other.checkpoint.resume = true;
  try {
    core::run_fct_experiment(g, tm, other);
    FAIL() << "restore accepted a snapshot from a different configuration";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("configuration hash"),
              std::string::npos)
        << e.what();
  }
  util::remove_file(path);
}

// --- Auditor negative tests -------------------------------------------------
// Corrupt one summary field of a real snapshot (checksum re-sealed, so only
// the cross-check can catch it) and assert the restore throws the *named*
// invariant — on the serial engine and on the sharded one, which share one
// engine view and one summary tally.

class CheckpointAuditNegative : public ::testing::Test {
 protected:
  struct Cell {
    int intra = 1;
    std::string path;
    std::string pristine;
  };

  void SetUp() override {
    for (const int intra : {1, 2}) {
      // Unique per test: ctest runs each TEST_F as its own process, possibly
      // concurrently — a shared snapshot path is a cross-process race.
      Cell c;
      c.intra = intra;
      c.path = tmp_path(std::string("audit_") +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        "_intra" + std::to_string(intra));
      util::remove_file(c.path);
      auto cfg = small_cfg(intra);
      cfg.checkpoint.path = c.path;
      cfg.checkpoint.cancel = [] { return true; };
      ASSERT_FALSE(core::run_fct_experiment(g_, tm_, cfg).finished);
      ASSERT_TRUE(util::read_file(c.path, &c.pristine));
      cells_.push_back(std::move(c));
    }
  }
  void TearDown() override {
    for (const Cell& c : cells_) util::remove_file(c.path);
  }

  core::FctConfig resume_cfg(const Cell& c) const {
    auto cfg = small_cfg(c.intra);
    cfg.checkpoint.path = c.path;
    cfg.checkpoint.resume = true;
    return cfg;
  }

  void expect_violation(SummaryField field, std::uint64_t value,
                        const std::string& invariant) {
    for (const Cell& c : cells_) {
      SCOPED_TRACE("intra_jobs=" + std::to_string(c.intra));
      ASSERT_TRUE(util::atomic_write_file(c.path, c.pristine));
      snapshot_patch_u64(c.path, kSectionSummary, field, value);
      try {
        core::run_fct_experiment(g_, tm_, resume_cfg(c));
        FAIL() << "restore accepted a snapshot with corrupted " << invariant;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("[" + invariant + "]"),
                  std::string::npos)
            << e.what();
      }
    }
  }

  topo::Graph g_ = topo::make_leaf_spine(6, 2);
  workload::RackTm tm_ = workload::RackTm::uniform(g_);
  std::vector<Cell> cells_;
};

TEST_F(CheckpointAuditNegative, CorruptedClockNamesMonotonicEventTime) {
  expect_violation(kSummaryNow, 1, "monotonic_event_time");
}

TEST_F(CheckpointAuditNegative, CorruptedEventCountNamesMonotonicEventTime) {
  expect_violation(kSummaryProcessed, 1, "monotonic_event_time");
}

TEST_F(CheckpointAuditNegative, CorruptedInFlightNamesPacketConservation) {
  expect_violation(kSummaryPacketEvents, 1 << 20, "packet_conservation");
}

TEST_F(CheckpointAuditNegative, CorruptedQueueCountNamesPacketConservation) {
  expect_violation(kSummaryQueuedNodes, 1 << 20, "packet_conservation");
}

TEST_F(CheckpointAuditNegative, CorruptedQueueBytesNamesQueueOccupancy) {
  expect_violation(kSummaryQueuedBytes, 1 << 30, "queue_occupancy");
}

TEST_F(CheckpointAuditNegative, CorruptedHopCountNamesTtl) {
  expect_violation(kSummaryMaxHops, 1000, "ttl");
}

TEST_F(CheckpointAuditNegative, BitFlipFailsTheChecksum) {
  for (const Cell& c : cells_) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(c.intra));
    std::string bytes = c.pristine;
    bytes[bytes.size() / 2] ^= 0x40;
    ASSERT_TRUE(util::atomic_write_file(c.path, bytes));
    EXPECT_THROW(core::run_fct_experiment(g_, tm_, resume_cfg(c)), Error);
  }
}

// --- Fault-injection round trip ---------------------------------------------
// The bench_failures part-3 shape: Network + FlowDriver + FaultInjector +
// DegradationMonitor driven through a CheckpointSession. A run saved and
// restored mid-flap must replay identically to an uninterrupted one.

constexpr Time kFaultDeadline = 12 * units::kMillisecond;

struct FaultPrint {
  std::uint64_t events = 0;
  std::int64_t queue_drops = 0, gray_drops = 0, corrupt_drops = 0;
  std::int64_t delivered_bytes = 0;
  std::string injector_json;
  std::string monitor_json;
  std::vector<std::int64_t> flow_finish;
  bool operator==(const FaultPrint&) const = default;
};

// interrupt_at: boundary index after which to stop (-1 = never). With a
// path, every boundary snapshots to it, so a stopped run leaves its resume
// point there.
FaultPrint run_fault_cell(int intra, int interrupt_at,
                          const std::string& path, bool resume) {
  const auto d = topo::make_dring(6, 2, 2);
  NetworkConfig cfg;
  cfg.mode = RoutingMode::kShortestUnion;
  cfg.intra_jobs = intra;
  Network net(d.graph, cfg);
  FlowDriver driver(net, TcpConfig{});
  const auto plan = fault::FaultPlan::parse(
      "flap link=0 down=2ms up=6ms;"
      " gray link=5 drop=0.05 corrupt=0.01 from=1ms until=9ms",
      d.graph, 42);
  fault::FaultInjector inj(net, plan, fault::FaultInjectorConfig{});
  fault::DegradationMonitor mon(net, 250 * units::kMicrosecond);

  HashChain h;
  h.mix(42).mix(static_cast<std::uint64_t>(intra));
  CheckpointSession session(net, h.value());
  session.add(&driver);
  session.add(&inj);
  session.add(&mon);

  CheckpointSpec spec;
  spec.path = path;
  spec.resume = resume;
  spec.audit = true;
  int boundary = 0;
  if (interrupt_at >= 0)
    spec.cancel = [&] { return ++boundary == interrupt_at; };

  FaultPrint out;
  const bool finished = with_engine(net, [&](auto& eng, Simulator& control) {
    const int hosts = d.graph.total_servers();
    for (int i = 0; i < 12; ++i)
      driver.add_flow(control, i % hosts, (i * 5 + 3) % hosts, 4'000'000,
                      i * units::kMicrosecond);
    inj.arm(control, kFaultDeadline);
    mon.start(control, 0, kFaultDeadline);
    const bool done =
        run_segments(eng, &session, spec, kFaultDeadline, kFaultDeadline / 6);
    out.events = eng.events_processed();
    return done;
  });
  if (!finished) return out;  // caller resumes; counters are partial

  const auto stats = net.stats();
  out.queue_drops = stats.queue_drops;
  out.gray_drops = stats.gray_drops;
  out.corrupt_drops = stats.corrupt_drops;
  out.delivered_bytes = stats.delivered_bytes;
  out.injector_json = inj.report_json(kFaultDeadline);
  out.monitor_json = mon.to_json();
  for (std::size_t i = 0; i < driver.num_flows(); ++i)
    out.flow_finish.push_back(
        driver.flow(static_cast<std::int32_t>(i)).record().finish);
  return out;
}

TEST(Checkpoint, FaultPlanKillAndResumeIsByteIdentical) {
  const FaultPrint base = run_fault_cell(1, -1, "", false);
  ASSERT_GT(base.gray_drops + base.corrupt_drops, 0);
  for (const int intra : {1, 2, 4, 7}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const std::string path = tmp_path("fault" + std::to_string(intra));
    util::remove_file(path);
    // Boundary 2 lands mid-flap (t=4ms of a 2-6ms outage): the snapshot
    // carries down links, armed BFD timers, and half-delivered flows.
    run_fault_cell(intra, 2, path, false);
    ASSERT_TRUE(util::file_exists(path));
    const FaultPrint resumed = run_fault_cell(intra, -1, path, true);
    EXPECT_EQ(base, resumed);
    util::remove_file(path);
  }
}

}  // namespace
}  // namespace spineless::sim
