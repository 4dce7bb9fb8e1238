// Golden SPNLCKPT bytes and snapshot corruption regressions.
//
// Golden: the exact bytes every snapshot owner writes are pinned by their
// FNV-1a hash at a mid-run cancel, for
//  (a) the CheckpointAuditNegative FCT cell (leaf-spine 6x2, serial),
//  (b) the same cell sharded (intra_jobs=2) under SU(2) with flowlet
//      switching and a flap + gray + degrade fault plan — gray RNG state,
//      BFD receivers, the injector, the degradation monitor, flowlet
//      tables and the GLBL section,
//  (c) a small hybrid cell with faults — HYBR v2, boundary sources and
//      sinks, boundary re-pins,
//  (d) spinelessd's warm-state files (warm checkpoint + baseline scalars).
// A codec change that moves a single byte fails here, and restoring a
// snapshot and saving again must reproduce it byte for byte.
//
// Corruption: a checksum-resealed snapshot whose counts or link ids are
// out of range must be refused with util Error naming the section — never
// a multi-terabyte allocation or a crash (the robustness label puts these
// under the ASan and UBSan builds too).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "service/warm_state.h"
#include "sim/checkpoint.h"
#include "sim/sharded_engine.h"
#include "sim/snapshot.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "topo/region.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/rng.h"
#include "workload/flows.h"

namespace spineless::sim {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "spineless_golden_" + name;
}

std::uint64_t get_le(const std::string& bytes, std::size_t pos, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= std::uint64_t{static_cast<unsigned char>(
             bytes[pos + static_cast<std::size_t>(i)])}
         << (8 * i);
  return v;
}

void put_le64(std::string* bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    (*bytes)[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
}

// File offset of the payload of the first section tagged `tag` (0 when
// absent), and its length.
std::pair<std::size_t, std::uint64_t> find_section(const std::string& bytes,
                                                   std::uint32_t tag) {
  const std::size_t payload_end = bytes.size() - 8;
  std::size_t pos = 8 + 4 + 8;  // magic, version, config hash
  while (pos + 12 <= payload_end) {
    const auto got = static_cast<std::uint32_t>(get_le(bytes, pos, 4));
    const std::uint64_t len = get_le(bytes, pos + 4, 8);
    pos += 12;
    if (got == tag) return {pos, len};
    pos += len;
  }
  return {0, 0};
}

// Overwrites the 8 bytes at `byte_offset` into section `tag`'s payload and
// re-seals the checksum, the way snapshot_patch_u64 does for 8-byte-aligned
// fields (most of the counts patched here are not 8-byte aligned).
void patch_u64_at(std::string* bytes, std::uint32_t tag,
                  std::size_t byte_offset, std::uint64_t value) {
  const auto [pos, len] = find_section(*bytes, tag);
  ASSERT_NE(pos, 0u) << section_tag_name(tag) << " not in the snapshot";
  ASSERT_LE(byte_offset + 8, len) << "patch outside the section";
  put_le64(bytes, pos + byte_offset, value);
  const std::size_t payload_end = bytes->size() - 8;
  put_le64(bytes, payload_end, fnv1a({bytes->data(), payload_end}));
}

// Restoring `bytes` must throw util Error whose message names `section`.
template <class Restore>
void expect_refused(Restore&& restore, const std::string& section) {
  try {
    restore();
    FAIL() << "restore accepted a corrupted " << section << " section";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(section), std::string::npos)
        << e.what();
  }
}

// --- Packet cells (a) and (b) -----------------------------------------------

// The CheckpointAuditNegative cell: leaf-spine(6,2), 30% load, 1 ms window.
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

// Cell (b): the same workload, sharded, SU(2) with flowlet switching, and
// a fault plan whose flap, gray and degrade clauses all overlap the cancel
// point (boundary 4, t = 0.5 ms).
core::FctConfig fault_cfg() {
  core::FctConfig cfg = small_cfg(2);
  cfg.net.mode = RoutingMode::kShortestUnion;
  cfg.net.su_k = 2;
  cfg.net.flowlet_gap = 50 * units::kMicrosecond;
  return cfg;
}
constexpr const char* kFaultSpec =
    "flap link=0 down=200us up=700us;"
    " gray link=3 drop=0.05 corrupt=0.01 from=100us until=900us;"
    " degrade link=5 rate=0.5 from=100us until=800us";

// Reconstructs the cell exactly as run_fct_experiment does (plus the fault
// parts when `faults`), then either runs it to boundary `stop_at` and
// returns save_bytes there, or — with `restore` non-empty — restores those
// bytes into the fresh reconstruction and returns save_bytes right after.
std::string packet_cell_bytes(const core::FctConfig& cfg, bool faults,
                              int stop_at, const std::string& restore = {}) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const auto tm = workload::RackTm::uniform(g);
  Rng rng(cfg.seed);
  const auto specs = core::generate_experiment_flows(g, tm, cfg, rng);
  const Time deadline = core::run_deadline(cfg);

  Network net(g, cfg.net);
  FlowDriver driver(net, cfg.tcp);
  const auto plan = fault::FaultPlan::parse(kFaultSpec, g, 42);
  std::unique_ptr<fault::FaultInjector> inj;
  std::unique_ptr<fault::DegradationMonitor> mon;
  if (faults) {
    inj = std::make_unique<fault::FaultInjector>(net, plan,
                                                 fault::FaultInjectorConfig{});
    mon = std::make_unique<fault::DegradationMonitor>(
        net, 100 * units::kMicrosecond);
  }
  return with_engine(net, [&](auto& eng, Simulator& control) {
    for (const auto& f : specs)
      driver.add_flow(control, f.src, f.dst, f.bytes, f.start);
    CheckpointSession session(net, core::fct_config_hash(g, cfg));
    session.add(&driver);
    if (faults) {
      inj->arm(control, deadline);
      mon->start(control, 0, deadline);
      session.add(inj.get());
      session.add(mon.get());
    }
    if (!restore.empty()) {
      session.restore_bytes(restore, eng);
      return session.save_bytes(eng);
    }
    std::string bytes;
    CheckpointSpec spec;
    spec.audit = true;
    int boundary = 0;
    spec.cancel = [&] {
      if (++boundary < stop_at) return false;
      bytes = session.save_bytes(eng);
      return true;
    };
    EXPECT_FALSE(run_segments(eng, &session, spec, deadline,
                              std::max<Time>(1, deadline / 64)));
    return bytes;
  });
}

TEST(SnapshotGolden, FctCellSerial) {
  const std::string bytes = packet_cell_bytes(small_cfg(1), false, 1);
  EXPECT_EQ(fnv1a(bytes), 843888506349958380u) << bytes.size() << " bytes";

  // The hand-built cell is the one run_fct_experiment checkpoints.
  const std::string path = tmp_path("fct_serial");
  util::remove_file(path);
  auto cfg = small_cfg(1);
  cfg.checkpoint.path = path;
  cfg.checkpoint.cancel = [] { return true; };
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  ASSERT_FALSE(
      core::run_fct_experiment(g, workload::RackTm::uniform(g), cfg).finished);
  std::string file;
  ASSERT_TRUE(util::read_file(path, &file));
  EXPECT_EQ(file, bytes);
  util::remove_file(path);

  EXPECT_EQ(packet_cell_bytes(small_cfg(1), false, 0, bytes), bytes);
}

TEST(SnapshotGolden, FctCellShardedWithFaultsAndFlowlets) {
  const std::string bytes = packet_cell_bytes(fault_cfg(), true, 4);
  EXPECT_EQ(fnv1a(bytes), 4667413007120444221u) << bytes.size() << " bytes";
  EXPECT_EQ(packet_cell_bytes(fault_cfg(), true, 0, bytes), bytes);
}

// --- Hybrid cell (c) --------------------------------------------------------

// The hybrid_fault_test cell: 6x2 DRing, supernodes {0,1} packet-level,
// one region-internal flap, one cut-link failure (boundary re-pin) and one
// external failure (fluid re-path).
struct HybridCell {
  topo::DRing d = topo::make_dring(6, 2, 2);
  workload::RackTm tm = workload::RackTm::uniform(d.graph);
  std::string spec;

  HybridCell() {
    const auto cut = topo::region_from_supernodes(d.graph, d.supernode_of,
                                                  {0, 1});
    topo::LinkId internal = topo::kInvalidLink;
    topo::LinkId external = topo::kInvalidLink;
    for (topo::LinkId l = 0; l < d.graph.num_links(); ++l) {
      const bool a_hot = cut.contains(d.graph.link(l).a);
      const bool b_hot = cut.contains(d.graph.link(l).b);
      if (a_hot && b_hot && internal == topo::kInvalidLink) internal = l;
      if (!a_hot && !b_hot && external == topo::kInvalidLink) external = l;
    }
    spec = "flap link=" + std::to_string(internal) +
           " down=1ms up=3ms; fail link=" + std::to_string(cut.cut[0].link) +
           " at=1500us; fail link=" + std::to_string(external) + " at=2ms";
  }

  // Runs to window `stop_at` (resuming from `path` when `resume`) and
  // returns the snapshot left at `path`.
  std::string bytes_at(const std::string& path, int stop_at,
                       bool resume) const {
    core::HybridConfig cfg;
    cfg.fct.seed = 7;
    cfg.fct.flowgen.offered_load_bps =
        workload::spine_offered_load_bps(6, 2, 10e9, /*utilization=*/0.3);
    cfg.fct.flowgen.window = units::kMillisecond;
    cfg.fct.drain_factor = 8.0;
    cfg.region_mode = core::RegionMode::kSupernodes;
    cfg.region_supernodes = {0, 1};
    cfg.window = 50 * units::kMicrosecond;
    cfg.fault_spec = spec;
    cfg.fct.checkpoint.path = path;
    cfg.fct.checkpoint.resume = resume;
    int windows = 0;
    cfg.fct.checkpoint.cancel = [&windows, stop_at] {
      return ++windows >= stop_at;
    };
    EXPECT_FALSE(
        core::run_hybrid_experiment(d.graph, tm, cfg, &d.supernode_of)
            .finished);
    std::string bytes;
    EXPECT_TRUE(util::read_file(path, &bytes));
    return bytes;
  }
};

// Window 40 (~2 ms): the internal link is down and routed out, the cut
// link's boundary flows are re-pinned, the external failure is imminent.
TEST(SnapshotGolden, HybridCellWithFaults) {
  const HybridCell cell;
  const std::string path = tmp_path("hybrid");
  util::remove_file(path);
  const std::string bytes = cell.bytes_at(path, 40, false);
  EXPECT_EQ(fnv1a(bytes), 3269734339380786178u) << bytes.size() << " bytes";

  // The hybrid loop owns its session, so the round trip goes through a
  // kill one window earlier: restoring window 39 and saving at window 40
  // must reproduce the uninterrupted window-40 bytes.
  util::remove_file(path);
  cell.bytes_at(path, 39, false);
  EXPECT_EQ(cell.bytes_at(path, 1, true), bytes);
  util::remove_file(path);
}

// --- spinelessd warm state (d) ----------------------------------------------

TEST(SnapshotGolden, ServiceWarmStateFiles) {
  const std::string dir = tmp_path("service");
  service::ServiceConfig cfg;
  cfg.snapshot_dir = dir;
  util::remove_file(dir + "/service_warm.snap");
  util::remove_file(dir + "/service_baseline.snap");
  const auto fresh = service::WarmState::build(cfg);
  ASSERT_FALSE(fresh->restored_from_disk());
  std::string warm, baseline;
  ASSERT_TRUE(util::read_file(dir + "/service_warm.snap", &warm));
  ASSERT_TRUE(util::read_file(dir + "/service_baseline.snap", &baseline));
  EXPECT_EQ(fnv1a(warm), 15355231547753989048u) << warm.size() << " bytes";
  EXPECT_EQ(fnv1a(baseline), 15944164115282872016u)
      << baseline.size() << " bytes";

  // The baseline file is a pure function of the warm hash and the ten
  // baseline scalars; a reload must give them back bit for bit.
  const auto restored = service::WarmState::build(cfg);
  ASSERT_TRUE(restored->restored_from_disk());
  EXPECT_EQ(restored->warm_hash(), fresh->warm_hash());
  for (const auto& [a, b] :
       {std::pair{&fresh->baseline_packet(), &restored->baseline_packet()},
        std::pair{&fresh->baseline_fluid(), &restored->baseline_fluid()}}) {
    EXPECT_EQ(a->p50_ms, b->p50_ms);
    EXPECT_EQ(a->p99_ms, b->p99_ms);
    EXPECT_EQ(a->flows, b->flows);
    EXPECT_EQ(a->completed, b->completed);
    EXPECT_EQ(a->goodput_bps, b->goodput_bps);
  }
}

// --- Corruption regressions -------------------------------------------------

constexpr std::uint32_t kSectionNetTag = 0x4e455457;     // "NETW"
constexpr std::uint32_t kSectionEngineTag = 0x454e474e;  // "ENGN"

// ENGN: i64 now, u64 processed, u64 root key, u32 lazy oid, then the
// pending-event count at byte 28.
TEST(SnapshotCorruption, HugeEventCountIsRefused) {
  std::string bytes = packet_cell_bytes(small_cfg(1), false, 1);
  patch_u64_at(&bytes, kSectionEngineTag, 28, std::uint64_t{1} << 37);
  expect_refused([&] { packet_cell_bytes(small_cfg(1), false, 0, bytes); },
                 "ENGN");
}

// A NETW link set holding id -1 (LinkSet::insert would size itself for
// 2^58 words). The id's offset is found by diffing a snapshot with one
// routed-out link against one without: the set's count word is the first
// NETW payload byte that differs, and the id follows it.
TEST(SnapshotCorruption, NegativeDownLinkIdIsRefused) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const auto snapshot = [&g](bool routed_out, const std::string& restore) {
    Network net(g, NetworkConfig{});
    if (routed_out) net.set_link_routed_out(3, true);
    Simulator sim;
    CheckpointSession session(net, 1);
    if (!restore.empty()) session.restore_bytes(restore, sim);
    return session.save_bytes(sim);
  };
  const std::string clean = snapshot(false, {});
  std::string bytes = snapshot(true, {});
  ASSERT_EQ(snapshot(false, bytes), bytes);  // the pristine bytes restore
  const std::size_t netw = find_section(bytes, kSectionNetTag).first;
  ASSERT_EQ(find_section(clean, kSectionNetTag).first, netw);
  std::size_t diff = netw;
  while (diff < clean.size() && clean[diff] == bytes[diff]) ++diff;
  ASSERT_LT(diff, clean.size());
  patch_u64_at(&bytes, kSectionNetTag, diff + 8 - netw,
               ~std::uint64_t{0});
  expect_refused([&] { snapshot(false, bytes); }, "NETW");
}

// HYBR fluid flow 0's route length: version word, 4 counters, 2 peaks,
// the flow count (64 bytes), then flow 0's 4 doubles, 2 times, 3 flags,
// generation, stall_since, stalled_s, entry and exit cut (91 bytes).
TEST(SnapshotCorruption, HugeHybridResourceCountIsRefused) {
  const HybridCell cell;
  const std::string path = tmp_path("hybrid_corrupt");
  util::remove_file(path);
  std::string bytes = cell.bytes_at(path, 40, false);
  patch_u64_at(&bytes, kSectionHybrid, 64 + 91, std::uint64_t{1} << 40);
  ASSERT_TRUE(util::atomic_write_file(path, bytes));
  expect_refused([&] { cell.bytes_at(path, 1, true); }, "HYBR");
  util::remove_file(path);
}

// Route resource ids and gateway cut indices are used as array indices
// after a restore; out-of-range values must be refused on load. Flow 0's
// route ids follow its route length (previous test's offset), and its
// entry and exit cut indices sit 16 and 8 bytes before that length.
constexpr std::size_t kHybridFlow0Cuts = 64 + 75;
constexpr std::size_t kHybridFlow0Route = 64 + 91;

TEST(SnapshotCorruption, OutOfRangeHybridRouteResourceIsRefused) {
  const HybridCell cell;
  const std::string path = tmp_path("hybrid_corrupt_route");
  util::remove_file(path);
  const std::string clean = cell.bytes_at(path, 40, false);
  const std::size_t hybr = find_section(clean, kSectionHybrid).first;
  ASSERT_GT(get_le(clean, hybr + kHybridFlow0Route, 8), 0u);
  for (const std::uint64_t id :
       {std::uint64_t{(1u << 31) - 1}, ~std::uint64_t{0}}) {
    SCOPED_TRACE(id);
    std::string bytes = clean;
    patch_u64_at(&bytes, kSectionHybrid, kHybridFlow0Route + 8, id);
    ASSERT_TRUE(util::atomic_write_file(path, bytes));
    expect_refused([&] { cell.bytes_at(path, 1, true); }, "HYBR");
  }
  util::remove_file(path);
}

TEST(SnapshotCorruption, OutOfRangeHybridCutIndexIsRefused) {
  const HybridCell cell;
  const std::string path = tmp_path("hybrid_corrupt_cut");
  util::remove_file(path);
  const std::string clean = cell.bytes_at(path, 40, false);
  for (const std::size_t field : {kHybridFlow0Cuts, kHybridFlow0Cuts + 8}) {
    for (const std::uint64_t c :
         {std::uint64_t{1} << 20, static_cast<std::uint64_t>(-2)}) {
      SCOPED_TRACE(std::to_string(field) + " <- " + std::to_string(c));
      std::string bytes = clean;
      patch_u64_at(&bytes, kSectionHybrid, field, c);
      ASSERT_TRUE(util::atomic_write_file(path, bytes));
      expect_refused([&] { cell.bytes_at(path, 1, true); }, "HYBR");
    }
  }
  util::remove_file(path);
}

}  // namespace
}  // namespace spineless::sim
