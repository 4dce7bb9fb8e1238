// Transport ablation (extension): the paper runs standard TCP (§5.3); this
// bench checks how much of Figure 4's story depends on that choice by
// re-running the skewed and incast-heavy patterns with DCTCP (ECN marking
// at 20 packets + proportional window law) on the same DRing + SU(2).
// Expected: DCTCP trims tails (smaller queues) without changing who wins —
// the topology/routing conclusions are transport-robust.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "sim/incast_driver.h"
#include "util/table.h"
#include "workload/cs_model.h"
#include "workload/flows.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Transport ablation: TCP NewReno vs DCTCP (DRing, "
                      "Shortest-Union(2))", s, flags);

  const topo::DRing dring = s.dring();
  const topo::Graph& g = dring.graph;
  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);

  struct TmCase {
    std::string name;
    workload::RackTm tm;
  };
  std::vector<TmCase> tms;
  tms.push_back({"uniform", workload::RackTm::uniform(g)});
  tms.push_back({"FB skewed", workload::RackTm::fb_like_skewed(g, s.seed)});
  {
    Rng rng(s.seed + 4);
    const int n = g.total_servers();
    const auto sets = workload::make_cs_sets(g, n / 4, n / 16, rng);
    tms.push_back({"CS skewed (incast-y)", workload::cs_rack_tm(g, sets)});
  }

  util::Runner runner(bench::outer_jobs(flags));
  bench::BenchJson json("transport", flags);

  // FCT grid: (TM, transport) cells; even idx = NewReno, odd = DCTCP.
  const auto fct_cells =
      bench::sweep(runner, tms.size() * 2, [&](std::size_t idx) {
        const bool dctcp = idx % 2 != 0;
        const auto& c = tms[idx / 2];
        core::FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.net.ecn_threshold_bytes =
            dctcp ? 20 * sim::kDataPacketBytes : 0;
        cfg.tcp.dctcp = dctcp;
        cfg.flowgen.window = 2 * units::kMillisecond;
        cfg.flowgen.offered_load_bps =
            base_load * workload::participating_fraction(g, c.tm);
        cfg.seed = s.seed + 23;
        return core::run_fct_experiment(g, c.tm, cfg);
      });

  Table t({"TM", "transport", "p50 (ms)", "p99 (ms)", "drops",
           "max queue (pkts)"});
  for (std::size_t i = 0; i < tms.size(); ++i) {
    for (const bool dctcp : {false, true}) {
      const auto& cell = fct_cells[2 * i + (dctcp ? 1 : 0)];
      const auto& r = cell.value;
      t.add_row({tms[i].name, dctcp ? "DCTCP" : "TCP NewReno",
                 Table::fmt(r.median_ms()), Table::fmt(r.p99_ms()),
                 std::to_string(r.queue_drops),
                 std::to_string(r.max_queue_bytes / sim::kDataPacketBytes)});
      std::fprintf(stderr, "  [%s | %s] done\n", tms[i].name.c_str(),
                   dctcp ? "dctcp" : "reno");
      json.add_fct(tms[i].name + (dctcp ? " | dctcp" : " | reno"), cell);
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  // Partition-aggregate fan-in sweep: the incast case DCTCP was built for.
  // (fan-in, transport) cells; each builds its own simulator + network.
  std::printf("Partition-aggregate queries (30 KB/worker, shallow 40-pkt "
              "buffers), QCT:\n");
  const std::vector<int> fanins = {8, 16, 32, 64};
  struct QctCell {
    double p50 = 0, p99 = 0;
    std::size_t completed = 0, queries = 0;
  };
  const auto qct_cells =
      bench::sweep(runner, fanins.size() * 2, [&](std::size_t idx) {
        const int workers = fanins[idx / 2];
        const bool dctcp = idx % 2 != 0;
        sim::NetworkConfig net_cfg;
        net_cfg.queue_bytes = 40 * sim::kDataPacketBytes;
        net_cfg.ecn_threshold_bytes =
            dctcp ? 10 * sim::kDataPacketBytes : 0;
        net_cfg.mode = sim::RoutingMode::kShortestUnion;
        sim::TcpConfig tcp;
        tcp.dctcp = dctcp;
        sim::Simulator simulator;
        sim::Network net(g, net_cfg);
        sim::IncastDriver driver(net, tcp);
        Rng rng(s.seed + 6);
        const auto queries = workload::generate_incast_queries(
            g, /*queries=*/20, workers, 30'000, 2 * units::kMillisecond,
            rng);
        for (const auto& query : queries) driver.add_query(simulator, query);
        simulator.run_until(60 * units::kSecond);
        const auto qct = driver.qct_ms();
        return QctCell{qct.median(), qct.p99(), driver.completed_queries(),
                       driver.num_queries()};
      });

  Table q({"fan-in", "TCP p50 (ms)", "TCP p99 (ms)", "DCTCP p50 (ms)",
           "DCTCP p99 (ms)"});
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    const QctCell& reno = qct_cells[2 * i].value;
    const QctCell& dctcp = qct_cells[2 * i + 1].value;
    for (const bool d : {false, true}) {
      const auto& cell = qct_cells[2 * i + (d ? 1 : 0)];
      std::fprintf(stderr, "  [incast w=%d | %s] done=%zu/%zu\n", fanins[i],
                   d ? "dctcp" : "reno", cell.value.completed,
                   cell.value.queries);
      bench::BenchJson::Cell jc;
      jc.label = "incast w=" + std::to_string(fanins[i]) +
                 (d ? " | dctcp" : " | reno");
      jc.wall_s = cell.wall_s;
      json.add(std::move(jc));
    }
    q.add_row({std::to_string(fanins[i]), Table::fmt(reno.p50),
               Table::fmt(reno.p99), Table::fmt(dctcp.p50),
               Table::fmt(dctcp.p99)});
  }
  std::printf("%s", q.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
