// spinelessd serving-layer tests: JSON parsing, request canonicalization,
// warm-checkpoint identity (empty what-if == baseline), snapshot
// restore determinism, the result cache, and the robustness ladder
// (overload shedding, fluid degradation, queue-deadline sheds, drain).
// Process-level SIGTERM / kill -9 coverage lives in
// scripts/service_drain_smoke.sh (ctest: service_drain_smoke).
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/engine.h"
#include "service/jsonin.h"
#include "service/request.h"
#include "service/warm_state.h"
#include "util/error.h"
#include "util/fsio.h"

namespace spineless::service {
namespace {

// One shared warm state for the whole suite: building it runs the warm
// prefix + baseline simulations once (~100 ms) instead of per-test.
const WarmState& shared_warm() {
  static const std::unique_ptr<WarmState> warm = [] {
    ServiceConfig cfg;
    return WarmState::build(cfg);
  }();
  return *warm;
}

EngineConfig quiet_engine(int workers = 1) {
  EngineConfig cfg;
  cfg.workers = workers;
  return cfg;
}

// Collects async responses and blocks until all arrive.
struct Collector {
  std::function<void(std::string)> sink() {
    return [this](std::string r) {
      std::lock_guard<std::mutex> l(mu);
      responses.push_back(std::move(r));
      cv.notify_all();
    };
  }
  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return responses.size() >= n; });
  }
  std::size_t count_containing(const std::string& needle) {
    std::lock_guard<std::mutex> l(mu);
    std::size_t n = 0;
    for (const auto& r : responses)
      if (r.find(needle) != std::string::npos) ++n;
    return n;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> responses;
};

TEST(Jsonin, ParsesScalarsStringsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a":1,"b":-2.5e2,"c":"x\"\nA","d":[true,false,null],"e":{"k":3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_number(), -250.0);
  EXPECT_EQ(v.find("c")->as_string(), "x\"\nA");
  ASSERT_TRUE(v.find("d")->is_array());
  EXPECT_EQ(v.find("d")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("d")->as_array()[0].as_bool());
  EXPECT_EQ(v.find("e")->find("k")->as_int(), 3);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Jsonin, RejectsMalformedInputWithBytePosition) {
  const auto expect_error = [](const std::string& doc) {
    try {
      parse_json(doc);
      FAIL() << "expected a parse error for: " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("json:"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
    }
  };
  expect_error("");
  expect_error("{");
  expect_error("{\"a\":}");
  expect_error("{\"a\":1,}");
  expect_error("[1 2]");
  expect_error("{\"a\":01}");
  expect_error("\"unterminated");
  expect_error("{\"a\":1} trailing");
}

TEST(Request, ParsesAndCanonicalizes) {
  const Request r = parse_request(
      R"({"id":7,"kind":"whatif_fault","spec":"fail link=1 at=1ms",)"
      R"("fidelity":"fluid","deadline_ms":50,"seed_salt":9})");
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.kind, RequestKind::kWhatIfFault);
  EXPECT_EQ(r.fidelity, Fidelity::kFluid);
  EXPECT_EQ(r.seed_salt, 9u);
  // The body excludes id and deadline_ms: two requests asking the same
  // question have byte-equal bodies regardless of scheduling fields.
  Request r2 = r;
  r2.id = 99;
  r2.deadline_ms = 0;
  EXPECT_EQ(canonical_request_body(r), canonical_request_body(r2));
  EXPECT_NE(canonical_request_line(r), canonical_request_line(r2));
  // A canonical line reparses to the same body.
  const Request r3 = parse_request(canonical_request_line(r));
  EXPECT_EQ(canonical_request_body(r3), canonical_request_body(r));
}

TEST(Request, RejectsBadFields) {
  EXPECT_THROW(parse_request("[]"), Error);
  EXPECT_THROW(parse_request(R"({"kind":"status"})"), Error);  // no id
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"nope"})"), Error);
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"whatif_fault"})"), Error);
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"whatif_tm","tm":"zipf"})"),
               Error);
  EXPECT_THROW(parse_request(
                   R"({"id":1,"kind":"whatif_tm","tm":"skewed","load_scale":9})"),
               Error);
  EXPECT_THROW(
      parse_request(R"({"id":1,"kind":"status","deadline_ms":-1})"), Error);
}

TEST(WarmState, EmptyWhatIfReproducesBaselineExactly) {
  const WarmState& warm = shared_warm();
  // Restoring the warm checkpoint and running an empty fault plan to the
  // horizon must land on the identical trajectory the baseline took —
  // exact float equality, not tolerance.
  const WhatIfResult r = warm.whatif_fault_packet("", 0, nullptr);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.p50_ms, warm.baseline_packet().p50_ms);
  EXPECT_EQ(r.p99_ms, warm.baseline_packet().p99_ms);
  EXPECT_EQ(r.completed, warm.baseline_packet().completed);
  EXPECT_EQ(r.delta_p50_ms, 0.0);
  EXPECT_EQ(r.outages, 0u);

  const WhatIfResult f = warm.whatif_fault_fluid("", 0);
  EXPECT_EQ(f.p50_ms, warm.baseline_fluid().p50_ms);
  EXPECT_EQ(f.p99_ms, warm.baseline_fluid().p99_ms);
}

TEST(WarmState, FaultWhatIfDetectsAndReportsOutage) {
  const WhatIfResult r =
      shared_warm().whatif_fault_packet("fail link=3 at=1ms", 0, nullptr);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.outages, 1u);
  EXPECT_GT(r.blackhole_s, 0.0);
  EXPECT_GT(r.detect_ms, 0.0);
  EXPECT_GT(r.goodput_recovery, 0.5);
}

TEST(WarmState, CancelHookSegmentsWithoutChangingTheAnswer) {
  // A hook that never fires splits the run into polled segments; the
  // answer must equal the one-segment run's exactly. One that always
  // fires stops the run at the first boundary.
  const WarmState& warm = shared_warm();
  const std::string spec = "flap link=5 down=1ms up=3ms";
  const WhatIfResult one = warm.whatif_fault_packet(spec, 0, nullptr);
  int polls = 0;
  const WhatIfResult polled = warm.whatif_fault_packet(spec, 0, [&polls] {
    ++polls;
    return false;
  });
  EXPECT_GT(polls, 0);
  EXPECT_TRUE(polled.finished);
  EXPECT_EQ(polled.p50_ms, one.p50_ms);
  EXPECT_EQ(polled.p99_ms, one.p99_ms);
  EXPECT_EQ(polled.flows, one.flows);
  EXPECT_EQ(polled.completed, one.completed);
  EXPECT_EQ(polled.delta_p50_ms, one.delta_p50_ms);
  EXPECT_EQ(polled.delta_p99_ms, one.delta_p99_ms);
  EXPECT_EQ(polled.blackhole_s, one.blackhole_s);
  EXPECT_EQ(polled.outages, one.outages);
  EXPECT_EQ(polled.detect_ms, one.detect_ms);
  EXPECT_EQ(polled.goodput_recovery, one.goodput_recovery);

  const WhatIfResult canceled =
      warm.whatif_fault_packet(spec, 0, [] { return true; });
  EXPECT_FALSE(canceled.finished);
}

TEST(WarmState, FaultInsideWarmPrefixIsRejected) {
  // warm_time defaults to 500us: a what-if fault cannot land inside the
  // already-simulated prefix.
  EXPECT_THROW(
      shared_warm().whatif_fault_packet("fail link=0 at=100us", 0, nullptr),
      Error);
}

TEST(WarmState, SnapshotRestoreGivesByteIdenticalAnswers) {
  const std::string dir = ::testing::TempDir() + "spineless_service_snap";
  ServiceConfig cfg;
  cfg.snapshot_dir = dir;
  util::remove_file(dir + "/service_warm.snap");
  util::remove_file(dir + "/service_baseline.snap");

  const auto fresh = WarmState::build(cfg);
  ASSERT_FALSE(fresh->restored_from_disk());
  const auto restored = WarmState::build(cfg);
  ASSERT_TRUE(restored->restored_from_disk());
  EXPECT_EQ(fresh->warm_hash(), restored->warm_hash());
  EXPECT_EQ(fresh->baseline_packet().p50_ms, restored->baseline_packet().p50_ms);

  // Answers computed against the restored state are byte-identical.
  Engine a(*fresh, quiet_engine());
  Engine b(*restored, quiet_engine());
  const std::vector<std::string> lines = {
      R"({"id":1,"kind":"whatif_fault","spec":"flap link=5 down=1ms up=3ms"})",
      R"({"id":2,"kind":"whatif_tm","tm":"permutation","seed_salt":3,"fidelity":"fluid"})",
      R"({"id":3,"kind":"affected","link":2,"down":true})",
  };
  for (const auto& line : lines)
    EXPECT_EQ(a.handle_line(line), b.handle_line(line)) << line;
}

TEST(Engine, RepeatedRequestIsCachedByteIdentical) {
  Engine engine(shared_warm(), quiet_engine());
  const std::string line =
      R"({"id":4,"kind":"whatif_fault","spec":"fail link=7 at=2ms"})";
  const std::string first = engine.handle_line(line);
  const std::string second = engine.handle_line(line);
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  // Same question under a different id: cache hit, only the id differs.
  const std::string third = engine.handle_line(
      R"({"id":5,"kind":"whatif_fault","spec":"fail link=7 at=2ms"})");
  EXPECT_EQ(engine.stats().cache_hits, 2u);
  EXPECT_EQ(third.substr(third.find("\"status\"")),
            first.substr(first.find("\"status\"")));
}

TEST(Engine, BadRequestsYieldErrorResponsesAndEngineSurvives) {
  Engine engine(shared_warm(), quiet_engine());
  // Unparseable line, unknown link, overlapping fault clauses: all must
  // come back as `error` responses, never take the engine down.
  EXPECT_NE(engine.handle_line("not json").find("\"status\":\"error\""),
            std::string::npos);
  EXPECT_NE(engine
                .handle_line(
                    R"({"id":1,"kind":"whatif_fault","spec":"fail link=9999 at=1ms"})")
                .find("\"status\":\"error\""),
            std::string::npos);
  const std::string overlap = engine.handle_line(
      R"({"id":2,"kind":"whatif_fault","spec":"fail link=1 at=1ms; fail link=1 at=2ms"})");
  EXPECT_NE(overlap.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(overlap.find("disjoint time windows"), std::string::npos);
  // The engine still answers real questions afterwards.
  EXPECT_NE(engine
                .handle_line(
                    R"({"id":3,"kind":"whatif_fault","spec":"fail link=1 at=1ms"})")
                .find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_EQ(engine.stats().errors, 3u);
}

TEST(Engine, OverloadShedsExplicitlyAndStaysUp) {
  EngineConfig cfg = quiet_engine(/*workers=*/1);
  cfg.queue_limit = 1;
  Engine engine(shared_warm(), cfg);
  Collector c;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    engine.submit(R"({"id":)" + std::to_string(i) +
                      R"(,"kind":"whatif_tm","tm":"skewed","seed_salt":)" +
                      std::to_string(i) + "}",
                  c.sink());
  }
  c.wait_for(n);
  const std::size_t shed = c.count_containing("\"status\":\"overloaded\"");
  const std::size_t ok = c.count_containing("\"status\":\"ok\"");
  EXPECT_GE(shed, 1u) << "a 1-deep queue must reject most of an 8-burst";
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(shed + ok, static_cast<std::size_t>(n));
  // And the engine still serves after the burst.
  EXPECT_NE(engine.handle_line(R"({"id":99,"kind":"status"})")
                .find("\"status\":\"ok\""),
            std::string::npos);
}

TEST(Engine, DeepQueueDegradesAutoRequestsToFluid) {
  EngineConfig cfg = quiet_engine(/*workers=*/1);
  cfg.degrade_depth = 0;  // any queued depth > 0 triggers degradation
  cfg.queue_limit = 64;
  Engine engine(shared_warm(), cfg);
  Collector c;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    engine.submit(R"({"id":)" + std::to_string(i) +
                      R"(,"kind":"whatif_fault","spec":"fail link=)" +
                      std::to_string(i) + R"( at=1ms"})",
                  c.sink());
  }
  c.wait_for(n);
  EXPECT_EQ(c.count_containing("\"status\":\"ok\""),
            static_cast<std::size_t>(n));
  // The first request may run at packet fidelity (empty queue when it was
  // popped); the burst behind it must have degraded.
  EXPECT_GE(engine.stats().degraded, 1u);
  EXPECT_GE(c.count_containing("\"fidelity\":\"fluid\",\"degraded\":true"), 1u);
}

TEST(Engine, QueuedDeadlineExpiryIsShed) {
  EngineConfig cfg = quiet_engine(/*workers=*/1);
  Engine engine(shared_warm(), cfg);
  Collector c;
  // A slow packet request occupies the single worker...
  engine.submit(R"({"id":1,"kind":"whatif_tm","tm":"skewed","seed_salt":1})",
                c.sink());
  // ...so this one's 1ms deadline burns down in the queue and it is shed
  // without ever simulating.
  engine.submit(
      R"({"id":2,"kind":"whatif_fault","spec":"fail link=1 at=1ms","deadline_ms":0.01})",
      c.sink());
  c.wait_for(2);
  EXPECT_EQ(c.count_containing("\"reason\":\"deadline_expired\""), 1u);
}

TEST(Engine, DrainRefusesNewAndFinishesInFlight) {
  Engine engine(shared_warm(), quiet_engine());
  Collector c;
  engine.submit(
      R"({"id":1,"kind":"whatif_fault","spec":"fail link=2 at=1ms"})",
      c.sink());
  engine.begin_drain();
  engine.submit(
      R"({"id":2,"kind":"whatif_fault","spec":"fail link=3 at=1ms"})",
      c.sink());
  c.wait_for(2);
  EXPECT_EQ(c.count_containing("\"status\":\"draining\""), 1u);
  // The pre-drain request still completed.
  EXPECT_EQ(c.count_containing("\"status\":\"ok\""), 1u);
  engine.stop();
}

TEST(Engine, StatusReportsCountersAndNoWallClock) {
  Engine engine(shared_warm(), quiet_engine());
  (void)engine.handle_line(
      R"({"id":1,"kind":"whatif_fault","spec":"fail link=1 at=1ms"})");
  const std::string status =
      engine.handle_line(R"({"id":2,"kind":"status"})");
  EXPECT_NE(status.find("\"kind\":\"status\""), std::string::npos);
  EXPECT_NE(status.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(status.find("\"warm_hash\":\"0x"), std::string::npos);
}

}  // namespace
}  // namespace spineless::service
