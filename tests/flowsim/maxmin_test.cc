#include "flowsim/maxmin.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "reference_maxmin.h"
#include "util/error.h"
#include "util/rng.h"

namespace spineless::flowsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rates of every flow in `p`, in id order.
std::vector<double> solve_all(MaxMinProblem& p,
                              const std::vector<double>& caps = {}) {
  std::vector<int> ids(static_cast<std::size_t>(p.num_flows()));
  std::iota(ids.begin(), ids.end(), 0);
  return p.solve(ids, caps);
}

TEST(MaxMin, SingleLinkEqualShare) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  p.add_flow({0});
  const auto r = solve_all(p);
  for (double v : r) EXPECT_NEAR(v, 10.0 / 3, 1e-9);
  EXPECT_TRUE(p.is_max_min_fair(r));
}

TEST(MaxMin, ClassicTwoLinkExample) {
  // Flow A crosses both links, B only link 0, C only link 1.
  // cap(0)=1, cap(1)=2: A and B split link 0 at 0.5; C gets 1.5 on link 1.
  MaxMinProblem p({1.0, 2.0});
  const int a = p.add_flow({0, 1});
  const int b = p.add_flow({0});
  const int c = p.add_flow({1});
  const auto r = solve_all(p);
  EXPECT_NEAR(r[static_cast<std::size_t>(a)], 0.5, 1e-9);
  EXPECT_NEAR(r[static_cast<std::size_t>(b)], 0.5, 1e-9);
  EXPECT_NEAR(r[static_cast<std::size_t>(c)], 1.5, 1e-9);
  EXPECT_TRUE(p.is_max_min_fair(r));
}

TEST(MaxMin, BottleneckChain) {
  // Three serial links, the tightest one governs.
  MaxMinProblem p({5.0, 1.0, 9.0});
  p.add_flow({0, 1, 2});
  EXPECT_NEAR(solve_all(p)[0], 1.0, 1e-9);
}

TEST(MaxMin, FlowCrossingResourceTwiceConsumesDouble) {
  MaxMinProblem p({2.0});
  p.add_flow({0, 0});
  EXPECT_NEAR(solve_all(p)[0], 1.0, 1e-9);
}

TEST(MaxMin, EmptyFlowGetsZeroAndNoCrash) {
  MaxMinProblem p({1.0});
  p.add_flow({});
  p.add_flow({0});
  const auto r = solve_all(p);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_NEAR(r[1], 1.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityResource) {
  MaxMinProblem p({0.0, 5.0});
  p.add_flow({0, 1});
  p.add_flow({1});
  const auto r = solve_all(p);
  EXPECT_NEAR(r[0], 0.0, 1e-9);
  EXPECT_NEAR(r[1], 5.0, 1e-6);
}

TEST(MaxMin, InvalidResourceRejected) {
  MaxMinProblem p({1.0});
  EXPECT_THROW(p.add_flow({1}), Error);
  EXPECT_THROW(p.add_flow({-1}), Error);
}

TEST(MaxMin, NegativeCapacityRejected) {
  EXPECT_THROW(MaxMinProblem({-1.0}), Error);
  MaxMinProblem p({1.0});
  EXPECT_THROW(p.set_capacity(0, -1.0), Error);
  EXPECT_THROW(p.set_capacity(1, 1.0), Error);   // no such resource
  EXPECT_THROW(p.set_capacity(-1, 1.0), Error);
}

TEST(MaxMin, NanCapacityRejected) {
  EXPECT_THROW(MaxMinProblem({std::numeric_limits<double>::quiet_NaN()}),
               Error);
  MaxMinProblem p({1.0});
  EXPECT_THROW(p.set_capacity(0, std::numeric_limits<double>::quiet_NaN()),
               Error);
}

TEST(MaxMin, InvalidRouteEditRejected) {
  MaxMinProblem p({1.0, 1.0});
  p.add_flow({0});
  EXPECT_THROW(p.set_route(0, {2}), Error);
  EXPECT_THROW(p.set_route(0, {-1}), Error);
  EXPECT_THROW(p.set_route(1, {0}), Error);  // no such flow
  EXPECT_EQ(p.route(0), std::vector<int>{0});  // a refused edit changes nothing
  EXPECT_EQ(p.num_flows(), 1);
}

TEST(MaxMin, UnknownFlowIdRejected) {
  MaxMinProblem p({1.0});
  p.add_flow({0});
  EXPECT_THROW(p.solve(std::vector<int>{1}), Error);
  EXPECT_THROW(p.solve(std::vector<int>{-1}), Error);
}

TEST(MaxMin, SolveFillsOnlyTheListedFlows) {
  MaxMinProblem p({6.0});
  p.add_flow({0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_TRUE(p.solve(std::vector<int>{}).empty());
  const auto r = p.solve(std::vector<int>{2, 0});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0], 3.0, 1e-9);
  EXPECT_NEAR(r[1], 3.0, 1e-9);
}

TEST(MaxMin, EditsApplyToLaterSolves) {
  MaxMinProblem p({4.0, 1.0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_NEAR(solve_all(p)[0], 2.0, 1e-9);
  p.set_route(1, {1});
  EXPECT_NEAR(solve_all(p)[0], 4.0, 1e-9);
  EXPECT_NEAR(solve_all(p)[1], 1.0, 1e-9);
  p.set_capacity(0, 0.5);
  EXPECT_NEAR(solve_all(p)[0], 0.5, 1e-9);
  EXPECT_TRUE(p.is_max_min_fair(solve_all(p)));
}

// solve input hardening: a silent caps-size mismatch would index past the
// vector; negative or NaN caps stall the filling loop; an unknown flow id
// indexes past the routes. Each is a structured Error up front, and
// +infinity remains a valid "uncapped".
TEST(MaxMin, CapsSizeMismatchRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_THROW(solve_all(p, {1.0}), Error);            // too few
  EXPECT_THROW(solve_all(p, {1.0, 1.0, 1.0}), Error);  // too many
  const std::vector<int> one{1};
  const std::vector<double> two_caps{1.0, 1.0};
  EXPECT_THROW(p.solve(one, two_caps), Error);
}

TEST(MaxMin, NegativeCapRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  EXPECT_THROW(solve_all(p, {-1.0}), Error);
}

TEST(MaxMin, NanCapRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  EXPECT_THROW(solve_all(p, {std::numeric_limits<double>::quiet_NaN()}),
               Error);
}

TEST(MaxMin, InfiniteCapMeansUncapped) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  const auto r = solve_all(p, {kInf, 2.0});
  EXPECT_NEAR(r[1], 2.0, 1e-6);   // capped flow freezes at its cap...
  EXPECT_NEAR(r[0], 8.0, 1e-6);   // ...uncapped flow absorbs the headroom
}

TEST(MaxMin, CertificateRejectsUnfairAllocation) {
  MaxMinProblem p({2.0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_FALSE(p.is_max_min_fair({0.5, 1.5}));   // unfair split
  EXPECT_FALSE(p.is_max_min_fair({1.5, 1.5}));   // infeasible
  EXPECT_FALSE(p.is_max_min_fair({0.5, 0.5}));   // link not saturated
  EXPECT_TRUE(p.is_max_min_fair({1.0, 1.0}));
}

// Property test: random problems always produce feasible max-min fair
// allocations, and total throughput never exceeds total capacity.
class MaxMinRandom : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinRandom, SolveSatisfiesCertificate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int resources = 3 + static_cast<int>(rng.uniform(20));
  std::vector<double> caps;
  double total_cap = 0;
  for (int r = 0; r < resources; ++r) {
    caps.push_back(1.0 + rng.uniform_real() * 9.0);
    total_cap += caps.back();
  }
  MaxMinProblem p(caps);
  const int flows = 1 + static_cast<int>(rng.uniform(60));
  for (int f = 0; f < flows; ++f) {
    const int len = 1 + static_cast<int>(rng.uniform(4));
    std::vector<int> route;
    for (int i = 0; i < len; ++i)
      route.push_back(static_cast<int>(rng.uniform(
          static_cast<std::uint64_t>(resources))));
    p.add_flow(std::move(route));
  }
  const auto rates = solve_all(p);
  EXPECT_TRUE(p.is_max_min_fair(rates));
  double total = 0;
  for (double r : rates) total += r;
  EXPECT_LE(total, total_cap + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinRandom, ::testing::Range(1, 21));

// --- Bit-for-bit against the single-shot reference (reference_maxmin.h) ---

// Draws from a small value set so ties between resources, flows and caps
// are common, plus zeros and free draws.
double tie_prone(Rng& rng, double scale) {
  switch (rng.uniform(5)) {
    case 0: return 0.0;
    case 1: return scale;
    case 2: return 2.5 * scale;
    case 3: return scale / 3.0;
    default: return rng.uniform_real() * 10.0 * scale;
  }
}

std::vector<int> random_route(Rng& rng, int resources) {
  std::vector<int> route(rng.uniform(6));  // 0..5 hops, repeats allowed
  for (int& r : route)
    r = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(resources)));
  return route;
}

// Solves `ids` (with `caps`) on the persistent problem and on a fresh
// reference problem over the mirrored state, and compares every rate's
// bits.
void expect_bitwise_equal(MaxMinProblem& p, const std::vector<double>& capacity,
                          const std::vector<std::vector<int>>& routes,
                          const std::vector<int>& ids,
                          const std::vector<double>& caps) {
  std::vector<std::vector<int>> listed;
  for (int id : ids) listed.push_back(routes[static_cast<std::size_t>(id)]);
  const std::vector<double> want = reference_solve_capped(capacity, listed, caps);
  const std::vector<double> got = p.solve(ids, caps);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << "flow " << ids[k] << ": " << got[k] << " vs " << want[k];
  }
}

class MaxMinReference : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinReference, PersistentSolveMatchesSingleShotBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Sizes down to one resource and one flow.
  const int resources = 1 + static_cast<int>(rng.uniform(30));
  const int flows = 1 + static_cast<int>(rng.uniform(40));
  const double scale = rng.uniform(2) == 0 ? 1.0 : 10e9;
  std::vector<double> capacity(static_cast<std::size_t>(resources));
  for (double& c : capacity) c = tie_prone(rng, scale);
  MaxMinProblem p(capacity);
  std::vector<std::vector<int>> routes;
  for (int f = 0; f < flows; ++f) {
    routes.push_back(random_route(rng, resources));
    ASSERT_EQ(p.add_flow(routes.back()), f);
  }

  for (int step = 0; step < 24; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // A random subset of the flows in a random order.
    std::vector<int> ids;
    for (int f = 0; f < flows; ++f)
      if (rng.uniform(3) != 0) ids.push_back(f);
    for (std::size_t i = ids.size(); i > 1; --i)
      std::swap(ids[i - 1], ids[rng.uniform(i)]);
    std::vector<double> caps;
    if (rng.uniform(2) == 0) {
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::uint64_t kind = rng.uniform(4);
        caps.push_back(kind == 0   ? 0.0
                       : kind == 1 ? kInf
                                   : tie_prone(rng, scale));
      }
    }
    expect_bitwise_equal(p, capacity, routes, ids, caps);

    // Then a few edits, mirrored.
    for (std::uint64_t e = rng.uniform(4); e > 0; --e) {
      if (rng.uniform(2) == 0) {
        const auto f = static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(flows)));
        routes[static_cast<std::size_t>(f)] = random_route(rng, resources);
        p.set_route(f, routes[static_cast<std::size_t>(f)]);
        EXPECT_EQ(p.route(f), routes[static_cast<std::size_t>(f)]);
      } else {
        const auto r = static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(resources)));
        capacity[static_cast<std::size_t>(r)] = tie_prone(rng, scale);
        p.set_capacity(r, capacity[static_cast<std::size_t>(r)]);
      }
    }
  }
  // Every flow at once, uncapped and capped.
  std::vector<int> all(static_cast<std::size_t>(flows));
  std::iota(all.begin(), all.end(), 0);
  expect_bitwise_equal(p, capacity, routes, all, {});
  expect_bitwise_equal(p, capacity, routes, all,
                       std::vector<double>(all.size(), scale));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinReference, ::testing::Range(1, 41));

TEST(MaxMinReferenceCases, OneResourceAndOneFlow) {
  for (const double cap : {0.0, 1.0, 7.5}) {
    for (const std::vector<int>& route :
         {std::vector<int>{}, std::vector<int>{0}, std::vector<int>{0, 0, 0}}) {
      MaxMinProblem p({cap});
      p.add_flow(route);
      for (const std::vector<double>& caps :
           {std::vector<double>{}, std::vector<double>{0.0},
            std::vector<double>{kInf}, std::vector<double>{2.0}}) {
        expect_bitwise_equal(p, {cap}, {route}, {0}, caps);
      }
    }
  }
}

TEST(MaxMinReferenceCases, TiedFlowsAndResources) {
  // Eight identical flows over four equal resources, two of them crossed
  // twice: every round saturates several resources at once.
  const std::vector<double> capacity(4, 3.0);
  std::vector<std::vector<int>> routes;
  MaxMinProblem p(capacity);
  for (int f = 0; f < 8; ++f) {
    routes.push_back(f % 2 == 0 ? std::vector<int>{0, 1, 1}
                                : std::vector<int>{2, 3, 3, 0});
    p.add_flow(routes.back());
  }
  const std::vector<int> ids{7, 6, 5, 4, 3, 2, 1, 0};
  expect_bitwise_equal(p, capacity, routes, ids, {});
  expect_bitwise_equal(p, capacity, routes, ids,
                       {0.1, 0.1, kInf, 0.0, 0.1, kInf, 0.1, 0.0});
}

}  // namespace
}  // namespace spineless::flowsim
