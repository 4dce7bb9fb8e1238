#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace spineless {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);  // halfway between ranks 0, 1
}

TEST(Summary, PercentileAfterUnsortedInsertions) {
  Summary s;
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(0.0);  // re-dirty after a percentile query
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.percentile(50), Error);
}

TEST(Summary, P99OnLargeUniformSample) {
  Summary s;
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.p99(), 989.0, 1.0);
}

}  // namespace
}  // namespace spineless
