#include <gtest/gtest.h>

#include "util/error.h"
#include "util/units.h"

namespace spineless {
namespace {

TEST(Units, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(units::to_seconds(units::kSecond), 1.0);
  EXPECT_DOUBLE_EQ(units::to_millis(units::kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(units::to_millis(units::kSecond), 1000.0);
  EXPECT_EQ(units::kSecond, 1000 * units::kMillisecond);
  EXPECT_EQ(units::kMillisecond, 1000 * units::kMicrosecond);
  EXPECT_EQ(units::kMicrosecond, 1000 * units::kNanosecond);
}

TEST(Units, SerializationTimeRoundsUp) {
  // 1 byte at 3 bits/s: 8/3 s -> ceil in ps.
  EXPECT_EQ(units::serialization_time(1, 3),
            (8 * units::kSecond + 2) / 3);
  // Exact division stays exact.
  EXPECT_EQ(units::serialization_time(1500, units::gbps(10)),
            1'200 * units::kNanosecond);
  // Scales linearly in bytes.
  EXPECT_EQ(units::serialization_time(3000, units::gbps(10)),
            2 * units::serialization_time(1500, units::gbps(10)));
}

TEST(Units, GbpsHelper) {
  EXPECT_EQ(units::gbps(10), 10'000'000'000LL);
  EXPECT_EQ(units::gbps(400), 400'000'000'000LL);
}

TEST(Units, SerializationTimeNoOverflowAtLargeSizes) {
  // 1 GB at 1 Gbps = 8 s; the 128-bit intermediate must not wrap.
  EXPECT_EQ(units::serialization_time(1'000'000'000, units::gbps(1)),
            8 * units::kSecond);
}

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    SPINELESS_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("units_error_test.cc"), std::string::npos);
  }
}

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(SPINELESS_CHECK(2 + 2 == 4));
  EXPECT_NO_THROW(SPINELESS_CHECK_MSG(true, "never shown"));
}

TEST(Check, ErrorIsARuntimeError) {
  // Call sites can catch std::exception generically.
  try {
    SPINELESS_CHECK(false);
  } catch (const std::runtime_error&) {
    SUCCEED();
    return;
  }
  FAIL();
}

}  // namespace
}  // namespace spineless
