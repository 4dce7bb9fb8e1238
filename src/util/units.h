// Simulation units.
//
// Time is integer picoseconds (Time) so that event ordering is exact; rates
// are bits per second. A 1500 B frame on a 10 Gbps link serializes in
// exactly 1'200'000 ps, representable without rounding.
#pragma once

#include <cstdint>

namespace spineless {

using Time = std::int64_t;  // picoseconds

namespace units {

constexpr Time kPicosecond = 1;
constexpr Time kNanosecond = 1'000;
constexpr Time kMicrosecond = 1'000'000;
constexpr Time kMillisecond = 1'000'000'000;
constexpr Time kSecond = 1'000'000'000'000;

constexpr double to_seconds(Time t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}
constexpr double to_millis(Time t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

constexpr std::int64_t kKilo = 1'000;
constexpr std::int64_t kMega = 1'000'000;
constexpr std::int64_t kGiga = 1'000'000'000;

// Serialization time of `bytes` at `bits_per_sec`, rounded up to whole ps.
constexpr Time serialization_time(std::int64_t bytes,
                                  std::int64_t bits_per_sec) noexcept {
  // bytes * 8 bits / (bits/s) seconds -> ps. Keep the product in 128 bits.
  const __int128 num = static_cast<__int128>(bytes) * 8 * kSecond;
  return static_cast<Time>((num + bits_per_sec - 1) / bits_per_sec);
}

constexpr std::int64_t gbps(std::int64_t g) noexcept { return g * kGiga; }

}  // namespace units
}  // namespace spineless
