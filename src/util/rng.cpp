#include "util/rng.hpp"

#include <cmath>

namespace dsn {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // The first four SplitMix64 outputs from `seed`: output i is the
  // finalizer of seed + (i + 1) * gamma.
  for (std::uint64_t i = 0; i < 4; ++i)
    s_[i] = mix64(seed + i * kSplitMixGamma);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  DSN_REQUIRE(bound > 0, "uniform bound must be positive");
  // Rejection sampling over the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  DSN_REQUIRE(lo <= hi, "uniformInt requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniformReal() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniformReal(double lo, double hi) {
  DSN_REQUIRE(lo <= hi, "uniformReal requires lo <= hi");
  return lo + (hi - lo) * uniformReal();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniformReal() < p;
}

Rng Rng::split() {
  // Mix two outputs into a fresh seed; child stream is independent for all
  // practical purposes.
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  return Rng(a ^ rotl(b, 29) ^ 0xA3C59AC2B7EA264Dull);
}

}  // namespace dsn
