// FNV-1a(64), the one hash behind the repo's fingerprints and bit-identity
// witnesses: thermal operator-cache keys, policy-checkpoint config
// fingerprints and fleet trace hashes. Integers are mixed as little-endian
// bytes, doubles as their IEEE-754 bit pattern, so equal hashes mean equal
// bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace rltherm {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) mix(p[i]);
  }
  void u64(std::uint64_t v) noexcept {
    for (int shift = 0; shift < 64; shift += 8) mix(static_cast<unsigned char>(v >> shift));
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(unsigned char byte) noexcept {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace rltherm
