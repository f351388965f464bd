// CPU affinity masks, the mechanism the paper uses to override the Linux
// scheduler's thread placement (pthread_setaffinity_np on the real platform).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rltherm::sched {

/// The most cores a mask, and so a machine, can hold.
inline constexpr std::size_t kMaxCores = 32;

/// A set of cores a thread may run on. Supports up to kMaxCores cores.
class AffinityMask {
 public:
  /// Empty mask (allows nothing); invalid to schedule with.
  constexpr AffinityMask() noexcept = default;

  constexpr explicit AffinityMask(std::uint32_t bits) noexcept : bits_(bits) {}

  /// Mask allowing all of the first `coreCount` cores.
  static constexpr AffinityMask all(std::size_t coreCount) {
    return AffinityMask(coreCount >= 32 ? ~0u : ((1u << coreCount) - 1u));
  }

  /// Mask pinning to a single core.
  static constexpr AffinityMask single(CoreId core) {
    return AffinityMask(1u << static_cast<std::uint32_t>(core));
  }

  /// Mask from an explicit core list.
  static AffinityMask of(const std::vector<CoreId>& cores) {
    std::uint32_t bits = 0;
    for (const CoreId c : cores) {
      expects(c >= 0 && c < 32, "AffinityMask core id out of range");
      bits |= 1u << static_cast<std::uint32_t>(c);
    }
    return AffinityMask(bits);
  }

  [[nodiscard]] constexpr bool allows(CoreId core) const noexcept {
    return core >= 0 && core < 32 && (bits_ & (1u << static_cast<std::uint32_t>(core)));
  }

  [[nodiscard]] constexpr std::uint32_t bits() const noexcept { return bits_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] int count() const noexcept { return std::popcount(bits_); }

  /// Cores in the mask, ascending.
  [[nodiscard]] std::vector<CoreId> cores() const {
    std::vector<CoreId> out;
    for (CoreId c = 0; c < 32; ++c) {
      if (allows(c)) out.push_back(c);
    }
    return out;
  }

  [[nodiscard]] std::string toString() const {
    std::string s = "{";
    bool first = true;
    for (const CoreId c : cores()) {
      if (!first) s += ",";
      s += std::to_string(c);
      first = false;
    }
    return s + "}";
  }

  [[nodiscard]] constexpr bool operator==(const AffinityMask&) const noexcept = default;

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace rltherm::sched
