// Host speed tracking for steady timings on a shared machine.
//
// On a shared host each CPU flips, within fractions of a second, between full
// speed and up to ~2x slower while a co-tenant loads its sibling hardware
// thread, and the share of slow time drifts over minutes; no statistic taken
// over a run's own repetitions removes that drift. HostSpeed keeps one
// low-duty monitor thread on every CPU of the process; each times a fixed
// calibration kernel every few milliseconds. The benchmark uses the record
// twice:
//  - each repetition runs on the CPUs whose kernel is currently fastest;
//  - a host interval is converted to reference seconds, the time it would
//    have taken at the kernel's reference speed, by scaling it with the mean
//    of (reference kernel time / measured kernel time) over the samples the
//    pinned CPUs took during that interval.
// The pinned CPUs' own samples are used because the contention of each CPU
// flips independently: a factor taken from the other CPUs tracked the
// repetitions less well. A monitor shares a CPU with a lane by time slicing
// only (1% duty), so the lanes' own load reaches its kernel only where the
// host puts two of the process's CPUs on sibling hardware threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Starts one monitor on each CPU the process may run on.
  HostSpeed();
  /// Stops and joins the monitors.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  HostSpeed(HostSpeed&&) = delete;
  HostSpeed& operator=(HostSpeed&&) = delete;

  /// Restricts the calling thread, and the threads it creates from now on,
  /// to the `count` CPUs with the fastest recent kernel times.
  void pinToFastest(std::size_t count);

  /// Reference seconds per host second on the pinned CPUs over
  /// [startNs, endNs], widened to at least kMinWindowNs around its middle so
  /// that a short interval still averages several samples.
  [[nodiscard]] double referenceFactor(std::uint64_t startNs, std::uint64_t endNs) const;

 private:
  struct Monitor {
    int cpu = 0;
    mutable std::mutex mutex;
    std::vector<std::pair<std::uint64_t, double>> samples;  ///< (time ns, kernel s)
  };

  static constexpr std::uint64_t kMinWindowNs = 50'000'000;

  void monitorLoop(Monitor& monitor);

  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::vector<const Monitor*> pinned_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  ///< last: joined before the monitors go
};

}  // namespace perfbench
