#include "host_speed.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Sets the reference second: the calibration kernel's time on an
/// uncontended CPU of a 4-vCPU 2.1 GHz Xeon (gcc 12, RelWithDebInfo). Any
/// fixed value would do; both sides of a comparison use the same one.
constexpr double kReferenceKernelS = 43e-6;
constexpr auto kSamplePeriod = std::chrono::milliseconds(5);
/// Samples that decide which CPUs are fastest right now.
constexpr std::size_t kRecentSamples = 20;

/// Receives kernel results so the calibration work cannot be optimized away.
volatile double g_kernelSink = 0.0;

/// Host seconds of a fixed mix of floating-point chains and data-dependent
/// branches over a small working set, the same kind of work as a tick.
double calibrationKernelS() {
  constexpr std::size_t kN = 16;
  std::array<double, kN * kN> matrix{};
  std::array<double, kN> vec{};
  std::array<double, kN> out{};
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (double& m : matrix) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m = static_cast<double>(x % 1000) / 16000.0;
  }
  vec.fill(1.0);
  const std::uint64_t start = nowNs();
  for (int iter = 0; iter < 200; ++iter) {
    for (std::size_t r = 0; r < kN; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < kN; ++c) acc += matrix[r * kN + c] * vec[c];
      out[r] = acc;
    }
    for (std::size_t r = 0; r < kN; ++r) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      vec[r] = (x & 1U) != 0 ? out[r] + 0.25 : out[r] * 0.75 + 0.1;
    }
  }
  g_kernelSink = vec[0];
  return secondsSince(start);
}

void pinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

HostSpeed::HostSpeed() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    monitors_.push_back(std::make_unique<Monitor>());
    monitors_.back()->cpu = cpu;
  }
  for (const auto& monitor : monitors_) pinned_.push_back(monitor.get());
  for (const auto& monitor : monitors_) {
    threads_.emplace_back([this, &monitor = *monitor] { monitorLoop(monitor); });
  }
  // Let every monitor record enough samples to rank the CPUs.
  std::this_thread::sleep_for(kSamplePeriod * (kRecentSamples + 2));
}

HostSpeed::~HostSpeed() {
  stop_ = true;
  for (std::thread& thread : threads_) thread.join();
}

void HostSpeed::monitorLoop(Monitor& monitor) {
  try {
    pinCallingThread({monitor.cpu});
  } catch (const std::runtime_error&) {
    return;  // the CPU went away; it simply never ranks as fast
  }
  while (!stop_) {
    const double kernelS = calibrationKernelS();
    {
      const std::lock_guard<std::mutex> lock(monitor.mutex);
      monitor.samples.emplace_back(nowNs(), kernelS);
    }
    std::this_thread::sleep_for(kSamplePeriod);
  }
}

void HostSpeed::pinToFastest(std::size_t count) {
  std::vector<std::pair<double, const Monitor*>> ranked;
  for (const auto& monitor : monitors_) {
    const std::lock_guard<std::mutex> lock(monitor->mutex);
    const std::size_t n = std::min(kRecentSamples, monitor->samples.size());
    if (n == 0) continue;
    std::vector<double> recent;
    for (std::size_t i = monitor->samples.size() - n; i < monitor->samples.size(); ++i) {
      recent.push_back(monitor->samples[i].second);
    }
    ranked.emplace_back(quantile(recent, 0.5), monitor.get());
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(std::max<std::size_t>(count, 1), ranked.size()));
  pinned_.clear();
  std::vector<int> cpus;
  for (const auto& [kernelS, monitor] : ranked) {
    pinned_.push_back(monitor);
    cpus.push_back(monitor->cpu);
  }
  pinCallingThread(cpus);
}

double HostSpeed::referenceFactor(std::uint64_t startNs, std::uint64_t endNs) const {
  if (endNs - startNs < kMinWindowNs) {
    const std::uint64_t middle = startNs + (endNs - startNs) / 2;
    startNs = middle - kMinWindowNs / 2;
    endNs = middle + kMinWindowNs / 2;
  }
  std::vector<double> speeds;
  for (const Monitor* monitor : pinned_) {
    const std::lock_guard<std::mutex> lock(monitor->mutex);
    // Samples are appended in time order.
    auto it = std::lower_bound(monitor->samples.begin(), monitor->samples.end(),
                               std::make_pair(startNs, 0.0));
    for (; it != monitor->samples.end() && it->first <= endNs; ++it) {
      speeds.push_back(kReferenceKernelS / it->second);
    }
  }
  if (speeds.empty()) return 1.0;
  // Trim the extremes: a sample preempted mid-kernel reads far too slow.
  std::sort(speeds.begin(), speeds.end());
  const std::size_t trim = speeds.size() / 10;
  double sum = 0.0;
  for (std::size_t i = trim; i < speeds.size() - trim; ++i) sum += speeds[i];
  return sum / static_cast<double>(speeds.size() - 2 * trim);
}

}  // namespace perfbench
