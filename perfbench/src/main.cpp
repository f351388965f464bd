// rltherm_perfbench: the repository benchmark program.
//
//   rltherm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--lanes L] [--scenario-dir DIR] [--size small]
//                     [--queue-depth N]
//
// Runs repetitions of one workload for S seconds and prints, as the last
// line of standard output, one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones from traced repetitions, each
// paired with an untraced repetition on the same inputs. The exit code is 0
// when every correctness check passed and 1 otherwise (2 for usage errors).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "host_speed.hpp"
#include "thermal/expop_cache.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sim_rate", "sim_s/s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"tenants_per_s", "1/s"},
    {"first_decision_p50_ms", "ms"},
    {"first_decision_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.run.calls", "count"},
    {"core.run.busy_s", "s"},
    {"core.run.other_share", "ratio"},
    {"manager.sample.calls", "count"},
    {"manager.sample.busy_ms", "ms"},
    {"manager.decide.calls", "count"},
    {"manager.decide.p50_us", "us"},
    {"manager.decide.p99_us", "us"},
    {"manager.share", "ratio"},
    {"manager.epoch.aggregate.mean_ns", "ns"},
    {"rl.q.update.calls", "count"},
    {"rl.q.update.mean_ns", "ns"},
    {"thermal.rc.step.calls", "count"},
    {"thermal.rc.step.mean_ns", "ns"},
    {"thermal.rc.step.share", "ratio"},
    {"thermal.rc.prepare.calls", "count"},
    {"thermal.rc.prepare.busy_ms", "ms"},
    {"thermal.expop.hit_ratio", "ratio"},
    {"platform.ticks", "count"},
    {"platform.host_ns_per_tick", "ns"},
    {"platform.tick.mean_ns", "ns"},
    {"workload.tick.mean_ns", "ns"},
    {"sched.schedule.mean_ns", "ns"},
    {"sensor.read.mean_ns", "ns"},
    {"reliability.rainflow.calls", "count"},
    {"reliability.rainflow.busy_ms", "ms"},
    {"reliability.analyze_chip.mean_ms", "ms"},
    {"fault.injected", "count"},
    {"safety.quarantines", "count"},
    {"safety.retries", "count"},
    {"safety.emergencies", "count"},
    {"fault.raw_lane.mean_ms", "ms"},
    {"fault.safe_lane.mean_ms", "ms"},
    {"safety.overhead_ratio", "ratio"},
    {"exec.lanes", "count"},
    {"exec.speedup", "ratio"},
    {"exec.efficiency", "ratio"},
    {"exec.run.p50_ms", "ms"},
    {"exec.run.max_ms", "ms"},
    {"exec.tail_share", "ratio"},
    {"serve.submit.calls", "count"},
    {"serve.submit.mean_us", "us"},
    {"serve.rejected", "count"},
    {"serve.pass.calls", "count"},
    {"serve.pass.p50_ms", "ms"},
    {"serve.pass.max_ms", "ms"},
    {"serve.active.max", "count"},
    {"serve.queue.max", "count"},
    {"serve.train.calls", "count"},
    {"serve.train.busy_ms", "ms"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.gen.late_p99_ms", "ms"},
    {"store.serialize.mean_us", "us"},
    {"store.load_buffer.mean_us", "us"},
    {"store.checkpoint.bytes", "bytes"},
    {"trace.overhead", "ratio"},
};

/// Repetitions always run, even past the deadline; the printed digest
/// covers exactly these, so it is the same for every --seconds and --trace.
constexpr std::size_t kMinReps = 2;
constexpr std::size_t kMaxReps = 1000;
/// Each repetition is set up this many times in a row; one setup_s sample is
/// their mean, so a set-up of a few microseconds still gives a steady
/// sample, and the samples spread over the run like the repetitions do.
constexpr std::size_t kSetupBatch = 16;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "rltherm_perfbench: " << message << "\n"
            << "usage: rltherm_perfbench --workload paper_loop|grid_thermal|fault_campaign|"
               "fleet_serve --seed N --seconds S --trace 0|1 [--lanes L] "
               "[--scenario-dir DIR] [--size small] [--queue-depth N]\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        haveSeconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        haveTrace = true;
      } else if (flag == "--lanes") {
        options.lanes = std::stoul(value);
        if (options.lanes == 0) usage("--lanes must be at least 1");
      } else if (flag == "--scenario-dir") {
        options.scenarioDir = value;
      } else if (flag == "--size") {
        if (value != "small") usage("--size takes only 'small'");
        options.small = true;
      } else if (flag == "--queue-depth") {
        options.queueDepth = std::stoul(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!haveSeed || !haveSeconds || !haveTrace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return options;
}

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "paper_loop") return makePaperLoop(options);
  if (options.workload == "grid_thermal") return makeGridThermal(options);
  if (options.workload == "fault_campaign") return makeFaultCampaign(options);
  if (options.workload == "fleet_serve") return makeFleetServe(options);
  usage("unknown workload '" + options.workload + "'");
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Samples of the end-to-end times: one entry per untraced repetition (per
/// first decision for firstDecisionMs).
struct Timings {
  std::vector<double> setupS;
  std::vector<double> wallS;
  std::vector<double> simRate;
  std::vector<double> tenantsPerS;
  std::vector<double> firstDecisionMs;

  /// The end-to-end metrics these samples give, except peak_rss_mb.
  [[nodiscard]] std::map<std::string, double> metrics() const {
    return {{"sim_rate", median(simRate)},
            {"wall_s", median(wallS)},
            {"setup_s", median(setupS)},
            {"tenants_per_s", median(tenantsPerS)},
            {"first_decision_p50_ms", quantile(firstDecisionMs, 0.50)},
            {"first_decision_p99_ms", quantile(firstDecisionMs, 0.99)}};
  }
};

/// Peak resident memory of this process image. VmHWM starts afresh at exec,
/// unlike getrusage's ru_maxrss, which keeps the launcher's peak.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in KiB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseOptions(argc, argv);
  std::unique_ptr<Workload> workload = makeWorkload(options);

  // The same samples in host seconds and in reference seconds (see
  // host_speed.hpp); the reference ones are reported.
  Timings host;
  Timings reference;
  std::vector<double> tracedWallS;
  std::map<std::string, double> layerSums;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Digest digest;

  HostSpeed hostSpeed;
  // Sets up a repetition kSetupBatch times; with `record`, keeps the mean
  // time of one setup() call as a setup_s sample.
  const auto setUp = [&](std::uint64_t repSeed, bool record) {
    // Pin before set-up: pools and services built there inherit the CPUs.
    hostSpeed.pinToFastest(workload->threads());
    const std::uint64_t begin = nowNs();
    double seconds = 0.0;
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      // Every set-up does the same work: nothing is left from the last one.
      workload->release();
      const std::uint64_t start = nowNs();
      workload->setup(repSeed);
      seconds += secondsSince(start);
    }
    if (record) {
      host.setupS.push_back(seconds / kSetupBatch);
      reference.setupS.push_back(host.setupS.back() *
                                 hostSpeed.referenceFactor(begin, nowNs()));
    }
    // Cold state for every repetition: a CLI user pays RC prepare each run.
    rltherm::thermal::ExpOperatorCache::instance().clear();
  };
  const auto tally = [&](const RepOutcome& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    problems.insert(problems.end(), rep.problems.begin(), rep.problems.end());
  };

  try {
    const std::uint64_t start = nowNs();
    std::size_t reps = 0;
    while (reps < kMaxReps && (reps < kMinReps || secondsSince(start) < options.seconds)) {
      const std::uint64_t repSeed = mixSeed(options.seed, reps);
      setUp(repSeed, true);
      std::uint64_t begin = nowNs();
      const RepOutcome rep = workload->run(false);
      const double factor = hostSpeed.referenceFactor(begin, nowNs());
      tally(rep);
      host.wallS.push_back(rep.wallS - rep.openLoopS);
      host.simRate.push_back(rep.simSeconds / rep.wallS);
      host.tenantsPerS.push_back(rep.tenantsPerS);
      reference.wallS.push_back(host.wallS.back() * factor);
      reference.simRate.push_back(host.simRate.back() / factor);
      reference.tenantsPerS.push_back(host.tenantsPerS.back() / factor);
      // A first decision takes milliseconds: the kernel samples of its own
      // interval are too few, so it takes its repetition's factor.
      for (const auto& [dueNs, decidedNs] : rep.firstDecisions) {
        host.firstDecisionMs.push_back(static_cast<double>(decidedNs - dueNs) / 1e6);
        reference.firstDecisionMs.push_back(host.firstDecisionMs.back() * factor);
      }
      if (reps < kMinReps) digest.add(rep.digest);

      if (options.trace) {
        setUp(repSeed, false);
        begin = nowNs();
        RepOutcome traced = workload->run(true);
        tracedWallS.push_back((traced.wallS - traced.openLoopS) *
                              hostSpeed.referenceFactor(begin, nowNs()));
        tally(traced);
        if (traced.digest != rep.digest) {
          problems.push_back("repetition " + std::to_string(reps) +
                             ": traced outputs differ from untraced outputs");
        }
        const auto ticks = traced.layers.find("platform.ticks");
        if (ticks != traced.layers.end() && ticks->second > 0.0) {
          traced.layers["platform.host_ns_per_tick"] = rep.wallS * factor * 1e9 / ticks->second;
        }
        for (const auto& [name, value] : traced.layers) layerSums[name] += value;
      }
      ++reps;
    }

    std::map<std::string, double> values;
    if (options.trace) {
      for (const MetricSpec& spec : kPerLayer) {
        const auto it = layerSums.find(spec.name);
        values[spec.name] = it != layerSums.end() ? it->second / static_cast<double>(reps) : 0.0;
      }
      values["trace.overhead"] = median(tracedWallS) / median(reference.wallS) - 1.0;
      for (const auto& [name, value] : layerSums) {
        if (values.find(name) == values.end()) problems.push_back("unlisted layer metric " + name);
      }
    } else {
      values = reference.metrics();
      values["peak_rss_mb"] = peakRssMb();
    }

    std::cout << "workload " << options.workload << ": " << reps << " repetitions, "
              << attempted << " operations attempted, " << failed << " failed\n";
    std::printf("digest %016llx (first %zu repetitions)\n",
                static_cast<unsigned long long>(digest.value()), kMinReps);
    std::cout << "first-decision samples " << host.firstDecisionMs.size()
              << "\nrepetition walls (host s):";
    for (const double wallS : host.wallS) std::cout << " " << wallS;
    std::cout << "\nhost-time figures, before scaling to reference seconds:";
    for (const auto& [name, value] : host.metrics()) std::cout << " " << name << "=" << value;
    std::cout << "\n";
    for (const std::string& problem : problems) std::cout << "CHECK FAILED: " << problem << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (problems.empty() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& spec : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                                : std::span<const MetricSpec>(kEndToEnd)) {
      json << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
           << jsonNumber(values[spec.name]) << ", \"unit\": \"" << spec.unit << "\"}";
      first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return problems.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "rltherm_perfbench: " << error.what() << "\n";
    return 1;
  }
}
