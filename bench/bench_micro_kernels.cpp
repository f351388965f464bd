// Microbenchmarks of the library's hot paths: the RC thermal step, rainflow
// counting, Q-table updates, the scheduler dispatch and a full machine tick.
// These bound the run-time overhead a deployment of the controller would add
// (the paper's system runs alongside real workloads, so the monitoring path
// must be cheap).
//
// Two modes:
//  - default: the google-benchmark harness below (auto-tuned iteration
//    counts, per-op timings; good for interactive profiling);
//  - `--json [PATH] [--reps K]`: the repetition harness (runJsonMode) that
//    writes BENCH_micro.json — a FIXED amount of work per kernel, timed K
//    times, reported as robust median-of-K stats (obs::repStats) plus the
//    build fingerprint, the sim-seconds-per-wall-second headline and the
//    hot-path scope attribution. This is the artifact tools/perfgate
//    compares against bench/baselines/BENCH_micro.json; fixed work (rather
//    than google-benchmark's adaptive iteration search) is what makes the
//    medians comparable across runs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "platform/machine.hpp"
#include "reliability/aging.hpp"
#include "reliability/rainflow.hpp"
#include "reliability/fatigue.hpp"
#include "rl/double_q.hpp"
#include "rl/qtable.hpp"
#include "sched/scheduler.hpp"
#include "thermal/expop_cache.hpp"
#include "thermal/grid_model.hpp"

namespace {

using namespace rltherm;

/// The lumped quad-core package: one cell per core.
thermal::GridPackage lumpedPackage() {
  thermal::GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  return thermal::GridPackage(config);
}

void BM_ThermalStep(benchmark::State& state) {
  thermal::GridPackage pkg = lumpedPackage();
  pkg.prepare(0.01);
  const std::vector<Watts> power = pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
  for (auto _ : state) {
    pkg.network().step(power);
    benchmark::DoNotOptimize(pkg.network().temperatures().data());
  }
}
BENCHMARK(BM_ThermalStep);

void BM_ThermalStepRk4(benchmark::State& state) {
  thermal::GridPackage pkg = lumpedPackage();
  const std::vector<Watts> power = pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
  for (auto _ : state) {
    pkg.network().stepRk4(power, 0.01);
    benchmark::DoNotOptimize(pkg.network().temperatures().data());
  }
}
BENCHMARK(BM_ThermalStepRk4);

void BM_Expm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-0.1, 0.1);
    a(i, i) = -1.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(expm(a));
  }
}
BENCHMARK(BM_Expm)->Arg(6)->Arg(16)->Arg(34);

void BM_Rainflow(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<Celsius> trace;
  trace.reserve(samples);
  double t = 45.0;
  for (std::size_t i = 0; i < samples; ++i) {
    t += rng.gaussian(0.0, 1.5);
    trace.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::rainflow(trace, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_Rainflow)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EpochMetrics(benchmark::State& state) {
  // The per-epoch work of the thermal manager: rainflow + stress + aging
  // over one decision epoch of sensor samples (10 samples x 4 cores).
  Rng rng(9);
  std::vector<std::vector<Celsius>> traces(4);
  for (auto& trace : traces) {
    double t = 50.0;
    for (int i = 0; i < 10; ++i) {
      t += rng.gaussian(0.0, 3.0);
      trace.push_back(t);
    }
  }
  const auto aging = reliability::calibratedAgingParams();
  const auto fatigue = reliability::defaultFatigueParams();
  for (auto _ : state) {
    double stress = 0.0;
    double rate = 0.0;
    for (const auto& trace : traces) {
      const auto cycles = reliability::rainflow(trace, 2.0);
      stress = std::max(stress, reliability::thermalStress(cycles, fatigue));
      rate = std::max(rate, reliability::agingRate(trace, aging));
    }
    benchmark::DoNotOptimize(stress);
    benchmark::DoNotOptimize(rate);
  }
}
BENCHMARK(BM_EpochMetrics);

void BM_QTableUpdate(benchmark::State& state) {
  rl::QTable table(16, 12);
  Rng rng(3);
  std::size_t s = 0;
  for (auto _ : state) {
    const std::size_t a = static_cast<std::size_t>(rng.uniformInt(12));
    const std::size_t next = static_cast<std::size_t>(rng.uniformInt(16));
    benchmark::DoNotOptimize(table.update(s, a, rng.uniform(-1.0, 1.0), next, 0.1, 0.75));
    s = next;
  }
}
BENCHMARK(BM_QTableUpdate);

void BM_QTableSnapshotRestore(benchmark::State& state) {
  // The per-epoch Q_exp maintenance path (thermal_manager.cpp): snapshot
  // into a preallocated buffer, then restore. Both must be copy-assigns into
  // existing storage — the bench fails if either side reallocates.
  rl::QTable table(16, 12);
  Rng rng(11);
  for (int i = 0; i < 512; ++i) {
    const std::size_t s = static_cast<std::size_t>(rng.uniformInt(16));
    const std::size_t a = static_cast<std::size_t>(rng.uniformInt(12));
    const std::size_t next = static_cast<std::size_t>(rng.uniformInt(16));
    (void)table.update(s, a, rng.uniform(-1.0, 1.0), next, 0.1, 0.75);
  }
  std::vector<double> buffer = table.snapshot();  // preallocate once
  const double* data = buffer.data();
  const std::size_t capacity = buffer.capacity();
  for (auto _ : state) {
    table.snapshotInto(buffer);
    table.restore(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  if (buffer.data() != data || buffer.capacity() != capacity) {
    state.SkipWithError("snapshotInto/restore reallocated the preallocated buffer");
  }
}
BENCHMARK(BM_QTableSnapshotRestore);

void BM_SchedulerDispatch(benchmark::State& state) {
  sched::SchedulerConfig config;
  config.coreCount = 4;
  sched::Scheduler scheduler(config);
  for (ThreadId id = 0; id < 6; ++id) {
    scheduler.addThread(id, sched::AffinityMask::all(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(0.01));
  }
}
BENCHMARK(BM_SchedulerDispatch);

void BM_MachineTick(benchmark::State& state) {
  platform::MachineConfig config;
  platform::Machine machine(config);
  for (ThreadId id = 0; id < 6; ++id) {
    machine.scheduler().addThread(id, sched::AffinityMask::all(4));
  }
  const auto activity = [](ThreadId) { return 0.8; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.tick(activity));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MachineTick);

void BM_GridThermalStep(benchmark::State& state) {
  thermal::GridThermalConfig config;
  config.cellsPerCoreSide = static_cast<std::size_t>(state.range(0));
  thermal::GridPackage pkg(config);
  pkg.network().prepare(0.01);
  const std::vector<Watts> power =
      pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
  for (auto _ : state) {
    pkg.network().step(power);
    benchmark::DoNotOptimize(pkg.network().temperatures().data());
  }
}
BENCHMARK(BM_GridThermalStep)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_RcPrepareGrid64(benchmark::State& state) {
  // prepare() throughput on the 66-node grid: range(0)==0 benches the cold
  // O(n^3) build (cache cleared every iteration), 1 the warm cache-hit path.
  const bool warm = state.range(0) == 1;
  thermal::GridThermalConfig config;
  config.cellsPerCoreSide = 4;
  thermal::GridPackage pkg(config);
  if (warm) pkg.prepare(0.01);
  for (auto _ : state) {
    if (!warm) thermal::ExpOperatorCache::instance().clear();
    pkg.prepare(0.01);
    benchmark::DoNotOptimize(pkg.network().operatorFingerprint());
  }
  thermal::ExpOperatorCache::instance().clear();
}
BENCHMARK(BM_RcPrepareGrid64)->Arg(0)->Arg(1);

void BM_DoubleQUpdate(benchmark::State& state) {
  rl::DoubleQLearner learner(16, 12);
  Rng rng(5);
  std::size_t s = 0;
  for (auto _ : state) {
    const std::size_t a = static_cast<std::size_t>(rng.uniformInt(12));
    const std::size_t next = static_cast<std::size_t>(rng.uniformInt(16));
    learner.update(s, a, rng.uniform(-1.0, 1.0), next, 0.1, 0.75, rng);
    benchmark::DoNotOptimize(learner.value(s, a));
    s = next;
  }
}
BENCHMARK(BM_DoubleQUpdate);

// --- the --json repetition harness ------------------------------------------

/// One fixed-work kernel of the JSON mode. `run` executes exactly the same
/// work every call and returns the simulated seconds it covered (0 for
/// kernels with no simulated-time semantics, e.g. rainflow over a trace).
/// `ops` is the number of work items one rep performs (steps, prepares,
/// updates, ...) so the report can state per-kernel ops/sec — prepare()
/// throughput is reported separately from step() throughput.
struct JsonKernel {
  std::string name;
  double ops = 0.0;
  std::function<double()> run;
};

/// The 64-cell die (8x8 cells + spreader + sink = 66 nodes) the grid64
/// kernels share.
thermal::GridThermalConfig grid64Config() {
  thermal::GridThermalConfig config;
  config.cellsPerCoreSide = 4;
  return config;
}

std::vector<JsonKernel> jsonKernels() {
  std::vector<JsonKernel> kernels;

  // The quad-core RC step: the per-10ms-tick thermal cost of the paper's
  // machine. 20k steps x 0.01 s = 200 simulated seconds.
  kernels.push_back({"rc_step_quadcore", 20000, [] {
    thermal::GridPackage pkg = lumpedPackage();
    pkg.prepare(0.01);
    const std::vector<Watts> power =
        pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
    for (int i = 0; i < 20000; ++i) pkg.network().step(power);
    return 20000 * 0.01;
  }});

  // The fine-grid RC step (the many-core scale-up direction): fewer steps,
  // bigger matrix.
  kernels.push_back({"rc_step_grid2", 5000, [] {
    thermal::GridThermalConfig config;
    config.cellsPerCoreSide = 2;
    thermal::GridPackage pkg(config);
    pkg.network().prepare(0.01);
    const std::vector<Watts> power =
        pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
    for (int i = 0; i < 5000; ++i) pkg.network().step(power);
    return 5000 * 0.01;
  }});

  // The 66-node step: one prepare, then 5000 steps. Clearing the cache
  // first makes every rep pay the same cold prepare the baseline recorded.
  kernels.push_back({"rc_step_grid64_dense", 5000, [] {
    thermal::GridPackage pkg(grid64Config());
    thermal::ExpOperatorCache::instance().clear();
    pkg.prepare(0.01);
    const std::vector<Watts> power =
        pkg.nodePower(std::vector<Watts>{8.0, 2.0, 5.0, 1.0});
    for (int i = 0; i < 5000; ++i) pkg.network().step(power);
    return 5000 * 0.01;
  }});

  // prepare() throughput, reported separately from step(): cold = the full
  // O(n^3) expm + LU build (cache cleared before every prepare), warm = the
  // fingerprint lookup path an identical machine pays when the cache holds
  // the entry. The gap between the two is the cache's amortization win.
  kernels.push_back({"rc_prepare_grid64_cold", 10, [] {
    thermal::GridPackage pkg(grid64Config());
    for (int i = 0; i < 10; ++i) {
      thermal::ExpOperatorCache::instance().clear();
      pkg.prepare(0.01);
    }
    thermal::ExpOperatorCache::instance().clear();
    return 0.0;
  }});

  kernels.push_back({"rc_prepare_grid64_warm", 200, [] {
    thermal::ExpOperatorCache::instance().clear();
    thermal::GridPackage pkg(grid64Config());
    pkg.prepare(0.01);  // cold: populates the entry the loop below hits
    for (int i = 0; i < 200; ++i) pkg.prepare(0.01);
    return 0.0;
  }});

  // Rainflow over a 10k-sample temperature trace, five passes.
  kernels.push_back({"rainflow_10k", 50000, [] {
    Rng rng(7);
    std::vector<Celsius> trace;
    trace.reserve(10000);
    double t = 45.0;
    for (int i = 0; i < 10000; ++i) {
      t += rng.gaussian(0.0, 1.5);
      trace.push_back(t);
    }
    std::size_t cycles = 0;
    for (int pass = 0; pass < 5; ++pass) {
      cycles += reliability::rainflow(trace, 1.0).size();
    }
    return cycles == static_cast<std::size_t>(-1) ? 1.0 : 0.0;  // defeat DCE
  }});

  // The per-epoch aggregate body (rainflow + stress + aging over one
  // decision epoch of samples), 2000 epochs' worth.
  kernels.push_back({"epoch_aggregate", 2000, [] {
    Rng rng(9);
    std::vector<std::vector<Celsius>> traces(4);
    for (auto& trace : traces) {
      double t = 50.0;
      for (int i = 0; i < 10; ++i) {
        t += rng.gaussian(0.0, 3.0);
        trace.push_back(t);
      }
    }
    const auto aging = reliability::calibratedAgingParams();
    const auto fatigue = reliability::defaultFatigueParams();
    double sink = 0.0;
    for (int epoch = 0; epoch < 2000; ++epoch) {
      for (const auto& trace : traces) {
        const auto cycles = reliability::rainflow(trace, 2.0);
        sink = std::max(sink, reliability::thermalStress(cycles, fatigue));
        sink = std::max(sink, reliability::agingRate(trace, aging));
      }
    }
    return sink < 0.0 ? 1.0 : 0.0;  // defeat DCE
  }});

  // 200k Q-table updates (the per-epoch learning write path).
  kernels.push_back({"q_update_200k", 200000, [] {
    rl::QTable table(16, 12);
    Rng rng(3);
    std::size_t s = 0;
    double sink = 0.0;
    for (int i = 0; i < 200000; ++i) {
      const std::size_t a = static_cast<std::size_t>(rng.uniformInt(12));
      const std::size_t next = static_cast<std::size_t>(rng.uniformInt(16));
      sink += table.update(s, a, rng.uniform(-1.0, 1.0), next, 0.1, 0.75);
      s = next;
    }
    return sink == -1.0 ? 1.0 : 0.0;  // defeat DCE
  }});

  // A full machine tick (scheduler dispatch + power + RC step + sensors):
  // 10k ticks x the default 0.01 s tick = 100 simulated seconds.
  kernels.push_back({"machine_tick", 10000, [] {
    platform::MachineConfig config;
    platform::Machine machine(config);
    for (ThreadId id = 0; id < 6; ++id) {
      machine.scheduler().addThread(id, sched::AffinityMask::all(4));
    }
    const auto activity = [](ThreadId) { return 0.8; };
    for (int i = 0; i < 10000; ++i) (void)machine.tick(activity);
    return 10000 * config.tick;
  }});

  // The whole closed loop: PolicyRunner driving the LIVE proposed manager
  // (sampling, epochs, Q updates, actuation) on a real workload, capped at
  // 300 simulated seconds. This is the deployment-shaped kernel behind the
  // headline sim_seconds_per_wall_second number.
  kernels.push_back({"closed_loop_proposed", 0, [] {
    core::RunnerConfig config;
    config.maxSimTime = 300.0;
    const core::PolicyRunner runner(config);
    core::ThermalManager manager(core::ThermalManagerConfig{},
                                 core::ActionSpace::standard(4));
    const workload::Scenario scenario =
        workload::Scenario::of({workload::mpegDec(1)});
    const core::RunResult result = runner.run(scenario, manager);
    return result.duration;
  }});

  return kernels;
}

int runJsonMode(int argc, char** argv, const std::string& jsonPath) {
  std::size_t reps = 5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--reps") {
      reps = std::max<std::size_t>(3, std::stoul(argv[i + 1]));
    }
  }

  const std::vector<JsonKernel> kernels = jsonKernels();
  struct Measured {
    std::string name;
    obs::RepStats stats;      // nanoseconds per rep
    double simSecondsPerRep;  // 0 = no simulated-time semantics
    double ops;               // work items per rep; 0 = not meaningful
  };
  std::vector<Measured> measured;
  bench::ReportMeta meta;
  meta.jobs = 1;

  const std::uint64_t benchStartNs = obs::wallClockNs();
  for (const JsonKernel& kernel : kernels) {
    (void)kernel.run();  // warmup: page in code + data, settle allocators
    std::vector<double> samples;
    samples.reserve(reps);
    double simSecondsPerRep = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t startNs = obs::wallClockNs();
      simSecondsPerRep = kernel.run();
      samples.push_back(static_cast<double>(obs::wallClockNs() - startNs));
    }
    measured.push_back({kernel.name, obs::repStats(samples), simSecondsPerRep, kernel.ops});
    meta.simSeconds += simSecondsPerRep * static_cast<double>(reps);
  }
  meta.wallMs = static_cast<double>(obs::wallClockNs() - benchStartNs) / 1e6;

  // Attribution pass (unmeasured): run every kernel once under an
  // aggregates-only trace collector + metrics registry, so the report says
  // WHERE the time goes (thermal.rc.step, rl.q.update, ...) without the
  // per-scope clock reads polluting the timed reps above.
  {
    obs::TraceCollector trace(0);
    obs::MetricsRegistry metrics;
    obs::Session session;
    session.trace = &trace;
    session.metrics = &metrics;
    const obs::ScopedSession guard(session);
    for (const JsonKernel& kernel : kernels) (void)kernel.run();
    for (const auto& [name, stats] : trace.sortedStats()) meta.scopes[name] = stats;
    metrics.forEachHistogram([&](const std::string& name, const obs::Histogram& h) {
      meta.histograms.emplace(name, h);
    });
  }

  std::ofstream out(jsonPath);
  expects(out.good(), "cannot write '" + jsonPath + "'");
  JsonWriter json(out);
  json.beginObject();
  json.key("suite").value("micro_kernels");
  bench::writePerfSections(json, meta);
  json.key("reps").value(static_cast<std::uint64_t>(reps));
  json.key("kernels").beginArray();
  for (const Measured& m : measured) {
    json.beginObject();
    json.key("name").value(m.name);
    json.key("reps").value(static_cast<std::uint64_t>(m.stats.reps));
    json.key("min_ns").value(m.stats.min);
    json.key("median_ns").value(m.stats.median);
    json.key("mad_ns").value(m.stats.mad);
    json.key("cv").value(m.stats.cv);
    json.key("mean_ns").value(m.stats.mean);
    json.key("max_ns").value(m.stats.max);
    json.key("sim_seconds_per_wall_second")
        .value(obs::simSecondsPerWallSecond(m.simSecondsPerRep,
                                            m.stats.median / 1e6));
    // Work-item throughput: prepare() kernels report prepares/sec, step()
    // kernels steps/sec — comparable across grid sizes where wall medians
    // are not. Omitted when a kernel has no countable unit (ops == 0).
    if (m.ops > 0.0) {
      json.key("ops").value(m.ops);
      json.key("ops_per_sec").value(m.stats.median > 0.0
                                        ? m.ops / (m.stats.median / 1e9)
                                        : 0.0);
    }
    json.endObject();
  }
  json.endArray();
  // Exp-operator cache totals since the last clear (the prepare kernels
  // exercise it).
  {
    const thermal::ExpOpCacheStats cacheStats =
        thermal::ExpOperatorCache::instance().stats();
    json.key("expop_cache").beginObject();
    json.key("hits").value(cacheStats.hits);
    json.key("misses").value(cacheStats.misses);
    json.key("inserts").value(cacheStats.inserts);
    json.key("evictions").value(cacheStats.evictions);
    json.key("entries").value(cacheStats.entries);
    json.endObject();
  }
  json.endObject();
  out << "\n";
  ensures(json.complete(), "BENCH_micro.json left unbalanced");

  TextTable table({"kernel", "median (ms)", "CV", "sim s / wall s", "ops/s"});
  for (const Measured& m : measured) {
    table.row()
        .cell(m.name)
        .cell(m.stats.median / 1e6, 3)
        .cell(m.stats.cv, 4)
        .cell(obs::simSecondsPerWallSecond(m.simSecondsPerRep, m.stats.median / 1e6), 1)
        .cell(m.ops > 0.0 && m.stats.median > 0.0 ? m.ops / (m.stats.median / 1e9) : 0.0,
              0);
  }
  printBanner(std::cout, "micro kernels (median of " + std::to_string(reps) + " reps)");
  table.print(std::cout);
  std::cout << "headline: "
            << formatFixed(obs::simSecondsPerWallSecond(meta.simSeconds, meta.wallMs), 1)
            << " simulated seconds per wall second\n";
  std::cout << "wrote " << jsonPath << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonPath =
      rltherm::bench::jsonOutputPath(argc, argv, "BENCH_micro.json");
  if (!jsonPath.empty()) return runJsonMode(argc, argv, jsonPath);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
