// fleet_serve: an in-process FleetService hosting 5 config families x 5
// workload families on a fixed number of lanes.
//
//  - Burst phase (closed loop): tenants are submitted as fast as
//    back-pressure allows (the admission queue is filled to its depth before
//    every pass) until each has made its first decision; this gives capacity
//    (tenants_per_s) and wall_s.
//  - Paced phase (open loop): Poisson arrivals at a fixed mean rate while the
//    burst tenants stay on as constant background load, so every pass steps
//    them. A paced tenant's latency runs from its due time to the end of the
//    pass in which its first decision shows, so a stalled generator counts;
//    how late the generator ran is reported too. The tenant is then evicted.
//  - Each tenant's trace hash is taken after a fixed number of slices, so it
//    does not depend on timing or lane count, and sampled tenants are
//    replayed alone to check it.
//
// Admissions, trainings and checkpoint clones (writes) run between slice
// stepping (reads) on the service's long-lived pool.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "harness.hpp"
#include "serve/fleet.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"

namespace perfbench {
namespace {

using namespace rltherm;

struct FleetShape {
  std::size_t configFamilies = 5;
  std::size_t burstTenants = 160;
  std::size_t pacedTenants = 150;
  double arrivalsPerSecond = 60.0;
  std::size_t queueDepth = 64;
};

struct ConfigFamily {
  double gamma;
  std::size_t stressBins;
  std::size_t agingBins;
};
constexpr ConfigFamily kConfigs[] = {
    {0.75, 4, 4}, {0.60, 4, 4}, {0.90, 4, 4}, {0.75, 6, 4}, {0.75, 4, 6}};
const char* const kApps[] = {"tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx"};
const char* const kLongApps[] = {"mpeg_dec", "mpeg_enc"};

class FleetServe final : public Workload {
 public:
  FleetServe(const Options& options, FleetShape shape) : options_(options), shape_(shape) {
    if (options.queueDepth > 0) shape_.queueDepth = options.queueDepth;
    config_.jobs = options.lanes;
    config_.admitQueueDepth = shape_.queueDepth;
    config_.maxTenants = shape_.burstTenants + shape_.pacedTenants + 8;
    config_.trainSimTime = 600.0;
  }

  void release() override {
    service_.reset();
    requests_.clear();
  }

  void setup(std::uint64_t repSeed) override {
    requests_.clear();
    const std::size_t total = shape_.burstTenants + shape_.pacedTenants;
    for (std::size_t k = 0; k < total; ++k) {
      serve::AdmitRequest request;
      request.tenant = "tenant-" + std::to_string(k);
      // Background tenants run the two longest families, so none finishes
      // during the paced phase and the background load stays constant.
      request.family = k < shape_.burstTenants ? kLongApps[k % 2] : kApps[k % 5];
      request.dataset = 1 + static_cast<int>(k % 3);
      request.seed = mixSeed(repSeed, k);
      const ConfigFamily& family = kConfigs[(k / 5) % shape_.configFamilies];
      request.gamma = family.gamma;
      request.stressBins = family.stressBins;
      request.agingBins = family.agingBins;
      requests_.push_back(std::move(request));
    }
    // Poisson arrivals for the paced phase: independent users, and no
    // resonance between a fixed arrival period and the tenants' lifetime.
    arrivalOffsetsNs_.clear();
    double offsetS = 0.0;
    for (std::size_t j = 0; j < shape_.pacedTenants; ++j) {
      const double uniform =
          (static_cast<double>(mixSeed(repSeed, total + j) >> 11) + 0.5) * 0x1.0p-53;
      offsetS += -std::log(uniform) / shape_.arrivalsPerSecond;
      arrivalOffsetsNs_.push_back(static_cast<std::uint64_t>(offsetS * 1e9));
    }
    service_ = std::make_unique<serve::FleetService>(config_);
  }

  [[nodiscard]] std::size_t threads() const override { return options_.lanes; }

  RepOutcome run(bool traced) override {
    RepOutcome out;
    serve::FleetService& service = *service_;
    std::size_t queued = 0;
    std::size_t queueMax = 0;
    std::size_t activeMax = 0;
    std::size_t active = 0;  // tenants still running after the last pass
    std::size_t passes = 0;
    std::vector<double> passMs;
    std::uint64_t submitNs = 0;
    std::size_t submitCalls = 0;
    Digest digest;

    const auto pass = [&] {
      queueMax = std::max(queueMax, queued);
      const std::uint64_t start = nowNs();
      const serve::PassReport report = service.runPass();
      passMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
      activeMax = std::max(activeMax, report.advanced);
      active = report.advanced - report.completed;
      queued = 0;
      ++passes;
    };
    const auto submit = [&](const serve::AdmitRequest& request) {
      const std::uint64_t start = nowNs();
      const serve::AdmitOutcome outcome = service.submit(request);
      submitNs += nowNs() - start;
      ++submitCalls;
      ++out.attempted;
      if (outcome.accepted) {
        ++queued;
      } else {
        ++out.failed;
        if (rejections_++ == 0) std::cerr << "fleet_serve: rejected: " << outcome.reason << "\n";
      }
      return outcome.accepted;
    };
    // Records a decided tenant's state; the hash after a fixed number of
    // slices is independent of timing and lane count.
    const auto observe = [&](const std::string& tenant) {
      const auto status = service.query(tenant);
      if (!status.has_value() || status->decisions == 0) return false;
      digest.add(tenant);
      digest.add(status->traceHash);
      out.simSeconds += status->simTime;
      hashes_[tenant] = status->traceHash;
      return true;
    };
    constexpr std::size_t kMaxPasses = 100000;

    // Burst: fill the queue to its depth before every pass.
    hashes_.clear();
    const std::uint64_t start = nowNs();
    std::size_t next = 0;
    while (next < shape_.burstTenants) {
      while (next < shape_.burstTenants && queued < shape_.queueDepth) {
        submit(requests_[next++]);
      }
      pass();
    }
    for (std::size_t k = 0; k < shape_.burstTenants && passes < kMaxPasses; ++k) {
      while (service.query(requests_[k].tenant).has_value() && !observe(requests_[k].tenant) &&
             passes < kMaxPasses) {
        pass();
      }
    }
    burstPasses_ = passes;
    const double burstS = secondsSince(start);
    out.tenantsPerS = static_cast<double>(shape_.burstTenants) / burstS;

    // Paced: the burst tenants stay on as background load, so every pass
    // steps them; each paced tenant is evicted once its first decision shows.
    std::vector<double> lateMs;
    std::vector<std::pair<std::string, std::uint64_t>> pending;  // tenant, due time
    const std::uint64_t pacedStart = nowNs();
    const auto dueOf = [&](std::size_t j) { return pacedStart + arrivalOffsetsNs_[j]; };
    std::size_t j = 0;
    while ((j < shape_.pacedTenants || !pending.empty()) && passes < kMaxPasses) {
      for (std::uint64_t now = nowNs(); j < shape_.pacedTenants && dueOf(j) <= now; ++j) {
        const serve::AdmitRequest& request = requests_[shape_.burstTenants + j];
        lateMs.push_back(static_cast<double>(now - dueOf(j)) / 1e6);
        if (submit(request)) pending.emplace_back(request.tenant, dueOf(j));
      }
      if (queued == 0 && active == 0) {
        if (j == shape_.pacedTenants) break;
        // Idle until the next arrival. Spin rather than sleep: a sleeping
        // generator wakes late by a scheduler quantum, charged to the service.
        while (nowNs() < dueOf(j)) {
        }
        continue;
      }
      pass();
      const std::uint64_t passEnd = nowNs();
      std::erase_if(pending, [&](const auto& tenant) {
        if (!observe(tenant.first)) return false;
        out.firstDecisions.emplace_back(tenant.second, passEnd);
        (void)service.evictTenant(tenant.first);
        return true;
      });
    }
    out.openLoopS = secondsSince(pacedStart);
    out.wallS = secondsSince(start);
    // Tenants never submitted or never decided (the pass guard tripped).
    out.failed += pending.size() + (shape_.pacedTenants - j);

    // The background tenants' final states depend on how many passes the
    // paced phase took, so only their simulated time is counted.
    for (std::size_t k = 0; k < shape_.burstTenants; ++k) {
      const auto status = service.query(requests_[k].tenant);
      if (status.has_value()) out.simSeconds += status->simTime - burstSimTime(k);
    }
    serve::FleetStats stats = service.stats();
    out.simSeconds += static_cast<double>(stats.trainings) * config_.trainSimTime;
    out.digest = digest.value();
    const double hitRatio =
        stats.admitted > 0
            ? static_cast<double>(stats.cache.hits) / static_cast<double>(stats.admitted)
            : 0.0;
    if (hitRatio < 0.95) {
      out.problems.push_back("warm-start hit ratio " + std::to_string(hitRatio) + " < 0.95");
    }
    checkStandaloneReplay(requests_.front(), burstPasses_, out);
    checkStandaloneReplay(requests_.back(), 1, out);
    if (!traced) return out;

    LayerValues& layers = out.layers;
    layers["serve.submit.calls"] = static_cast<double>(submitCalls);
    layers["serve.submit.mean_us"] =
        static_cast<double>(submitNs) / 1e3 / static_cast<double>(submitCalls);
    layers["serve.rejected"] = static_cast<double>(stats.rejected);
    layers["serve.pass.calls"] = static_cast<double>(passes);
    layers["serve.pass.p50_ms"] = quantile(passMs, 0.5);
    layers["serve.pass.max_ms"] = *std::max_element(passMs.begin(), passMs.end());
    layers["serve.active.max"] = static_cast<double>(activeMax);
    layers["serve.queue.max"] = static_cast<double>(queueMax);
    layers["serve.train.calls"] = static_cast<double>(stats.trainings);
    layers["serve.train.busy_ms"] = stats.trainMsTotal;
    const std::uint64_t lookups = stats.cache.hits + stats.cache.misses;
    layers["serve.cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats.cache.hits) / static_cast<double>(lookups) : 0.0;
    layers["serve.gen.late_p99_ms"] = quantile(lateMs, 0.99);
    layers["exec.lanes"] = static_cast<double>(service.pool().threadCount());
    const auto sample = service.query(requests_.front().tenant);
    probeStore(service, sample.has_value() ? sample->fingerprint : 0, out);

    platform::MachineConfig machine;
    layers["platform.ticks"] = out.simSeconds / machine.tick;
    addReplayProbes(machine, workload::Scenario::of({workload::makeApp(kApps[0], 1)}), 20000,
                    layers);
    return out;
  }

 private:
  /// Simulated time of burst tenant `k` when the burst phase ended.
  [[nodiscard]] double burstSimTime(std::size_t k) const {
    // Tenants of the i-th queue-depth batch were admitted in pass i + 1 and
    // stepped one slice in every pass from then on.
    const std::size_t admittedInPass = k / shape_.queueDepth + 1;
    return static_cast<double>(burstPasses_ - admittedInPass + 1) * config_.sliceSeconds;
  }

  /// A tenant re-run alone on a one-lane service for `slices` passes must
  /// reproduce the trace hash it had inside the fleet, bit for bit.
  void checkStandaloneReplay(const serve::AdmitRequest& request, std::size_t slices,
                             RepOutcome& out) {
    const auto inFleet = hashes_.find(request.tenant);
    if (inFleet == hashes_.end()) return;  // rejected at admission, counted already
    serve::FleetServiceConfig aloneConfig = config_;
    aloneConfig.jobs = 1;
    serve::FleetService alone(aloneConfig);
    if (alone.submit(request).accepted) {
      for (std::size_t i = 0; i < slices; ++i) (void)alone.runPass();
    }
    const auto replay = alone.query(request.tenant);
    if (!replay.has_value() || replay->traceHash != inFleet->second) {
      ++out.failed;
      out.problems.push_back(request.tenant + ": standalone replay differs from the fleet");
    }
  }


  /// Checkpoint codec, timed on a cached warm-start entry: load from the
  /// buffer, serialize again, and check the bytes round-trip unchanged.
  static void probeStore(serve::FleetService& service, std::uint64_t fingerprint,
                         RepOutcome& out) {
    const auto bytes = service.cache().find(fingerprint);
    if (!bytes.has_value()) {
      out.problems.push_back("warm-start cache lost a live family's checkpoint");
      return;
    }
    constexpr int kRounds = 20;
    std::uint64_t loadNs = 0;
    std::uint64_t serializeNs = 0;
    bool roundTrips = true;
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t start = nowNs();
      const store::PolicyCheckpoint checkpoint =
          store::loadPolicyCheckpointFromBuffer(*bytes, "perfbench store probe");
      const std::uint64_t mid = nowNs();
      const std::vector<std::uint8_t> again = store::serializePolicyCheckpoint(checkpoint);
      serializeNs += nowNs() - mid;
      loadNs += mid - start;
      roundTrips = roundTrips && again == *bytes;
    }
    if (!roundTrips) out.problems.push_back("checkpoint does not round-trip through the codec");
    out.layers["store.load_buffer.mean_us"] = static_cast<double>(loadNs) / 1e3 / kRounds;
    out.layers["store.serialize.mean_us"] = static_cast<double>(serializeNs) / 1e3 / kRounds;
    out.layers["store.checkpoint.bytes"] = static_cast<double>(bytes->size());
  }

  Options options_;
  FleetShape shape_;
  serve::FleetServiceConfig config_;
  std::vector<serve::AdmitRequest> requests_;
  std::vector<std::uint64_t> arrivalOffsetsNs_;  ///< paced arrivals after the phase start
  std::map<std::string, std::uint64_t> hashes_;   ///< trace hash at first observation
  std::size_t burstPasses_ = 0;
  std::unique_ptr<serve::FleetService> service_;
  std::size_t rejections_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeFleetServe(const Options& options) {
  FleetShape shape;
  if (options.small) {
    shape.configFamilies = 2;
    shape.burstTenants = 20;
    shape.pacedTenants = 40;
    shape.arrivalsPerSecond = 40.0;
  }
  return std::make_unique<FleetServe>(options, shape);
}

}  // namespace perfbench
