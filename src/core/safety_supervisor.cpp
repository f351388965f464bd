#include "core/safety_supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/thermal_manager.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "workload/driver.hpp"

namespace rltherm::core {

namespace {

/// Median of a small non-empty vector (by copy; channel counts are tiny).
Celsius medianOf(std::vector<Celsius> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

}  // namespace

const char* toString(SensorHealth health) noexcept {
  switch (health) {
    case SensorHealth::Healthy: return "healthy";
    case SensorHealth::Suspect: return "suspect";
    case SensorHealth::Quarantined: return "quarantined";
  }
  return "unknown";
}

SafetySupervisor::SafetySupervisor(std::unique_ptr<ThermalPolicy> inner,
                                   SafetySupervisorConfig config)
    : inner_(std::move(inner)), config_(config) {
  expects(inner_ != nullptr, "SafetySupervisor needs an inner policy");
  expects(config_.plausibleFloor < config_.plausibleCeiling,
          "SafetySupervisor: plausibility range is empty");
  expects(config_.maxRatePerSecond > 0.0, "SafetySupervisor: maxRatePerSecond must be > 0");
  expects(config_.divergenceLimit > 0.0, "SafetySupervisor: divergenceLimit must be > 0");
  expects(config_.modelTimeConstant > 0.0, "SafetySupervisor: modelTimeConstant must be > 0");
  expects(config_.quarantineAfter >= 1, "SafetySupervisor: quarantineAfter must be >= 1");
  expects(config_.restoreAfter >= 1, "SafetySupervisor: restoreAfter must be >= 1");
  expects(config_.emergencyExitTemp < config_.emergencyTemp,
          "SafetySupervisor: emergency exit threshold must sit below the entry threshold");
  expects(config_.emergencyExitSamples >= 1,
          "SafetySupervisor: emergencyExitSamples must be >= 1");
  expects(config_.monitorInterval > 0.0, "SafetySupervisor: monitorInterval must be > 0");
}

std::string SafetySupervisor::name() const { return "safe(" + inner_->name() + ")"; }

Seconds SafetySupervisor::samplingInterval() const {
  const Seconds innerInterval = inner_->samplingInterval();
  return innerInterval > 0.0 ? innerInterval : config_.monitorInterval;
}

void SafetySupervisor::onStart(PolicyContext& ctx) {
  channels_.assign(ctx.machine.coreCount(), Channel{});
  haveLastSample_ = false;
  lastSampleTime_ = 0.0;
  firstQuarantine_.reset();
  watchedRequest_.reset();
  retriesUsed_ = 0;
  retryCountdown_ = 0;
  emergency_ = false;
  coolSamples_ = 0;
  snapshot_.cores.assign(ctx.machine.coreCount(),
                         HealthSnapshot::CoreHealth{.level = 0, .online = true});
  coreWasOnline_.assign(ctx.machine.coreCount(), 1);
  coreEverOffline_.assign(ctx.machine.coreCount(), 0);
  for (std::size_t c = 0; c < ctx.machine.coreCount(); ++c) {
    const bool online = ctx.machine.coreOnline(c);
    snapshot_.cores[c].online = online;
    coreWasOnline_[c] = online ? 1 : 0;
    coreEverOffline_[c] = online ? 0 : 1;
  }
  inner_->onStart(ctx);
}

void SafetySupervisor::onAppSwitch(PolicyContext& ctx) { inner_->onAppSwitch(ctx); }

bool SafetySupervisor::wantsAppSwitchSignal() const {
  return inner_->wantsAppSwitchSignal();
}

void SafetySupervisor::freezeInner() noexcept {
  if (auto* manager = dynamic_cast<ThermalManager*>(inner_.get())) manager->freeze();
}

void SafetySupervisor::unfreezeInner() noexcept {
  if (auto* manager = dynamic_cast<ThermalManager*>(inner_.get())) manager->unfreeze();
}

void SafetySupervisor::notifyInnerDetection() noexcept {
  if (auto* manager = dynamic_cast<ThermalManager*>(inner_.get())) {
    manager->notifyDetection();
  }
}

bool SafetySupervisor::refreshHealthSnapshot(PolicyContext& ctx, Seconds now) {
  const std::size_t cores = ctx.machine.coreCount();
  if (snapshot_.cores.size() < cores) {
    snapshot_.cores.resize(cores, HealthSnapshot::CoreHealth{.level = 0, .online = true});
  }
  if (coreWasOnline_.size() < cores) coreWasOnline_.resize(cores, 1);
  if (coreEverOffline_.size() < cores) coreEverOffline_.resize(cores, 0);

  bool retired = false;
  for (std::size_t c = 0; c < cores; ++c) {
    std::uint8_t level = 0;
    if (c < channels_.size()) {
      switch (channels_[c].health) {
        case SensorHealth::Healthy: level = 0; break;
        case SensorHealth::Suspect: level = 1; break;
        case SensorHealth::Quarantined: level = 2; break;
      }
    }
    const bool online = ctx.machine.coreOnline(c);
    if (!online) coreEverOffline_[c] = 1;
    // Flapping demotion: a core that has ever dropped offline is marginal
    // hardware — never report it healthier than Suspect again, even while
    // it is back online, so avoid-mask placement keeps clear of it.
    if (coreEverOffline_[c] != 0) level = std::max<std::uint8_t>(level, 1);
    snapshot_.cores[c] = HealthSnapshot::CoreHealth{.level = level, .online = online};
    if (coreWasOnline_[c] != 0 && !online) {
      // A core the supervisor believed alive went offline: permanent (or
      // intermittent) core loss observed. This is the degraded-mode signal
      // replication placement keys off.
      retired = true;
      ++stats_.coresRetired;
      obs::bumpCounter("safety.core.retired");
      if (obs::events() != nullptr) {
        obs::emit(obs::Event{
            .name = "safety.core.retired",
            .simTime = now,
            .fields = {
                obs::field("core", static_cast<std::int64_t>(c)),
                obs::field("online_remaining",
                           static_cast<std::int64_t>(ctx.machine.onlineCoreCount())),
            }});
      }
    }
    coreWasOnline_[c] = online ? 1 : 0;
  }
  return retired;
}

SensorHealth SafetySupervisor::health(std::size_t channel) const {
  expects(channel < channels_.size(),
          "SafetySupervisor::health: channel out of range (before onStart?)");
  return channels_[channel].health;
}

bool SafetySupervisor::allQuarantined() const {
  if (channels_.empty()) return false;
  return std::all_of(channels_.begin(), channels_.end(), [](const Channel& c) {
    return c.health == SensorHealth::Quarantined;
  });
}

void SafetySupervisor::quarantine(std::size_t channel, Seconds now, const char* reason) {
  channels_[channel].health = SensorHealth::Quarantined;
  ++stats_.quarantines;
  if (!firstQuarantine_.has_value()) firstQuarantine_ = now;
  obs::bumpCounter("safety.sensor.quarantine");
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "safety.sensor.quarantine",
        .simTime = now,
        .fields = {
            obs::field("channel", static_cast<std::int64_t>(channel)),
            obs::field("reason", reason),
            obs::field("substitute_c", static_cast<double>(channels_[channel].estimate)),
        }});
  }
}

void SafetySupervisor::restore(std::size_t channel, Seconds now) {
  channels_[channel].health = SensorHealth::Healthy;
  ++stats_.restores;
  obs::bumpCounter("safety.sensor.restore");
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "safety.sensor.restore",
        .simTime = now,
        .fields = {
            obs::field("channel", static_cast<std::int64_t>(channel)),
        }});
  }
}

Celsius SafetySupervisor::sanitize(Seconds now, Seconds dt, std::vector<Celsius>& temps) {
  const Celsius floor = config_.plausibleFloor;
  const Celsius ceiling = config_.plausibleCeiling;
  const Celsius rateBudget =
      static_cast<Celsius>(config_.maxRatePerSecond * dt) + config_.rateMargin;

  // Seed estimates on the first sight of a channel. A channel that is born
  // implausible seeds to the clamped value (the floor when non-finite —
  // std::clamp passes NaN through) and is immediately rejected by the gates
  // below, so the substitute converges to the healthy median.
  for (std::size_t c = 0; c < temps.size(); ++c) {
    Channel& channel = channels_[c];
    if (!channel.seeded) {
      channel.estimate =
          std::isfinite(temps[c]) ? std::clamp(temps[c], floor, ceiling) : floor;
      channel.lastRaw = temps[c];
      channel.seeded = true;
    }
  }

  // Range gate + the candidate pool for cross-core redundancy: raw readings
  // of in-range, not-quarantined channels.
  std::vector<bool> rangeOk(temps.size(), false);
  std::vector<Celsius> candidates;
  candidates.reserve(temps.size());
  for (std::size_t c = 0; c < temps.size(); ++c) {
    rangeOk[c] = std::isfinite(temps[c]) && temps[c] >= floor && temps[c] <= ceiling;
    if (rangeOk[c] && channels_[c].health != SensorHealth::Quarantined) {
      candidates.push_back(temps[c]);
    }
  }

  std::vector<Celsius> accepted;
  accepted.reserve(temps.size());
  std::vector<bool> rejected(temps.size(), false);
  for (std::size_t c = 0; c < temps.size(); ++c) {
    Channel& channel = channels_[c];
    const Celsius raw = temps[c];

    // Median of the OTHER candidate channels (self excluded, so a stuck or
    // offset channel cannot vouch for itself).
    std::vector<Celsius> others;
    others.reserve(candidates.size());
    for (std::size_t o = 0; o < temps.size(); ++o) {
      if (o == c) continue;
      if (rangeOk[o] && channels_[o].health != SensorHealth::Quarantined) {
        others.push_back(temps[o]);
      }
    }
    const bool haveRedundancy = others.size() >= 2;
    const Celsius othersMedian = haveRedundancy ? medianOf(others) : 0.0;

    const char* rejectReason = nullptr;
    if (channel.health == SensorHealth::Quarantined) {
      // Restore gate: the channel must be in range, self-consistent (its
      // own reading moves at a physical rate) and agree with the healthy
      // median, for restoreAfter consecutive samples.
      const bool selfConsistent =
          std::isfinite(raw) &&
          std::abs(raw - channel.lastRaw) <= rateBudget;
      const bool agrees =
          !haveRedundancy || std::abs(raw - othersMedian) <= config_.divergenceLimit;
      rejectReason = "quarantined";
      if (rangeOk[c] && selfConsistent && agrees) {
        ++channel.acceptStreak;
        if (channel.acceptStreak >= config_.restoreAfter) {
          restore(c, now);
          channel.estimate = raw;
          channel.acceptStreak = 0;
          channel.rejectStreak = 0;
          rejectReason = nullptr;  // the restoring sample is trusted
        }
      } else {
        channel.acceptStreak = 0;
      }
    } else if (!rangeOk[c]) {
      rejectReason = "range";
    } else if (std::abs(raw - channel.estimate) > rateBudget) {
      rejectReason = "rate";
    } else if (haveRedundancy &&
               std::abs(raw - othersMedian) > config_.divergenceLimit) {
      rejectReason = "divergence";
    }

    if (channel.health != SensorHealth::Quarantined) {
      if (rejectReason == nullptr) {
        channel.estimate = raw;
        channel.rejectStreak = 0;
        ++channel.acceptStreak;
        if (channel.health == SensorHealth::Suspect &&
            channel.acceptStreak >= config_.restoreAfter) {
          channel.health = SensorHealth::Healthy;
        }
      } else {
        channel.acceptStreak = 0;
        ++channel.rejectStreak;
        if (channel.health == SensorHealth::Healthy) {
          channel.health = SensorHealth::Suspect;
        }
        if (channel.rejectStreak >= config_.quarantineAfter) {
          quarantine(c, now, rejectReason);
        }
      }
    }

    channel.lastRaw = raw;
    rejected[c] = rejectReason != nullptr;
    if (!rejected[c]) accepted.push_back(channel.estimate);
  }

  // Substitution for rejected channels: relax the held estimate toward the
  // median of the accepted readings (the package couples cores thermally),
  // or hold it when the supervisor is flying blind.
  const bool haveReference = !accepted.empty();
  const Celsius reference = haveReference ? medianOf(accepted) : 0.0;
  const double relax = 1.0 - std::exp(-dt / config_.modelTimeConstant);
  Celsius maxTemp = floor;
  for (std::size_t c = 0; c < temps.size(); ++c) {
    Channel& channel = channels_[c];
    if (rejected[c] && haveReference) {
      channel.estimate += static_cast<Celsius>(relax * (reference - channel.estimate));
    }
    channel.estimate = std::clamp(channel.estimate, floor, ceiling);
    temps[c] = channel.estimate;
    if (rejected[c]) ++stats_.readingsSubstituted;
    maxTemp = std::max(maxTemp, temps[c]);
    // The whole point of the sanitizer: the inner policy never sees a
    // non-finite or sub-ambient reading it would discretize into a valid
    // low-aging state.
    RLTHERM_ENSURE(std::isfinite(temps[c]) && temps[c] >= floor && temps[c] <= ceiling,
                   "SafetySupervisor: sanitized reading escaped the plausible range");
  }
  return maxTemp;
}

void SafetySupervisor::superviseActuation(PolicyContext& ctx) {
  const std::optional<platform::GovernorSetting>& request =
      ctx.machine.lastGovernorRequest();
  if (!request.has_value()) return;
  if (ctx.machine.governorSetting() == *request) {
    watchedRequest_.reset();
    retriesUsed_ = 0;
    return;
  }

  // The latest machine-wide request did not take effect: it was swallowed
  // (fault injection, wedged firmware). Retry with exponential backoff in
  // sample periods, bounded per request.
  if (!watchedRequest_.has_value() || !(*watchedRequest_ == *request)) {
    watchedRequest_ = *request;
    retriesUsed_ = 0;
    retryCountdown_ = 1;
    return;
  }
  if (retriesUsed_ >= config_.maxActuationRetries) return;
  if (retryCountdown_ > 1) {
    --retryCountdown_;
    return;
  }

  ++retriesUsed_;
  ++stats_.actuationRetries;
  obs::bumpCounter("safety.actuation.retry");
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "safety.actuation.retry",
        .simTime = ctx.machine.now(),
        .fields = {
            obs::field("attempt", static_cast<std::int64_t>(retriesUsed_)),
            obs::field("governor", request->toString()),
        }});
  }
  ctx.machine.setGovernor(*request);
  if (ctx.machine.governorSetting() == *request) {
    watchedRequest_.reset();
    retriesUsed_ = 0;
  } else {
    retryCountdown_ = std::size_t{1} << retriesUsed_;  // 2, 4, 8... samples
    if (retriesUsed_ >= config_.maxActuationRetries) ++stats_.actuationGiveUps;
  }
}

void SafetySupervisor::enterEmergency(PolicyContext& ctx, Seconds now,
                                      const char* reason, Celsius maxTemp) {
  emergency_ = true;
  ++stats_.emergencies;
  emergencyEnteredAt_ = now;
  coolSamples_ = 0;
  repinBackoff_ = 1;
  repinCountdown_ = 0;
  innerWasFrozenBeforeEmergency_ = true;
  if (auto* manager = dynamic_cast<ThermalManager*>(inner_.get())) {
    innerWasFrozenBeforeEmergency_ = manager->frozen();
  }
  freezeInner();
  obs::bumpCounter("safety.emergency.enter");
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "safety.emergency.enter",
        .simTime = now,
        .fields = {
            obs::field("reason", reason),
            obs::field("max_temp_c", static_cast<double>(maxTemp)),
        }});
  }
  maintainEmergency(ctx, now, maxTemp);
}

void SafetySupervisor::maintainEmergency(PolicyContext& ctx, Seconds now,
                                         Celsius maxTemp) {
  // Pin the fallback through a possibly-faulty actuation path. A delayed
  // path holds only the NEWEST request, so re-issuing every sample would
  // restart the delay forever; instead back off between re-issues (1, 2, 4,
  // ... samples up to emergencyRepinBackoffCap) so a deferred transition
  // gets a quiet gap to land in. Once the effective setting matches, stop
  // issuing and just watch for it being knocked loose again.
  const platform::GovernorSetting fallback{platform::GovernorKind::Powersave, 0.0};
  if (ctx.machine.governorSetting() == fallback) {
    repinBackoff_ = 1;
    repinCountdown_ = 0;
  } else if (repinCountdown_ > 0) {
    --repinCountdown_;
  } else {
    ctx.machine.setGovernor(fallback);
    if (!(ctx.machine.governorSetting() == fallback)) {
      repinCountdown_ = repinBackoff_;
      repinBackoff_ = std::min(repinBackoff_ * 2, config_.emergencyRepinBackoffCap);
    }
  }
  const auto patterns = workload::standardPatterns(ctx.machine.coreCount());
  ctx.workload.applyAffinityPattern(patterns[2].masks);  // "spread"

  const bool blind = config_.emergencyOnTotalSensorLoss && allQuarantined();
  if (maxTemp <= config_.emergencyExitTemp && !blind) {
    ++coolSamples_;
  } else {
    coolSamples_ = 0;
  }
  if (coolSamples_ >= config_.emergencyExitSamples) {
    emergency_ = false;
    emergencyTotal_ += now - emergencyEnteredAt_;
    if (!innerWasFrozenBeforeEmergency_) unfreezeInner();
    obs::bumpCounter("safety.emergency.exit");
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{
          .name = "safety.emergency.exit",
          .simTime = now,
          .fields = {
              obs::field("duration_s", now - emergencyEnteredAt_),
              obs::field("max_temp_c", static_cast<double>(maxTemp)),
          }});
    }
  }
}

void SafetySupervisor::onSample(PolicyContext& ctx, std::span<const Celsius> sensorTemps) {
  const Seconds now = ctx.machine.now();
  const Seconds dt = haveLastSample_
                         ? std::max(now - lastSampleTime_, ctx.machine.tickLength())
                         : std::max(samplingInterval(), ctx.machine.tickLength());
  lastSampleTime_ = now;
  haveLastSample_ = true;
  ++stats_.samplesSeen;

  if (channels_.size() < sensorTemps.size()) {
    channels_.resize(sensorTemps.size(), Channel{});
  }
  std::vector<Celsius> sanitized(sensorTemps.begin(), sensorTemps.end());
  const std::uint64_t quarantinesBefore = stats_.quarantines;
  const Celsius maxTemp = sanitize(now, dt, sanitized);

  // Rebuild the degraded-mode health view every sample (even in emergency:
  // core retirements must not go unobserved while the fallback is pinned).
  const bool coreRetired = refreshHealthSnapshot(ctx, now);
  const bool newQuarantine = stats_.quarantines != quarantinesBefore;
  if (coreRetired || newQuarantine) {
    // Event-triggered SMDP epoch: a detection lets the inner manager decide
    // NOW instead of waiting out the rest of its fixed decision epoch.
    notifyInnerDetection();
  }

  if (emergency_) {
    maintainEmergency(ctx, now, maxTemp);
    return;  // the inner policy stays paused while the fallback is pinned
  }
  if (maxTemp >= config_.emergencyTemp) {
    enterEmergency(ctx, now, "overtemp", maxTemp);
    return;
  }
  if (config_.emergencyOnTotalSensorLoss && allQuarantined()) {
    enterEmergency(ctx, now, "total-sensor-loss", maxTemp);
    return;
  }

  if (inner_->samplingInterval() > 0.0) {
    PolicyContext innerCtx = ctx;
    innerCtx.health = &snapshot_;
    inner_->onSample(innerCtx, sanitized);
  }
  superviseActuation(ctx);
}

}  // namespace rltherm::core
