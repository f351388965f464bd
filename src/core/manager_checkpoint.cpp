#include "core/manager_checkpoint.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/safety_supervisor.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "store/policy_checkpoint.hpp"

namespace rltherm::core {

namespace {

store::PolicyMeta metaOf(const ThermalManagerConfig& config,
                         const ActionSpace& actions) {
  store::PolicyMeta meta;
  meta.actionSpec = actions.spec();
  meta.actionNames.reserve(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    meta.actionNames.push_back(actions.action(i).toString());
  }
  meta.stressBins = static_cast<std::uint64_t>(config.stressBins);
  meta.agingBins = static_cast<std::uint64_t>(config.agingBins);
  meta.stressRangeLo = config.stressRangeLo;
  meta.stressRangeHi = config.stressRangeHi;
  meta.agingRangeHi = config.agingRangeHi;
  meta.gamma = config.gamma;
  meta.optimisticInit = config.optimisticInit;
  meta.scaleExplorationToActions = config.scaleExplorationToActions;
  meta.lrInitialAlpha = config.learningRate.initialAlpha;
  meta.lrDecay = config.learningRate.decay;
  meta.lrMinAlpha = config.learningRate.minAlpha;
  meta.lrExplorationThreshold = config.learningRate.explorationThreshold;
  meta.lrExploitationThreshold = config.learningRate.exploitationThreshold;
  meta.rewardGaussianMean = config.reward.gaussianMean;
  meta.rewardGaussianSigma = config.reward.gaussianSigma;
  meta.rewardImportanceHigh = config.reward.importanceHigh;
  meta.rewardImportanceLow = config.reward.importanceLow;
  meta.rewardUnsafePenaltyScale = config.reward.unsafePenaltyScale;
  meta.rewardSafetyCenter = config.reward.safetyCenter;
  meta.rewardPerformanceWeight = config.reward.performanceWeight;
  meta.rewardGaussianWeights = config.reward.gaussianWeights;
  meta.movingAverageWindow = static_cast<std::uint64_t>(config.movingAverageWindow);
  meta.intraThresholdAging = config.intraThresholdAging;
  meta.interThresholdAging = config.interThresholdAging;
  meta.intraThresholdStress = config.intraThresholdStress;
  meta.interThresholdStress = config.interThresholdStress;
  meta.adaptationEnabled = config.adaptationEnabled;
  meta.healthStates = static_cast<std::uint64_t>(config.healthStates);
  meta.rewardDeliveredWorkWeight = config.reward.deliveredWorkWeight;
  meta.eventTriggeredEpochs = config.eventTriggeredEpochs;
  meta.samplingInterval = config.samplingInterval;
  meta.decisionEpoch = config.decisionEpoch;
  meta.adaptiveSampling = config.adaptiveSampling;
  meta.minSamplingInterval = config.minSamplingInterval;
  meta.maxSamplingInterval = config.maxSamplingInterval;
  meta.autocorrStretchAbove = config.autocorrStretchAbove;
  meta.autocorrShrinkBelow = config.autocorrShrinkBelow;
  meta.plausibleFloor = config.plausibleFloor;
  meta.decisionOverhead = config.decisionOverhead;
  meta.seed = config.seed;
  return meta;
}

ThermalManagerConfig configOf(const store::PolicyMeta& meta) {
  ThermalManagerConfig config;
  config.samplingInterval = meta.samplingInterval;
  config.decisionEpoch = meta.decisionEpoch;
  config.adaptiveSampling = meta.adaptiveSampling;
  config.minSamplingInterval = meta.minSamplingInterval;
  config.maxSamplingInterval = meta.maxSamplingInterval;
  config.autocorrStretchAbove = meta.autocorrStretchAbove;
  config.autocorrShrinkBelow = meta.autocorrShrinkBelow;
  config.plausibleFloor = meta.plausibleFloor;
  config.stressBins = static_cast<std::size_t>(meta.stressBins);
  config.agingBins = static_cast<std::size_t>(meta.agingBins);
  config.stressRangeLo = meta.stressRangeLo;
  config.stressRangeHi = meta.stressRangeHi;
  config.agingRangeHi = meta.agingRangeHi;
  config.gamma = meta.gamma;
  config.learningRate.initialAlpha = meta.lrInitialAlpha;
  config.learningRate.decay = meta.lrDecay;
  config.learningRate.minAlpha = meta.lrMinAlpha;
  config.learningRate.explorationThreshold = meta.lrExplorationThreshold;
  config.learningRate.exploitationThreshold = meta.lrExploitationThreshold;
  config.scaleExplorationToActions = meta.scaleExplorationToActions;
  config.optimisticInit = meta.optimisticInit;
  config.reward.gaussianMean = meta.rewardGaussianMean;
  config.reward.gaussianSigma = meta.rewardGaussianSigma;
  config.reward.importanceHigh = meta.rewardImportanceHigh;
  config.reward.importanceLow = meta.rewardImportanceLow;
  config.reward.unsafePenaltyScale = meta.rewardUnsafePenaltyScale;
  config.reward.safetyCenter = meta.rewardSafetyCenter;
  config.reward.performanceWeight = meta.rewardPerformanceWeight;
  config.reward.gaussianWeights = meta.rewardGaussianWeights;
  config.movingAverageWindow = static_cast<std::size_t>(meta.movingAverageWindow);
  config.intraThresholdAging = meta.intraThresholdAging;
  config.interThresholdAging = meta.interThresholdAging;
  config.intraThresholdStress = meta.intraThresholdStress;
  config.interThresholdStress = meta.interThresholdStress;
  config.adaptationEnabled = meta.adaptationEnabled;
  config.healthStates = static_cast<std::size_t>(meta.healthStates);
  config.reward.deliveredWorkWeight = meta.rewardDeliveredWorkWeight;
  config.eventTriggeredEpochs = meta.eventTriggeredEpochs;
  config.decisionOverhead = meta.decisionOverhead;
  config.seed = meta.seed;
  return config;
}

void emitCheckpointEvent(const char* name, const std::string& path,
                         std::uint64_t fingerprint, std::size_t epochs,
                         double qCoverage, Seconds simTime) {
  obs::bumpCounter(name);
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = name,
        .simTime = simTime,
        .fields = {
            obs::field("path", path),
            obs::field("fingerprint", static_cast<std::int64_t>(fingerprint)),
            obs::field("epochs", static_cast<std::int64_t>(epochs)),
            obs::field("q_coverage", qCoverage),
        }});
  }
}

}  // namespace

std::uint64_t ThermalManager::configFingerprint() const {
  return store::fingerprintOf(metaOf(config_, actions_));
}

store::PolicyCheckpoint ThermalManager::captureCheckpoint() const {
  store::PolicyCheckpoint checkpoint;
  checkpoint.meta = metaOf(config_, actions_);

  checkpoint.qValues = qTable_.values();
  checkpoint.qVisits.reserve(qTable_.visits().size());
  for (const std::size_t v : qTable_.visits()) {
    checkpoint.qVisits.push_back(static_cast<std::uint64_t>(v));
  }
  checkpoint.qTouched = qTable_.touchedBytes();

  checkpoint.hasQExp = qExp_.has_value();
  if (qExp_) checkpoint.qExp = *qExp_;

  checkpoint.scheduleStep = static_cast<std::uint64_t>(schedule_.step());

  const Rng::StreamState rngState = rng_.streamState();
  checkpoint.rng.lanes = rngState.lanes;
  checkpoint.rng.cachedGaussian = rngState.cachedGaussian;
  checkpoint.rng.hasCachedGaussian = rngState.hasCachedGaussian;

  checkpoint.currentSamplingInterval = currentSamplingInterval_;
  checkpoint.samplesPerEpoch = static_cast<std::uint64_t>(samplesPerEpoch_);

  const MovingAverage::Snapshot stressMa = stressMa_.snapshotState();
  checkpoint.stressMa.samples = stressMa.samples;
  checkpoint.stressMa.sum = stressMa.sum;
  const MovingAverage::Snapshot agingMa = agingMa_.snapshotState();
  checkpoint.agingMa.samples = agingMa.samples;
  checkpoint.agingMa.sum = agingMa.sum;
  checkpoint.hasPrevStressMa = prevStressMa_.has_value();
  checkpoint.prevStressMa = prevStressMa_.value_or(0.0);
  checkpoint.hasPrevAgingMa = prevAgingMa_.has_value();
  checkpoint.prevAgingMa = prevAgingMa_.value_or(0.0);

  const OnlineStats::Raw stressRaw = stressHistory_.raw();
  checkpoint.stressHistory = {static_cast<std::uint64_t>(stressRaw.count),
                              stressRaw.mean, stressRaw.m2, stressRaw.min,
                              stressRaw.max};
  const OnlineStats::Raw agingRaw = agingHistory_.raw();
  checkpoint.agingHistory = {static_cast<std::uint64_t>(agingRaw.count),
                             agingRaw.mean, agingRaw.m2, agingRaw.min, agingRaw.max};

  checkpoint.hasPrevState = prevState_.has_value();
  checkpoint.prevState = static_cast<std::uint64_t>(prevState_.value_or(0));
  checkpoint.prevAction = static_cast<std::uint64_t>(prevAction_);
  checkpoint.havePrevAction = havePrevAction_;
  checkpoint.stableEpochs = static_cast<std::uint64_t>(stableEpochs_);
  checkpoint.frozen = frozen_;
  checkpoint.interDetections = static_cast<std::uint64_t>(interDetections_);
  checkpoint.intraDetections = static_cast<std::uint64_t>(intraDetections_);

  checkpoint.epochLog.reserve(epochLog_.size());
  for (const EpochRecord& record : epochLog_) {
    store::EpochRecordData data;
    data.time = record.time;
    data.state = static_cast<std::uint64_t>(record.state);
    data.action = static_cast<std::uint64_t>(record.action);
    data.stress = record.stress;
    data.aging = record.aging;
    data.reward = record.reward;
    data.alpha = record.alpha;
    data.phase = static_cast<std::uint8_t>(record.phase);
    data.qCoverage = record.qCoverage;
    data.intraDetected = record.intraDetected;
    data.interDetected = record.interDetected;
    checkpoint.epochLog.push_back(data);
  }

  checkpoint.smdpLastEpochTime = lastEpochTime_;
  checkpoint.smdpEventPending = eventPending_;
  return checkpoint;
}

void ThermalManager::restoreFromCheckpoint(const store::PolicyCheckpoint& checkpoint) {
  const std::uint64_t fingerprint = store::fingerprintOf(checkpoint.meta);
  const std::uint64_t own = configFingerprint();
  if (fingerprint != own) {
    throw PreconditionError(
        "checkpoint config fingerprint " + std::to_string(fingerprint) +
        " does not match this manager's " + std::to_string(own) +
        " — the action space, discretizer, learning or reward configuration "
        "differs, so the stored Q values do not apply");
  }

  std::vector<std::size_t> visits;
  visits.reserve(checkpoint.qVisits.size());
  for (const std::uint64_t v : checkpoint.qVisits) {
    visits.push_back(static_cast<std::size_t>(v));
  }
  qTable_.restoreFull(checkpoint.qValues, visits, checkpoint.qTouched);

  if (checkpoint.hasQExp) {
    if (!qExp_) qExp_.emplace();
    *qExp_ = checkpoint.qExp;
  } else {
    qExp_.reset();
  }

  schedule_.restoreStep(static_cast<std::size_t>(checkpoint.scheduleStep));

  Rng::StreamState rngState;
  rngState.lanes = checkpoint.rng.lanes;
  rngState.cachedGaussian = checkpoint.rng.cachedGaussian;
  rngState.hasCachedGaussian = checkpoint.rng.hasCachedGaussian;
  rng_.setStreamState(rngState);

  currentSamplingInterval_ = checkpoint.currentSamplingInterval;
  samplesPerEpoch_ = static_cast<std::size_t>(checkpoint.samplesPerEpoch);

  MovingAverage::Snapshot maSnapshot;
  maSnapshot.samples = checkpoint.stressMa.samples;
  maSnapshot.sum = checkpoint.stressMa.sum;
  stressMa_.restoreState(maSnapshot);
  maSnapshot.samples = checkpoint.agingMa.samples;
  maSnapshot.sum = checkpoint.agingMa.sum;
  agingMa_.restoreState(maSnapshot);
  prevStressMa_ = checkpoint.hasPrevStressMa
                      ? std::optional<double>(checkpoint.prevStressMa)
                      : std::nullopt;
  prevAgingMa_ = checkpoint.hasPrevAgingMa
                     ? std::optional<double>(checkpoint.prevAgingMa)
                     : std::nullopt;

  stressHistory_.restoreRaw({static_cast<std::size_t>(checkpoint.stressHistory.count),
                             checkpoint.stressHistory.mean, checkpoint.stressHistory.m2,
                             checkpoint.stressHistory.min,
                             checkpoint.stressHistory.max});
  agingHistory_.restoreRaw({static_cast<std::size_t>(checkpoint.agingHistory.count),
                            checkpoint.agingHistory.mean, checkpoint.agingHistory.m2,
                            checkpoint.agingHistory.min, checkpoint.agingHistory.max});

  prevState_ = checkpoint.hasPrevState
                   ? std::optional<std::size_t>(
                         static_cast<std::size_t>(checkpoint.prevState))
                   : std::nullopt;
  prevAction_ = static_cast<std::size_t>(checkpoint.prevAction);
  havePrevAction_ = checkpoint.havePrevAction;
  stableEpochs_ = static_cast<std::size_t>(checkpoint.stableEpochs);
  frozen_ = checkpoint.frozen;
  interDetections_ = static_cast<std::size_t>(checkpoint.interDetections);
  intraDetections_ = static_cast<std::size_t>(checkpoint.intraDetections);

  epochLog_.clear();
  epochLog_.reserve(checkpoint.epochLog.size());
  for (const store::EpochRecordData& data : checkpoint.epochLog) {
    EpochRecord record;
    record.time = data.time;
    record.state = static_cast<std::size_t>(data.state);
    record.action = static_cast<std::size_t>(data.action);
    record.stress = data.stress;
    record.aging = data.aging;
    record.reward = data.reward;
    record.alpha = data.alpha;
    record.phase = static_cast<rl::LearningPhase>(data.phase);
    record.qCoverage = data.qCoverage;
    record.intraDetected = data.intraDetected;
    record.interDetected = data.interDetected;
    epochLog_.push_back(record);
  }

  lastEpochTime_ = checkpoint.smdpLastEpochTime;
  eventPending_ = checkpoint.smdpEventPending;
}

void ThermalManager::saveCheckpoint(const std::string& path) const {
  const store::PolicyCheckpoint checkpoint = captureCheckpoint();
  store::savePolicyCheckpoint(path, checkpoint);
  emitCheckpointEvent("store.checkpoint.save", path,
                      store::fingerprintOf(checkpoint.meta), epochLog_.size(),
                      qTable_.coverage(),
                      epochLog_.empty() ? 0.0 : epochLog_.back().time);
}

void ThermalManager::loadCheckpoint(const std::string& path) {
  const store::PolicyCheckpoint checkpoint = store::loadPolicyCheckpoint(path);
  restoreFromCheckpoint(checkpoint);
  emitCheckpointEvent("store.checkpoint.load", path,
                      store::fingerprintOf(checkpoint.meta), epochLog_.size(),
                      qTable_.coverage(),
                      epochLog_.empty() ? 0.0 : epochLog_.back().time);
}

std::unique_ptr<ThermalManager> managerFromCheckpoint(
    const store::PolicyCheckpoint& checkpoint, const std::string& source) {
  ActionSpace actions = ActionSpace::fromSpec(checkpoint.meta.actionSpec);
  expects(actions.size() == checkpoint.meta.actionNames.size(),
          "checkpoint '" + source + "': rebuilt action space has " +
              std::to_string(actions.size()) + " actions, the checkpoint stores " +
              std::to_string(checkpoint.meta.actionNames.size()));
  for (std::size_t i = 0; i < actions.size(); ++i) {
    expects(actions.action(i).toString() == checkpoint.meta.actionNames[i],
            "checkpoint '" + source + "': action " + std::to_string(i) +
                " is now '" + actions.action(i).toString() + "' but was saved as '" +
                checkpoint.meta.actionNames[i] +
                "' — the action catalogue drifted between builds");
  }
  auto manager = std::make_unique<ThermalManager>(configOf(checkpoint.meta),
                                                  std::move(actions));
  manager->restoreFromCheckpoint(checkpoint);
  return manager;
}

std::unique_ptr<ThermalManager> loadManagerFromCheckpoint(const std::string& path) {
  const store::PolicyCheckpoint checkpoint = store::loadPolicyCheckpoint(path);
  auto manager = managerFromCheckpoint(checkpoint, path);
  emitCheckpointEvent("store.checkpoint.load", path,
                      store::fingerprintOf(checkpoint.meta),
                      manager->epochCount(), manager->qTable().coverage(),
                      manager->epochLog().empty() ? 0.0
                                                  : manager->epochLog().back().time);
  return manager;
}

ThermalManager* checkpointTarget(ThermalPolicy& policy) noexcept {
  if (auto* manager = dynamic_cast<ThermalManager*>(&policy)) return manager;
  if (auto* supervisor = dynamic_cast<SafetySupervisor*>(&policy)) {
    return dynamic_cast<ThermalManager*>(&supervisor->inner());
  }
  return nullptr;
}

const ThermalManager* checkpointTarget(const ThermalPolicy& policy) noexcept {
  if (const auto* manager = dynamic_cast<const ThermalManager*>(&policy)) {
    return manager;
  }
  if (const auto* supervisor = dynamic_cast<const SafetySupervisor*>(&policy)) {
    return dynamic_cast<const ThermalManager*>(&supervisor->inner());
  }
  return nullptr;
}

void resumePolicyFromCheckpoint(ThermalPolicy& policy, const std::string& path) {
  ThermalManager* manager = checkpointTarget(policy);
  expects(manager != nullptr,
          "cannot resume from '" + path + "': policy '" + policy.name() +
              "' carries no ThermalManager learning state");
  manager->loadCheckpoint(path);
}

void savePolicyCheckpointOf(const ThermalPolicy& policy, const std::string& path) {
  const ThermalManager* manager = checkpointTarget(policy);
  expects(manager != nullptr,
          "cannot save checkpoint '" + path + "': policy '" + policy.name() +
              "' carries no ThermalManager learning state");
  manager->saveCheckpoint(path);
}

}  // namespace rltherm::core
