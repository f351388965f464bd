#include "store/policy_checkpoint.hpp"

#include <string>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/strict_file.hpp"

namespace rltherm::store {

namespace {

/// Fixed per-element byte widths used to bound vector counts BEFORE any
/// allocation: a bit-flipped count must fail the bound check, not an alloc.
constexpr std::size_t kF64Bytes = 8;
constexpr std::size_t kU64Bytes = 8;
// 6 f64 + 2 u64 (eight 8-byte fields) + phase u8 + two bool bytes.
constexpr std::size_t kEpochRecordBytes = 8 * 8 + 1 + 1 + 1;

/// The canonical fingerprint encoding: every field that changes what a
/// learned Q entry MEANS, in a fixed order. Extending this list is a format
/// change — bump kFormatVersion if the order or the set ever shifts.
void writeFingerprintFields(ByteWriter& out, const PolicyMeta& meta) {
  out.str(meta.actionSpec);
  out.u64(static_cast<std::uint64_t>(meta.actionNames.size()));
  for (const std::string& name : meta.actionNames) out.str(name);
  out.u64(meta.stressBins);
  out.u64(meta.agingBins);
  out.f64(meta.stressRangeLo);
  out.f64(meta.stressRangeHi);
  out.f64(meta.agingRangeHi);
  out.f64(meta.gamma);
  out.f64(meta.optimisticInit);
  out.boolean(meta.scaleExplorationToActions);
  out.f64(meta.lrInitialAlpha);
  out.f64(meta.lrDecay);
  out.f64(meta.lrMinAlpha);
  out.f64(meta.lrExplorationThreshold);
  out.f64(meta.lrExploitationThreshold);
  out.f64(meta.rewardGaussianMean);
  out.f64(meta.rewardGaussianSigma);
  out.f64(meta.rewardImportanceHigh);
  out.f64(meta.rewardImportanceLow);
  out.f64(meta.rewardUnsafePenaltyScale);
  out.f64(meta.rewardSafetyCenter);
  out.f64(meta.rewardPerformanceWeight);
  out.boolean(meta.rewardGaussianWeights);
  out.u64(meta.movingAverageWindow);
  out.f64(meta.intraThresholdAging);
  out.f64(meta.interThresholdAging);
  out.f64(meta.intraThresholdStress);
  out.f64(meta.interThresholdStress);
  out.boolean(meta.adaptationEnabled);
  // format v2: the health axis multiplies the state space and the
  // delivered-work weight reshapes the reward — both change Q meaning.
  out.u64(meta.healthStates);
  out.f64(meta.rewardDeliveredWorkWeight);
}

std::vector<std::uint8_t> encodeMeta(const PolicyMeta& meta) {
  ByteWriter out;
  writeFingerprintFields(out, meta);
  // Non-fingerprinted tail: timing knobs + seed, restored on load.
  out.f64(meta.samplingInterval);
  out.f64(meta.decisionEpoch);
  out.boolean(meta.adaptiveSampling);
  out.f64(meta.minSamplingInterval);
  out.f64(meta.maxSamplingInterval);
  out.f64(meta.autocorrStretchAbove);
  out.f64(meta.autocorrShrinkBelow);
  out.f64(meta.plausibleFloor);
  out.f64(meta.decisionOverhead);
  out.u64(meta.seed);
  out.boolean(meta.eventTriggeredEpochs);
  return out.take();
}

PolicyMeta decodeMeta(ByteReader& in) {
  PolicyMeta meta;
  meta.actionSpec = in.str(kMaxStringBytes, "action spec");
  const std::uint64_t nameCount = in.u64("action name count");
  if (nameCount == 0) in.fail("action space has zero actions");
  if (nameCount > in.remaining()) {
    in.fail("action name count " + std::to_string(nameCount) +
            " exceeds the section size");
  }
  meta.actionNames.reserve(static_cast<std::size_t>(nameCount));
  for (std::uint64_t i = 0; i < nameCount; ++i) {
    meta.actionNames.push_back(in.str(kMaxStringBytes, "action name"));
  }
  meta.stressBins = in.u64("stress bins");
  meta.agingBins = in.u64("aging bins");
  if (meta.stressBins == 0 || meta.agingBins == 0) {
    in.fail("discretizer bins must be >= 1");
  }
  meta.stressRangeLo = in.f64("stress range lo");
  meta.stressRangeHi = in.f64("stress range hi");
  meta.agingRangeHi = in.f64("aging range hi");
  meta.gamma = in.f64("gamma");
  meta.optimisticInit = in.f64("optimistic init");
  meta.scaleExplorationToActions = in.boolean("scaleExplorationToActions");
  meta.lrInitialAlpha = in.f64("lr initialAlpha");
  meta.lrDecay = in.f64("lr decay");
  meta.lrMinAlpha = in.f64("lr minAlpha");
  meta.lrExplorationThreshold = in.f64("lr explorationThreshold");
  meta.lrExploitationThreshold = in.f64("lr exploitationThreshold");
  meta.rewardGaussianMean = in.f64("reward gaussianMean");
  meta.rewardGaussianSigma = in.f64("reward gaussianSigma");
  meta.rewardImportanceHigh = in.f64("reward importanceHigh");
  meta.rewardImportanceLow = in.f64("reward importanceLow");
  meta.rewardUnsafePenaltyScale = in.f64("reward unsafePenaltyScale");
  meta.rewardSafetyCenter = in.f64("reward safetyCenter");
  meta.rewardPerformanceWeight = in.f64("reward performanceWeight");
  meta.rewardGaussianWeights = in.boolean("reward gaussianWeights");
  meta.movingAverageWindow = in.u64("moving-average window");
  if (meta.movingAverageWindow == 0) in.fail("moving-average window must be >= 1");
  meta.intraThresholdAging = in.f64("intraThresholdAging");
  meta.interThresholdAging = in.f64("interThresholdAging");
  meta.intraThresholdStress = in.f64("intraThresholdStress");
  meta.interThresholdStress = in.f64("interThresholdStress");
  meta.adaptationEnabled = in.boolean("adaptationEnabled");
  meta.healthStates = in.u64("health states");
  if (meta.healthStates == 0) in.fail("health states must be >= 1");
  meta.rewardDeliveredWorkWeight = in.f64("reward deliveredWorkWeight");
  meta.samplingInterval = in.f64("samplingInterval");
  meta.decisionEpoch = in.f64("decisionEpoch");
  meta.adaptiveSampling = in.boolean("adaptiveSampling");
  meta.minSamplingInterval = in.f64("minSamplingInterval");
  meta.maxSamplingInterval = in.f64("maxSamplingInterval");
  meta.autocorrStretchAbove = in.f64("autocorrStretchAbove");
  meta.autocorrShrinkBelow = in.f64("autocorrShrinkBelow");
  meta.plausibleFloor = in.f64("plausibleFloor");
  meta.decisionOverhead = in.f64("decisionOverhead");
  meta.seed = in.u64("seed");
  meta.eventTriggeredEpochs = in.boolean("eventTriggeredEpochs");
  in.expectEnd("the meta section");
  return meta;
}

void writeDoubleVec(ByteWriter& out, const std::vector<double>& values) {
  out.u64(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) out.f64(v);
}

std::vector<double> readDoubleVec(ByteReader& in, const char* what) {
  const std::uint64_t count = in.u64(what);
  if (count > in.remaining() / kF64Bytes) {
    in.fail(std::string(what) + " count " + std::to_string(count) +
            " exceeds the section size");
  }
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(in.f64(what));
  return values;
}

std::vector<std::uint64_t> readU64Vec(ByteReader& in, const char* what) {
  const std::uint64_t count = in.u64(what);
  if (count > in.remaining() / kU64Bytes) {
    in.fail(std::string(what) + " count " + std::to_string(count) +
            " exceeds the section size");
  }
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(in.u64(what));
  return values;
}

void writeMovingAverage(ByteWriter& out, const MovingAverageData& ma) {
  writeDoubleVec(out, ma.samples);
  out.f64(ma.sum);
}

MovingAverageData readMovingAverage(ByteReader& in, std::uint64_t window,
                                    const char* what) {
  MovingAverageData ma;
  ma.samples = readDoubleVec(in, what);
  if (ma.samples.size() > window) {
    in.fail(std::string(what) + " holds " + std::to_string(ma.samples.size()) +
            " samples, more than the window of " + std::to_string(window));
  }
  ma.sum = in.f64(what);
  return ma;
}

void writeOnlineStats(ByteWriter& out, const OnlineStatsData& stats) {
  out.u64(stats.count);
  out.f64(stats.mean);
  out.f64(stats.m2);
  out.f64(stats.min);
  out.f64(stats.max);
}

OnlineStatsData readOnlineStats(ByteReader& in, const char* what) {
  OnlineStatsData stats;
  stats.count = in.u64(what);
  stats.mean = in.f64(what);
  stats.m2 = in.f64(what);
  stats.min = in.f64(what);
  stats.max = in.f64(what);
  return stats;
}

}  // namespace

const char* sectionName(std::uint32_t id) noexcept {
  switch (id) {
    case kSectionMeta: return "meta";
    case kSectionQTable: return "qtable";
    case kSectionQExp: return "qexp";
    case kSectionSchedule: return "schedule";
    case kSectionRng: return "rng";
    case kSectionSampling: return "sampling";
    case kSectionDetect: return "detect";
    case kSectionEpochLog: return "epochlog";
    case kSectionSmdp: return "smdp";
    default: return "?";
  }
}

std::uint64_t fingerprintOf(const PolicyMeta& meta) {
  ByteWriter out;
  writeFingerprintFields(out, meta);
  Fnv1a hash;
  hash.bytes(out.bytes().data(), out.bytes().size());
  return hash.value();
}

CheckpointImage encodePolicyCheckpoint(const PolicyCheckpoint& checkpoint) {
  CheckpointImage image;
  image.fingerprint = fingerprintOf(checkpoint.meta);

  image.sections.push_back({kSectionMeta, encodeMeta(checkpoint.meta)});

  {
    ByteWriter out;
    writeDoubleVec(out, checkpoint.qValues);
    out.u64(static_cast<std::uint64_t>(checkpoint.qVisits.size()));
    for (const std::uint64_t v : checkpoint.qVisits) out.u64(v);
    out.u64(static_cast<std::uint64_t>(checkpoint.qTouched.size()));
    for (const std::uint8_t t : checkpoint.qTouched) out.u8(t);
    image.sections.push_back({kSectionQTable, out.take()});
  }

  {
    ByteWriter out;
    out.boolean(checkpoint.hasQExp);
    writeDoubleVec(out, checkpoint.qExp);
    image.sections.push_back({kSectionQExp, out.take()});
  }

  {
    ByteWriter out;
    out.u64(checkpoint.scheduleStep);
    image.sections.push_back({kSectionSchedule, out.take()});
  }

  {
    ByteWriter out;
    for (const std::uint64_t lane : checkpoint.rng.lanes) out.u64(lane);
    out.f64(checkpoint.rng.cachedGaussian);
    out.boolean(checkpoint.rng.hasCachedGaussian);
    image.sections.push_back({kSectionRng, out.take()});
  }

  {
    ByteWriter out;
    out.f64(checkpoint.currentSamplingInterval);
    out.u64(checkpoint.samplesPerEpoch);
    image.sections.push_back({kSectionSampling, out.take()});
  }

  {
    ByteWriter out;
    writeMovingAverage(out, checkpoint.stressMa);
    writeMovingAverage(out, checkpoint.agingMa);
    out.boolean(checkpoint.hasPrevStressMa);
    out.f64(checkpoint.prevStressMa);
    out.boolean(checkpoint.hasPrevAgingMa);
    out.f64(checkpoint.prevAgingMa);
    writeOnlineStats(out, checkpoint.stressHistory);
    writeOnlineStats(out, checkpoint.agingHistory);
    out.boolean(checkpoint.hasPrevState);
    out.u64(checkpoint.prevState);
    out.u64(checkpoint.prevAction);
    out.boolean(checkpoint.havePrevAction);
    out.u64(checkpoint.stableEpochs);
    out.boolean(checkpoint.frozen);
    out.u64(checkpoint.interDetections);
    out.u64(checkpoint.intraDetections);
    image.sections.push_back({kSectionDetect, out.take()});
  }

  {
    ByteWriter out;
    out.u64(static_cast<std::uint64_t>(checkpoint.epochLog.size()));
    for (const EpochRecordData& record : checkpoint.epochLog) {
      out.f64(record.time);
      out.u64(record.state);
      out.u64(record.action);
      out.f64(record.stress);
      out.f64(record.aging);
      out.f64(record.reward);
      out.f64(record.alpha);
      out.u8(record.phase);
      out.f64(record.qCoverage);
      out.boolean(record.intraDetected);
      out.boolean(record.interDetected);
    }
    image.sections.push_back({kSectionEpochLog, out.take()});
  }

  {
    ByteWriter out;
    out.f64(checkpoint.smdpLastEpochTime);
    out.boolean(checkpoint.smdpEventPending);
    image.sections.push_back({kSectionSmdp, out.take()});
  }

  return image;
}

PolicyCheckpoint decodePolicyCheckpoint(const CheckpointImage& image,
                                        const std::string& source) {
  // Absolute payload offsets so per-section readers report file positions.
  std::vector<std::uint64_t> payloadOffsets;
  {
    std::uint64_t offset = 24;  // file header
    for (const CheckpointSection& section : image.sections) {
      payloadOffsets.push_back(offset + 16);  // section header
      offset += 16 + static_cast<std::uint64_t>(section.payload.size());
    }
  }

  const auto sectionReader = [&](std::uint32_t id) {
    for (std::size_t i = 0; i < image.sections.size(); ++i) {
      if (image.sections[i].id == id) {
        return ByteReader(image.sections[i].payload.data(),
                          image.sections[i].payload.size(), source,
                          payloadOffsets[i]);
      }
    }
    failParse(source, 0,
              std::string("missing required checkpoint section '") + sectionName(id) +
                  "' (id " + std::to_string(id) + ")");
  };

  for (const CheckpointSection& section : image.sections) {
    if (section.id < kSectionMeta || section.id > kSectionSmdp) {
      failParse(source, 0,
                "unknown checkpoint section id " + std::to_string(section.id) +
                    " — file corrupt or written by a newer build");
    }
  }

  PolicyCheckpoint checkpoint;

  {
    ByteReader in = sectionReader(kSectionMeta);
    checkpoint.meta = decodeMeta(in);
  }
  const std::uint64_t expectedFingerprint = fingerprintOf(checkpoint.meta);
  if (image.fingerprint != expectedFingerprint) {
    failParse(source, 0,
              "header fingerprint " + std::to_string(image.fingerprint) +
                  " does not match the meta section (" +
                  std::to_string(expectedFingerprint) + ") — file corrupt");
  }

  const std::uint64_t states = checkpoint.meta.stressBins * checkpoint.meta.agingBins *
                               checkpoint.meta.healthStates;
  const std::uint64_t actions =
      static_cast<std::uint64_t>(checkpoint.meta.actionNames.size());
  const std::uint64_t entries = states * actions;

  {
    ByteReader in = sectionReader(kSectionQTable);
    checkpoint.qValues = readDoubleVec(in, "q values");
    if (checkpoint.qValues.size() != entries) {
      in.fail("q table has " + std::to_string(checkpoint.qValues.size()) +
              " entries, expected " + std::to_string(entries) + " (" +
              std::to_string(states) + " states x " + std::to_string(actions) +
              " actions)");
    }
    checkpoint.qVisits = readU64Vec(in, "q visits");
    if (checkpoint.qVisits.size() != states) {
      in.fail("q visit counts: " + std::to_string(checkpoint.qVisits.size()) +
              " entries, expected one per state (" + std::to_string(states) + ")");
    }
    const std::uint64_t touchedCount = in.u64("q touched count");
    if (touchedCount != entries) {
      in.fail("q touched mask: " + std::to_string(touchedCount) +
              " entries, expected " + std::to_string(entries));
    }
    checkpoint.qTouched = in.bytes(static_cast<std::size_t>(touchedCount), "q touched");
    for (const std::uint8_t t : checkpoint.qTouched) {
      if (t > 1) in.fail("q touched mask holds a non-boolean byte");
    }
    in.expectEnd("the qtable section");
  }

  {
    ByteReader in = sectionReader(kSectionQExp);
    checkpoint.hasQExp = in.boolean("hasQExp");
    checkpoint.qExp = readDoubleVec(in, "q_exp values");
    const std::uint64_t expected = checkpoint.hasQExp ? entries : 0;
    if (checkpoint.qExp.size() != expected) {
      in.fail("q_exp snapshot has " + std::to_string(checkpoint.qExp.size()) +
              " entries, expected " + std::to_string(expected));
    }
    in.expectEnd("the qexp section");
  }

  {
    ByteReader in = sectionReader(kSectionSchedule);
    checkpoint.scheduleStep = in.u64("schedule step");
    in.expectEnd("the schedule section");
  }

  {
    ByteReader in = sectionReader(kSectionRng);
    for (std::uint64_t& lane : checkpoint.rng.lanes) lane = in.u64("rng lane");
    checkpoint.rng.cachedGaussian = in.f64("rng cached gaussian");
    checkpoint.rng.hasCachedGaussian = in.boolean("rng hasCachedGaussian");
    in.expectEnd("the rng section");
  }

  {
    ByteReader in = sectionReader(kSectionSampling);
    checkpoint.currentSamplingInterval = in.f64("current sampling interval");
    checkpoint.samplesPerEpoch = in.u64("samples per epoch");
    if (checkpoint.samplesPerEpoch == 0) in.fail("samples per epoch must be >= 1");
    in.expectEnd("the sampling section");
  }

  {
    ByteReader in = sectionReader(kSectionDetect);
    checkpoint.stressMa =
        readMovingAverage(in, checkpoint.meta.movingAverageWindow, "stress MA");
    checkpoint.agingMa =
        readMovingAverage(in, checkpoint.meta.movingAverageWindow, "aging MA");
    checkpoint.hasPrevStressMa = in.boolean("hasPrevStressMa");
    checkpoint.prevStressMa = in.f64("prevStressMa");
    checkpoint.hasPrevAgingMa = in.boolean("hasPrevAgingMa");
    checkpoint.prevAgingMa = in.f64("prevAgingMa");
    checkpoint.stressHistory = readOnlineStats(in, "stress history");
    checkpoint.agingHistory = readOnlineStats(in, "aging history");
    checkpoint.hasPrevState = in.boolean("hasPrevState");
    checkpoint.prevState = in.u64("prevState");
    if (checkpoint.hasPrevState && checkpoint.prevState >= states) {
      in.fail("prevState " + std::to_string(checkpoint.prevState) +
              " is out of range for " + std::to_string(states) + " states");
    }
    checkpoint.prevAction = in.u64("prevAction");
    checkpoint.havePrevAction = in.boolean("havePrevAction");
    if (checkpoint.havePrevAction && checkpoint.prevAction >= actions) {
      in.fail("prevAction " + std::to_string(checkpoint.prevAction) +
              " is out of range for " + std::to_string(actions) + " actions");
    }
    checkpoint.stableEpochs = in.u64("stableEpochs");
    checkpoint.frozen = in.boolean("frozen");
    checkpoint.interDetections = in.u64("interDetections");
    checkpoint.intraDetections = in.u64("intraDetections");
    in.expectEnd("the detect section");
  }

  {
    ByteReader in = sectionReader(kSectionEpochLog);
    const std::uint64_t count = in.u64("epoch record count");
    if (count > in.remaining() / kEpochRecordBytes) {
      in.fail("epoch record count " + std::to_string(count) +
              " exceeds the section size");
    }
    checkpoint.epochLog.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      EpochRecordData record;
      record.time = in.f64("epoch time");
      record.state = in.u64("epoch state");
      record.action = in.u64("epoch action");
      record.stress = in.f64("epoch stress");
      record.aging = in.f64("epoch aging");
      record.reward = in.f64("epoch reward");
      record.alpha = in.f64("epoch alpha");
      record.phase = in.u8("epoch phase");
      if (record.phase > 2) {
        in.fail("epoch phase byte " + std::to_string(record.phase) +
                " is not a valid learning phase (0..2)");
      }
      record.qCoverage = in.f64("epoch q coverage");
      record.intraDetected = in.boolean("epoch intraDetected");
      record.interDetected = in.boolean("epoch interDetected");
      if (record.state >= states) {
        in.fail("epoch record state " + std::to_string(record.state) +
                " is out of range for " + std::to_string(states) + " states");
      }
      if (record.action >= actions) {
        in.fail("epoch record action " + std::to_string(record.action) +
                " is out of range for " + std::to_string(actions) + " actions");
      }
      checkpoint.epochLog.push_back(record);
    }
    in.expectEnd("the epochlog section");
  }

  {
    ByteReader in = sectionReader(kSectionSmdp);
    checkpoint.smdpLastEpochTime = in.f64("smdp last epoch time");
    checkpoint.smdpEventPending = in.boolean("smdp event pending");
    in.expectEnd("the smdp section");
  }

  return checkpoint;
}

void savePolicyCheckpoint(const std::string& path, const PolicyCheckpoint& checkpoint) {
  writeCheckpointFile(path, encodePolicyCheckpoint(checkpoint));
}

PolicyCheckpoint loadPolicyCheckpoint(const std::string& path) {
  return decodePolicyCheckpoint(readCheckpointFile(path), path);
}

std::vector<std::uint8_t> serializePolicyCheckpoint(const PolicyCheckpoint& checkpoint) {
  return encodeImage(encodePolicyCheckpoint(checkpoint));
}

PolicyCheckpoint loadPolicyCheckpointFromBuffer(const std::vector<std::uint8_t>& bytes,
                                                const std::string& source) {
  expects(bytes.size() <= kMaxCheckpointBytes,
          "checkpoint buffer '" + source + "' exceeds the " +
              std::to_string(kMaxCheckpointBytes) + "-byte cap");
  return decodePolicyCheckpoint(decodeImage(bytes, source), source);
}

}  // namespace rltherm::store
