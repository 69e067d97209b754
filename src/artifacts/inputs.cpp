#include "artifacts/inputs.hpp"

#include "base/expect.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

/// Fetch-or-compute through the store: a hit deserializes the cold run's
/// result, a miss (of any kind — absent, truncated, tampered, stale
/// salt) runs the experiment and writes back. A blob that unseals but
/// fails the result walk is also just a miss.
template <typename T, typename Run>
T cached_result(ResultStore* store, std::uint64_t key, const Run& run) {
  if (store != nullptr) {
    if (auto payload = store->get(key)) {
      try {
        return decode_result<T>(std::move(*payload));
      } catch (const capsule::CapsuleError&) {
        // Walk-shape mismatch after a clean unseal: recompute below.
      }
    }
  }
  T result = run();
  if (store != nullptr) {
    store->put(key, encode_result(result));
  }
  return result;
}

}  // namespace

Inputs::Inputs(bool quick, const std::string& cache_dir)
    : quick_(quick),
      study_config_(quick ? core::presets::quick_study()
                          : core::presets::bench_study()),
      transition_config_(quick ? core::presets::quick_transition()
                               : core::presets::bench_transition()) {
  if (!cache_dir.empty()) {
    store_ = std::make_unique<ResultStore>(cache_dir);
  }
}

const core::StudyResult& Inputs::study() {
  std::call_once(study_once_, [this] {
    study_ = cached_result<core::StudyResult>(
        store_.get(), study_cache_key(study_config_), [this] {
          ++study_runs_;
          return core::run_default_study(study_config_);
        });
  });
  return *study_;
}

const std::vector<core::AnalyzedSample>& Inputs::samples() {
  std::call_once(samples_once_,
                 [this] { samples_ = study().all_samples(); });
  return *samples_;
}

const std::vector<core::AnalyzedSample>& Inputs::samples_with_pc() {
  std::call_once(samples_with_pc_once_, [this] {
    samples_with_pc_ = core::with_defined_pc(samples());
  });
  return *samples_with_pc_;
}

const std::vector<core::MedianModel>& Inputs::models() {
  std::call_once(models_once_,
                 [this] { models_ = core::fit_all_models(samples()); });
  return *models_;
}

const core::MedianModel& Inputs::model(core::SystemMeasure measure,
                                       core::Regressor regressor) {
  for (const core::MedianModel& model : models()) {
    if (model.measure == measure && model.regressor == regressor) {
      return model;
    }
  }
  REPRO_EXPECT(false, "no fitted model for the requested measure/regressor");
}

const core::TransitionResult& Inputs::transition() {
  std::call_once(transition_once_, [this] {
    transition_ = cached_result<core::TransitionResult>(
        store_.get(), transition_cache_key(transition_config_), [this] {
          ++transition_runs_;
          return core::run_transition_study(
              workload::high_concurrency_mix(), transition_config_,
              instr::TriggerMode::kTransitionFromFull);
        });
  });
  return *transition_;
}

const core::RunResult& Inputs::run(const core::RunSpec& spec) {
  const std::uint64_t key = core::run_key(spec);
  RunSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(runs_mutex_);
    slot = &runs_[key];  // Node-based: the slot never moves.
  }
  std::call_once(slot->once, [this, slot, &spec] {
    slot->result = core::run(spec);
    ++private_runs_;
  });
  return *slot->result;
}

const core::StudyResult* Inputs::study_for_report() {
  // Through the study's own flag. A miss throws out of call_once, which
  // leaves the flag unset, so a later study() still runs the study.
  try {
    std::call_once(study_once_, [this] {
      std::optional<std::vector<std::uint8_t>> payload;
      if (store_ != nullptr) {
        payload = store_->get(study_cache_key(study_config_));
      }
      if (!payload) {
        throw capsule::CapsuleError("study neither run nor cached");
      }
      study_ = decode_result<core::StudyResult>(std::move(*payload));
    });
  } catch (const capsule::CapsuleError&) {
    return nullptr;
  }
  return &*study_;
}

}  // namespace repro::artifacts
