#include "artifacts/inputs.hpp"

#include <algorithm>

#include "base/expect.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

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

std::vector<core::RunSpec> Inputs::study_specs() const {
  return core::study_specs(workload::session_presets(), study_config_);
}

core::RunSpec Inputs::transition_run() const {
  return core::transition_spec(workload::high_concurrency_mix(),
                               transition_config_);
}

const core::StudyResult& Inputs::study() {
  return study_.get([this] {
    return core::fold_study(
        workload::session_presets(),
        core::run_all(study_specs(), core::resolve_threads(study_config_),
                      [this](const core::RunSpec& spec) { return run(spec); }));
  });
}

const std::vector<core::AnalyzedSample>& Inputs::samples() {
  return samples_.get([this] { return study().all_samples(); });
}

const std::vector<core::AnalyzedSample>& Inputs::samples_with_pc() {
  return samples_with_pc_.get(
      [this] { return core::with_defined_pc(samples()); });
}

const std::vector<core::MedianModel>& Inputs::models() {
  return models_.get([this] { return core::fit_all_models(samples()); });
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
  return transition_.get(
      [this] { return core::fold_transition(run(transition_run())); });
}

const core::RunResult& Inputs::run(const core::RunSpec& spec) {
  return memo(spec, /*simulate=*/true);
}

const core::RunResult& Inputs::memo(const core::RunSpec& spec,
                                    bool simulate) {
  const std::uint64_t key = core::run_key(spec);
  Memo<core::RunResult>* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(runs_mutex_);
    slot = &runs_[key];  // Node-based: the slot never moves.
  }
  // A throw leaves the slot empty, so a later run() still runs.
  return slot->get([this, &spec, key, simulate] {
    // Fetch-or-compute through the store, when one is open (only then is
    // the store key derived). A miss of any kind (absent, truncated,
    // tampered, stale salt, or a walk that fails after a clean unseal)
    // simulates the run and writes it back.
    const std::uint64_t stored = store_ ? run_cache_key(spec) : 0;
    if (auto payload = store_ ? store_->get(stored) : std::nullopt) {
      try {
        return decode_result<core::RunResult>(std::move(*payload));
      } catch (const capsule::CapsuleError&) {
      }
    }
    if (!simulate) {
      throw capsule::CapsuleError("run neither memoized nor stored");
    }
    core::RunResult result = core::run(spec);
    count_simulated(key);
    if (store_) {
      store_->put(stored, encode_result(result));
    }
    return result;
  });
}

void Inputs::count_simulated(std::uint64_t key) {
  const auto is = [key](const core::RunSpec& spec) {
    return core::run_key(spec) == key;
  };
  const std::vector<core::RunSpec> study = study_specs();
  if (is(transition_run())) {
    transition_runs_ = 1;
  } else if (std::any_of(study.begin(), study.end(), is)) {
    study_runs_ = 1;
  } else {
    ++private_runs_;
  }
}

const core::StudyResult* Inputs::study_for_report() {
  // With every study run memoized or stored, study() folds without
  // simulating.
  try {
    for (const core::RunSpec& spec : study_specs()) {
      (void)memo(spec, /*simulate=*/false);
    }
  } catch (const capsule::CapsuleError&) {
    return nullptr;
  }
  return &study();
}

}  // namespace repro::artifacts
