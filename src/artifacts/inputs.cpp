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
  std::call_once(study_once_, [this] {
    study_ = core::fold_study(
        workload::session_presets(), study_config_,
        core::run_all(study_specs(), core::resolve_threads(study_config_),
                      [this](const core::RunSpec& spec) { return run(spec); }));
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
    transition_ = core::fold_transition(run(transition_run()));
  });
  return *transition_;
}

const core::RunResult& Inputs::run(const core::RunSpec& spec) {
  return memo(spec, /*simulate=*/true);
}

const core::RunResult& Inputs::memo(const core::RunSpec& spec,
                                    bool simulate) {
  const std::uint64_t key = core::run_key(spec);
  RunSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(runs_mutex_);
    slot = &runs_[key];  // Node-based: the slot never moves.
  }
  // A throw leaves the slot's flag unset, so a later run() still runs.
  std::call_once(slot->once, [this, slot, &spec, key, simulate] {
    // Fetch-or-compute through the store, when one is open (only then is
    // the store key derived). A miss of any kind (absent, truncated,
    // tampered, stale salt, or a walk that fails after a clean unseal)
    // simulates the run and writes it back.
    const std::uint64_t stored = store_ ? run_cache_key(spec) : 0;
    if (auto payload = store_ ? store_->get(stored) : std::nullopt) {
      try {
        slot->result = decode_result<core::RunResult>(std::move(*payload));
        return;
      } catch (const capsule::CapsuleError&) {
      }
    }
    if (!simulate) {
      throw capsule::CapsuleError("run neither memoized nor stored");
    }
    slot->result = core::run(spec);
    count_simulated(key);
    if (store_) {
      store_->put(stored, encode_result(*slot->result));
    }
  });
  return *slot->result;
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
