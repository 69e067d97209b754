#include "fx8/cluster.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"

namespace repro::fx8 {

namespace {

double hash_frac(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Index of the lowest set bit of a nonzero mask.
std::uint32_t lowest_bit(std::uint32_t mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

std::vector<CeId> make_order(ServicePolicy policy, std::uint32_t n) {
  std::vector<CeId> order;
  if (policy == ServicePolicy::kOuterFirst && n == kMaxCes) {
    order = {0, 7, 6, 3, 4, 2, 5, 1};
    return order;
  }
  // kAscending, kRotating, and narrow clusters start from 0..n-1;
  // kRotating applies its rotation at tick time.
  for (CeId c = 0; c < n; ++c) {
    order.push_back(c);
  }
  return order;
}

/// Bytes a kernel instance's streaming cursor advances per execution
/// (loads walk the stream; RMW stores revisit the last load).
std::uint64_t stream_bytes_per_instance(const isa::KernelSpec& k) {
  std::uint64_t accesses =
      static_cast<std::uint64_t>(k.steps) * k.loads_per_step;
  if (k.loads_per_step == 0) {
    accesses = static_cast<std::uint64_t>(k.steps) * k.stores_per_step;
  }
  return accesses * k.stride_bytes;
}

/// A loaded phase index must name one of its program's phases.
void check_phase_index(const std::optional<isa::Program>& program,
                       std::size_t phase_idx) {
  if (program && phase_idx >= program->phases.size()) {
    throw capsule::CapsuleError("capsule: phase index past the program");
  }
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config, cache::SharedCache& cache,
                 Mmu& mmu, CeHot& lanes, std::uint64_t& events,
                 const Cycle& now, CeId ce_base)
    : config_(config), ce_base_(ce_base),
      crossbar_(cache.config().banks),
      base_order_(make_order(config.policy, config.n_ces)),
      ce_hot_(lanes), events_(events), clock_(now) {
  REPRO_EXPECT(config.n_ces >= 1 && config.n_ces <= kMaxCes,
               "cluster width must be 1..8");
  REPRO_EXPECT(config.detached_ces < config.n_ces,
               "at least one CE must remain in the cluster");
  REPRO_EXPECT(ce_base + config.n_ces <= kMaxTopologyCes,
               "cluster CE ids exceed the LaneMask range");
  // Detached CEs (the highest ids) never take cluster work: drop them
  // from the service order.
  std::erase_if(base_order_,
                [&](CeId c) { return c >= cluster_width(); });
  ces_.reserve(config.n_ces);
  for (CeId c = 0; c < config.n_ces; ++c) {
    ces_.emplace_back(ce_base + c, ce_hot_, cache, crossbar_, mmu,
                      config.icache_bytes);
    lanes_mask_ |= LaneMask{1} << (ce_base + c);
  }
  service_count_ = static_cast<std::uint32_t>(base_order_.size());
  std::copy(base_order_.begin(), base_order_.end(), service_order_.begin());
  for (std::uint32_t slot = 0; slot < config.detached_ces; ++slot) {
    service_order_[service_count_ + slot] = detached_ce(slot);
  }
  for (std::uint32_t i = 0; i < config.n_ces; ++i) {
    service_pos_[service_order_[i]] = static_cast<std::uint8_t>(i);
  }
  rotating_ = config.policy == ServicePolicy::kRotating;
  for (std::uint32_t local = 0; local < fixed_positions_.size(); ++local) {
    std::uint32_t positions = 0;
    for (std::uint32_t m = local & ((1u << config.n_ces) - 1); m != 0;
         m &= m - 1) {
      positions |= 1u << service_pos_[lowest_bit(m)];
    }
    fixed_positions_[local] = static_cast<std::uint8_t>(positions);
  }
  for (const CeId c : base_order_) {
    service_lane_mask_ |= LaneMask{1} << (ce_base + c);
  }
}

void Cluster::refresh_service_order() {
  // Non-rotating policies keep the constructor's copy; only kRotating
  // re-derives the order, once per cycle instead of once per CE visit.
  if (config_.policy != ServicePolicy::kRotating || service_count_ == 0) {
    return;
  }
  const auto rot = static_cast<std::uint32_t>(clock_ % service_count_);
  for (std::uint32_t i = 0; i < service_count_; ++i) {
    const CeId c = base_order_[(i + rot) % service_count_];
    service_order_[i] = c;
    service_pos_[c] = static_cast<std::uint8_t>(i);
  }
}

std::uint32_t Cluster::service_positions(std::uint32_t lanes) const {
  if (!rotating_) {
    return fixed_positions_[lanes];
  }
  std::uint32_t positions = 0;
  for (; lanes != 0; lanes &= lanes - 1) {
    positions |= 1u << service_pos_[lowest_bit(lanes)];
  }
  return positions;
}

CeId Cluster::detached_ce(std::uint32_t slot) const {
  REPRO_EXPECT(slot < config_.detached_ces, "detached slot out of range");
  return config_.n_ces - 1 - slot;
}

bool Cluster::detached_busy(std::uint32_t slot) const {
  REPRO_EXPECT(slot < config_.detached_ces, "detached slot out of range");
  return detached_[slot].program.has_value();
}

void Cluster::load_detached(std::uint32_t slot, isa::Program program,
                            JobId job) {
  REPRO_EXPECT(!detached_busy(slot), "detached slot already has a job");
  program.validate();
  REPRO_EXPECT(!program.has_concurrency(),
               "detached processes are exclusively serial");
  detached_[slot] = DetachedJob{std::move(program), job, 0, 0};
  detached_live_ |= 1u << slot;
  ++ce_hot_.active_changes;
}

void Cluster::run_detached(std::uint32_t slot) {
  DetachedJob& detached = detached_[slot];
  if (!detached.program) {
    return;
  }
  Ce& ce = ces_[detached_ce(slot)];
  if (ce.done()) {
    ce.take_completed();
    ++detached.reps_done;
    ++stats_.serial_reps_completed;
  }
  if (!ce.idle()) {
    return;
  }
  const auto& phase =
      std::get<isa::SerialPhase>(detached.program->phases[detached.phase_idx]);
  if (detached.reps_done >= phase.reps) {
    detached.reps_done = 0;
    ++detached.phase_idx;
    if (detached.phase_idx >= detached.program->phases.size()) {
      detached.program.reset();
      detached_live_ &= ~(1u << slot);
      ++stats_.jobs_completed;
      ++events_;
      ++ce_hot_.active_changes;
      return;
    }
  }
  const auto& current = std::get<isa::SerialPhase>(
      detached.program->phases[detached.phase_idx]);
  KernelInstance inst;
  inst.spec = current.body;
  inst.job = detached.job;
  inst.key = mix64(detached.program->seed ^
                   (static_cast<std::uint64_t>(detached.phase_idx) << 40) ^
                   (0xDE7AC4EDULL + detached.reps_done));
  inst.data_base = detached.program->data_base;
  inst.code_base = detached.program->data_base + 0x08000000ULL +
                   static_cast<Addr>(detached.phase_idx) * 0x100000ULL;
  inst.stream_start =
      detached.reps_done * stream_bytes_per_instance(current.body) %
      current.body.working_set_bytes;
  ces_[detached_ce(slot)].start(inst);
}

void Cluster::load(isa::Program program, JobId job) {
  REPRO_EXPECT(!busy(), "cluster already has a job loaded");
  program.validate();
  program_ = std::move(program);
  job_ = job;
  phase_idx_ = 0;
  serial_reps_done_ = 0;
  in_loop_ = false;
  in_serial_phase_ = false;
  worker_.fill(WorkerState::kNone);
  executing_ = 0;
  deps_waiting_ = 0;
  ++ce_hot_.active_changes;
  if (observer_) {
    observer_->on_job_start(job_, clock_);
  }
}

std::uint64_t Cluster::phase_key(std::uint64_t salt) const {
  return mix64(program_->seed ^ (static_cast<std::uint64_t>(phase_idx_) << 40) ^
               salt);
}

Addr Cluster::code_base_for_phase() const {
  // Code images live in a region disjoint from data, one slot per phase.
  return program_->data_base + 0x08000000ULL +
         static_cast<Addr>(phase_idx_) * 0x100000ULL;
}

void Cluster::serialize(capsule::Io& io) {
  const auto walk_program = [&io](isa::Program& p) { p.serialize(io); };
  crossbar_.serialize(io);
  ccb_.serialize(io);
  for (Ce& ce : ces_) {
    ce.serialize(io);
  }
  capsule::walk_optional(io, program_, walk_program);
  io.u64(job_);
  auto phase_idx = static_cast<std::uint64_t>(phase_idx_);
  io.u64(phase_idx);
  phase_idx_ = static_cast<std::size_t>(phase_idx);
  check_phase_index(program_, phase_idx_);
  io.u64(serial_reps_done_);
  io.u32_in(serial_ce_, 0, cluster_width() - 1);
  io.boolean(in_loop_);
  io.boolean(in_serial_phase_);
  for (WorkerState& worker : worker_) {
    io.enum32(worker, WorkerState::kExecuting);
  }
  if (io.loading()) {
    executing_ = 0;
    for (CeId c = 0; c < kMaxCes; ++c) {
      if (worker_[c] == WorkerState::kExecuting) {
        executing_ |= 1u << c;
      }
    }
  }
  for (std::uint64_t& iter : worker_iter_) {
    io.u64(iter);
  }
  if (io.loading()) {
    detached_live_ = 0;
  }
  for (std::uint32_t slot = 0; slot < config_.detached_ces; ++slot) {
    DetachedJob& detached = detached_[slot];
    capsule::walk_optional(io, detached.program, walk_program);
    if (io.loading() && detached.program) {
      if (detached.program->has_concurrency()) {
        throw capsule::CapsuleError(
            "capsule: detached program has a concurrent phase");
      }
      detached_live_ |= 1u << slot;
    }
    io.u64(detached.job);
    auto detached_phase = static_cast<std::uint64_t>(detached.phase_idx);
    io.u64(detached_phase);
    detached.phase_idx = static_cast<std::size_t>(detached_phase);
    check_phase_index(detached.program, detached.phase_idx);
    io.u64(detached.reps_done);
  }
  io.u64(stats_.jobs_completed);
  io.u64(stats_.loops_completed);
  io.u64(stats_.iterations_completed);
  io.u64(stats_.serial_reps_completed);
  io.u64(stats_.dependence_wait_cycles);
  io.u32(deps_waiting_);
  if (io.loading()) {
    check_loaded_workers();
    // Lane horizons do not travel: every loaded lane is exact at the
    // clock, which the owner's walk loaded first, and records its own
    // from its loaded state.
    for (Ce& ce : ces_) {
      ce.resync(clock_);
    }
  }
}

void Cluster::check_loaded_workers() const {
  // The loop flag says whether control may poll the CCB's loop. A worker
  // holding or awaiting an iteration names one of the CCB's loop, whose
  // completion bits control indexes with it, and only service lanes take
  // iterations. The waiter count gates the control scan and is what a
  // fast-forward jump books per cycle (skip()).
  if (in_loop_ != ccb_.loop_active()) {
    throw capsule::CapsuleError(
        "capsule: loop flag disagrees with the concurrency control bus");
  }
  std::uint32_t waiting = 0;
  for (CeId c = 0; c < kMaxCes; ++c) {
    if (worker_[c] == WorkerState::kNone) {
      continue;
    }
    if (c >= cluster_width() || worker_iter_[c] >= ccb_.trip_count()) {
      throw capsule::CapsuleError(
          "capsule: worker iteration outside the loop");
    }
    if (worker_[c] == WorkerState::kAwaitingDep) {
      ++waiting;
    }
  }
  if (waiting != deps_waiting_) {
    throw capsule::CapsuleError(
        "capsule: dependence-waiter count disagrees with the workers");
  }
}

void Cluster::finish_job() {
  if (observer_) {
    observer_->on_job_end(job_, clock_);
  }
  program_.reset();
  job_ = 0;
  ++stats_.jobs_completed;
  ++events_;
  ++ce_hot_.active_changes;
}

void Cluster::run_serial_phase(const isa::SerialPhase& phase) {
  if (!in_serial_phase_) {
    in_serial_phase_ = true;
    if (observer_) {
      observer_->on_serial_phase_start(
          job_, static_cast<std::uint32_t>(phase_idx_), clock_);
    }
  }
  Ce& ce = ces_[serial_ce_];
  if (ce.done()) {
    ce.take_completed();
    ++serial_reps_done_;
    ++stats_.serial_reps_completed;
  }
  if (!ce.idle()) {
    return;
  }
  if (serial_reps_done_ >= phase.reps) {
    serial_reps_done_ = 0;
    in_serial_phase_ = false;
    if (observer_) {
      observer_->on_serial_phase_end(
          job_, static_cast<std::uint32_t>(phase_idx_), clock_);
    }
    ++phase_idx_;
    if (phase_idx_ >= program_->phases.size()) {
      finish_job();
    }
    return;
  }
  KernelInstance inst;
  inst.spec = phase.body;
  inst.job = job_;
  inst.key = phase_key(0xABCD0000ULL + serial_reps_done_);
  inst.data_base = program_->data_base;
  inst.code_base = code_base_for_phase();
  inst.stream_start = serial_reps_done_ * stream_bytes_per_instance(phase.body);
  if (phase.body.working_set_bytes > 0) {
    inst.stream_start %= phase.body.working_set_bytes;
  }
  ce.start(inst);
}

bool Cluster::iteration_has_dependence(const isa::ConcurrentLoopPhase& loop,
                                       std::uint64_t iter) const {
  if (iter == 0 || loop.dependence_prob <= 0.0) {
    return false;
  }
  return hash_frac(mix64(phase_key(0xDE90000ULL) ^ iter)) <
         loop.dependence_prob;
}

void Cluster::start_iteration(CeId ce_id, const isa::ConcurrentLoopPhase& loop,
                              std::uint64_t iter) {
  if (observer_) {
    observer_->on_iteration_start(job_, iter, ce_id, clock_);
  }
  KernelInstance inst;
  inst.spec = loop.body;
  inst.job = job_;
  inst.key = phase_key(0x17E40000ULL) ^ mix64(iter);
  inst.data_base = program_->data_base;
  inst.code_base = code_base_for_phase();
  if (loop.shared_data) {
    // Cyclic element distribution: iteration i reads elements i, i+T,
    // i+2T... so concurrently executing iterations walk the same cache
    // lines together (paper §5.1's cross-CE locality).
    inst.stream_start =
        (iter * loop.body.stride_bytes) % loop.body.working_set_bytes;
    inst.stream_step_bytes = loop.trip_count * loop.body.stride_bytes;
  } else {
    inst.stream_start =
        mix64(inst.key ^ 0x0FF5E7ULL) % loop.body.working_set_bytes /
        loop.body.stride_bytes * loop.body.stride_bytes;
  }
  if (loop.long_path_prob > 0.0 &&
      hash_frac(mix64(inst.key ^ 0xA11CEULL)) < loop.long_path_prob) {
    inst.extra_steps = loop.long_path_extra_steps;
  }
  ces_[ce_id].start(inst);
}

void Cluster::run_concurrent_phase(const isa::ConcurrentLoopPhase& phase) {
  if (!in_loop_) {
    ccb_.start_loop(phase.trip_count, config_.dispatch, cluster_width());
    in_loop_ = true;
    ++ce_hot_.active_changes;
    worker_.fill(WorkerState::kNone);
    executing_ = 0;
    deps_waiting_ = 0;
    if (observer_) {
      observer_->on_loop_start(job_, static_cast<std::uint32_t>(phase_idx_),
                               phase.trip_count, clock_);
    }
  }

  // Service CEs in priority order: completions first so freed iterations
  // unblock dependants within the same cycle, then dependence releases,
  // then dispatch (one CCB grant per cycle). A lane still executing its
  // iteration (done bit clear) can need nothing from this scan: reap,
  // release, and dispatch all start from another worker state, and
  // servicing one lane never changes another lane's state. So the scan
  // walks only the other lanes, in service order.
  const auto done =
      static_cast<std::uint32_t>(ce_hot_.done_mask >> ce_base_);
  const auto service =
      static_cast<std::uint32_t>(service_lane_mask_ >> ce_base_);
  for (std::uint32_t positions =
           service_positions((~executing_ | done) & service);
       positions != 0; positions &= positions - 1) {
    const CeId c = service_order_[lowest_bit(positions)];
    const std::uint32_t bit = 1u << c;
    Ce& ce = ces_[c];
    if (worker_[c] == WorkerState::kExecuting && ce.done()) {
      ce.take_completed();
      ccb_.mark_complete(worker_iter_[c]);
      if (observer_) {
        observer_->on_iteration_end(job_, worker_iter_[c], c, clock_);
      }
      ++stats_.iterations_completed;
      worker_[c] = WorkerState::kNone;
      executing_ &= ~bit;
      ++ce_hot_.active_changes;
      if (ccb_.all_complete()) {
        serial_ce_ = c;  // Last finisher continues serially (Figure 2).
      }
    }
    if (worker_[c] == WorkerState::kAwaitingDep) {
      ++stats_.dependence_wait_cycles;
      if (ccb_.predecessor_complete(worker_iter_[c])) {
        start_iteration(c, phase, worker_iter_[c]);
        worker_[c] = WorkerState::kExecuting;
        executing_ |= bit;
        --deps_waiting_;
      }
    }
    if (worker_[c] == WorkerState::kNone && !ccb_.all_dispatched()) {
      if (const auto iter = ccb_.try_dispatch(c)) {
        worker_iter_[c] = *iter;
        ++ce_hot_.active_changes;
        if (iteration_has_dependence(phase, *iter) &&
            !ccb_.predecessor_complete(*iter)) {
          worker_[c] = WorkerState::kAwaitingDep;
          ++deps_waiting_;
        } else {
          start_iteration(c, phase, *iter);
          worker_[c] = WorkerState::kExecuting;
          executing_ |= bit;
        }
      }
    }
  }

  if (ccb_.all_complete()) {
    ccb_.end_loop();
    in_loop_ = false;
    ++ce_hot_.active_changes;
    ++stats_.loops_completed;
    if (observer_) {
      observer_->on_loop_end(job_, static_cast<std::uint32_t>(phase_idx_),
                             clock_);
    }
    ++phase_idx_;
    if (phase_idx_ >= program_->phases.size()) {
      finish_job();
    }
  }
}

void Cluster::advance_control() {
  if (!busy()) {
    return;
  }
  // Steady-state gate: mid-loop, with every iteration dispatched, nobody
  // awaiting a dependence, and no completion to reap, the concurrent
  // control scan provably does nothing — worker transitions only follow
  // a CE reaching kDone (tracked by the shared done mask), a dependence
  // release (only after a completion), or an undispatched iteration.
  if (in_loop_ && deps_waiting_ == 0 &&
      (ce_hot_.done_mask & service_lane_mask_) == 0 &&
      ccb_.all_dispatched()) {
    return;
  }
  const isa::Phase& phase = program_->phases[phase_idx_];
  if (const auto* serial = std::get_if<isa::SerialPhase>(&phase)) {
    run_serial_phase(*serial);
  } else {
    run_concurrent_phase(std::get<isa::ConcurrentLoopPhase>(phase));
  }
}

void Cluster::tick_control() {
  if (!lanes_live()) {
    // Idle cluster (reached only through the standalone tick();
    // Machine::tick_block leaves idle clusters out): control has
    // provably nothing to do, every lane is parked, and the crossbar
    // grant word is already clear (the last access any lane issued was
    // followed by a live-cluster cycle whose begin_cycle reset it before
    // the cluster could drain).
    return;
  }
  if (rotating_) {
    refresh_service_order();
  }
  crossbar_.begin_cycle();
  if (in_loop_) {
    ccb_.begin_cycle();
  }
  advance_control();
  if (detached_live_ != 0) {
    for (std::uint32_t slot = 0; slot < config_.detached_ces; ++slot) {
      run_detached(slot);
    }
  }
}

void Cluster::tick() {
  tick_control();
  tick_peel(lanes_mask_, clock_);
}

void Cluster::tick_peel(LaneMask lanes, Cycle now) {
  const auto local =
      static_cast<std::uint32_t>((lanes & lanes_mask_) >> ce_base_);
  // Step this cluster's selected lanes in service order (service lanes
  // first, then detached): the order crossbar and CCB ties resolve in.
  for (std::uint32_t positions = service_positions(local); positions != 0;
       positions &= positions - 1) {
    ces_[service_order_[lowest_bit(positions)]].step(now);
  }
}

void Cluster::catch_up(Cycle now) {
  for (Ce& ce : ces_) {
    ce.catch_up(now);
  }
}

bool Cluster::control_due() const {
  if (busy()) {
    const isa::Phase& phase = program_->phases[phase_idx_];
    if (std::holds_alternative<isa::SerialPhase>(phase)) {
      // Serial control acts at phase entry and whenever the continuation
      // CE drains; in between it only watches the CE execute.
      if (!in_serial_phase_) {
        return true;
      }
      const Ce& ce = ces_[serial_ce_];
      if (ce.done() || ce.idle()) {
        return true;
      }
    } else {
      if (!in_loop_) {
        return true;  // Loop entry (CCB start_loop) happens next tick.
      }
      for (CeId c = 0; c < cluster_width(); ++c) {
        switch (worker_[c]) {
          case WorkerState::kExecuting:
            if (ces_[c].done()) {
              return true;  // Completion to reap (and maybe a loop to end).
            }
            break;
          case WorkerState::kAwaitingDep:
            if (ccb_.predecessor_complete(worker_iter_[c])) {
              return true;  // Dependence released; the CE starts next tick.
            }
            break;
          case WorkerState::kNone:
            if (!ccb_.all_dispatched()) {
              return true;  // A CCB grant is due next tick.
            }
            break;
        }
      }
    }
  }
  if (detached_live_ != 0) {
    for (std::uint32_t slot = 0; slot < config_.detached_ces; ++slot) {
      if (!detached_[slot].program) {
        continue;
      }
      const Ce& ce = ces_[detached_ce(slot)];
      if (ce.done() || ce.idle()) {
        return true;  // Detached control reaps/starts a repetition.
      }
    }
  }
  return false;
}

void Cluster::skip(Cycle cycles) {
  // A quiet tick resets the per-cycle grant words, which the cycle before
  // the stretch may have spent (a bank, or an iteration that went to a
  // dependence wait and so stepped no lane), and bumps the
  // dependence-wait counter once per waiting CE; a quiet stretch cannot
  // release a dependence, so the waiter set is constant across it.
  crossbar_.begin_cycle();
  if (in_loop_) {
    ccb_.begin_cycle();
    if (busy()) {
      stats_.dependence_wait_cycles += std::uint64_t{deps_waiting_} * cycles;
    }
  }
}

std::uint32_t Cluster::active_mask() const {
  std::uint32_t mask = 0;
  // Detached processes show on the CCB probe as active processors even
  // though they are exclusively serial — the Figure-3 footnote's
  // measurement caveat.
  for (std::uint32_t slot = 0; slot < config_.detached_ces; ++slot) {
    if (detached_[slot].program) {
      mask |= 1u << detached_ce(slot);
    }
  }
  if (!busy()) {
    return mask;
  }
  if (in_loop_) {
    const bool contending = !ccb_.all_dispatched();
    for (CeId c = 0; c < cluster_width(); ++c) {
      if (worker_[c] != WorkerState::kNone || contending) {
        mask |= 1u << c;
      }
    }
    return mask;
  }
  return mask | (1u << serial_ce_);
}

std::uint32_t Cluster::active_count() const {
  return static_cast<std::uint32_t>(std::popcount(active_mask()));
}

mem::CeBusOp Cluster::ce_bus_op(CeId ce) const {
  REPRO_EXPECT(ce < config_.n_ces, "CE index out of range");
  return ces_[ce].bus_op();
}

const Ce& Cluster::ce(CeId id) const {
  REPRO_EXPECT(id < config_.n_ces, "CE index out of range");
  return ces_[id];
}

Ce& Cluster::ce(CeId id) {
  REPRO_EXPECT(id < config_.n_ces, "CE index out of range");
  return ces_[id];
}

}  // namespace repro::fx8
