#include "fx8/ce.hpp"

#include "base/expect.hpp"
#include "base/rng.hpp"

namespace repro::fx8 {

namespace {
/// Map a hash to [0,1).
double hash_frac(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

Ce::Ce(CeId id, CeHot& lanes, cache::SharedCache& cache, Crossbar& crossbar,
       Mmu& mmu, std::uint64_t icache_bytes)
    : id_(id), lanes_(lanes), cache_(cache), crossbar_(crossbar), mmu_(mmu),
      icache_(icache_bytes) {
  REPRO_EXPECT(id < kMaxTopologyCes, "CE id out of LaneMask range");
}

void Ce::start(const KernelInstance& inst) {
  REPRO_EXPECT(idle(), "CE already has an instance loaded");
  inst_ = inst;
  set_phase(Phase::kStepSetup);
  lanes_.due[id_] = 0;  // Due at once: the machine steps it this cycle.
  resume_phase_ = Phase::kStepSetup;
  step_ = 0;
  total_steps_ = inst.spec.steps + inst.extra_steps;
  compute_left_ = 0;
  loads_left_ = 0;
  stores_left_ = 0;
  accesses_done_ = 0;
  const isa::KernelSpec& k = inst.spec;
  const std::uint64_t step_bytes =
      inst.stream_step_bytes == 0 ? k.stride_bytes : inst.stream_step_bytes;
  if (k.working_set_bytes > 0) {
    stream_cursor_ = inst.stream_start % k.working_set_bytes;
    stream_step_mod_ = step_bytes % k.working_set_bytes;
  } else {
    stream_cursor_ = 0;  // Kernel issues no streamed accesses.
    stream_step_mod_ = 0;
  }
  last_load_addr_ = 0;
  fault_left_ = 0;
  spill_frac_ = icache_.spill_fraction(k.code_bytes);
  pending_translated_ = false;
  pending_addr_ = 0;
}

void Ce::advance(Cycle cycles) {
  clock_ += cycles;
  switch (phase()) {
    case Phase::kCompute:
      set_bus_op(mem::CeBusOp::kIdle);
      compute_left_ -= static_cast<std::uint32_t>(cycles);
      stats_.busy_cycles += cycles;
      stats_.compute_cycles += cycles;
      break;
    case Phase::kMissWait:
      set_bus_op(mem::CeBusOp::kWait);
      stats_.busy_cycles += cycles;
      stats_.miss_wait_cycles += cycles;
      break;
    case Phase::kFaultWait:
      set_bus_op(mem::CeBusOp::kIdle);
      fault_left_ -= cycles;
      stats_.busy_cycles += cycles;
      stats_.fault_wait_cycles += cycles;
      break;
    default:
      return;
  }
  lanes_.op_cycles[static_cast<std::size_t>(lanes_.bus_op[id_])] += cycles;
}

void Ce::take_completed() {
  REPRO_EXPECT(done(), "CE has not completed its instance");
  set_phase(Phase::kIdle);
}

void Ce::serialize(capsule::Io& io) {
  // The spec is live from start() to take_completed(): exactly while the
  // CE is not idle.
  bool has_spec = !idle();
  io.boolean(has_spec);
  if (has_spec) {
    inst_.spec.serialize(io);
    if (io.loading()) {
      capsule::check_loaded(inst_.spec);
    }
  }
  io.u64(inst_.job);
  io.u64(inst_.key);
  io.u64(inst_.data_base);
  io.u64(inst_.code_base);
  io.u64(inst_.stream_start);
  io.u64(inst_.stream_step_bytes);
  io.u32(inst_.extra_steps);

  io.enum32(resume_phase_, CePhase::kDone);
  io.u32(step_);
  io.u32(total_steps_);
  io.u32(loads_left_);
  io.u32(stores_left_);
  io.u64(accesses_done_);
  io.u64(stream_cursor_);
  io.u64(stream_step_mod_);
  io.u64(last_load_addr_);
  io.f64(spill_frac_);
  io.boolean(pending_is_store_);
  io.boolean(pending_is_ifetch_);
  io.u64(pending_addr_);
  io.boolean(pending_translated_);

  io.u64(stats_.mem_accesses);
  io.u64(stats_.xbar_conflict_cycles);
  io.u64(stats_.instances_completed);

  // Phase goes through set_phase so the cluster's done_mask bit is
  // rebuilt on load.
  Phase p = phase();
  io.enum32(p, CePhase::kDone);
  if (io.loading()) {
    if (has_spec != (p != Phase::kIdle)) {
      throw capsule::CapsuleError(
          "capsule: CE spec flag disagrees with its phase");
    }
    set_phase(p);
  }
  io.enum32(lanes_.bus_op[id_], mem::CeBusOp::kWait);
  io.u32(compute_left_);
  io.u64(fault_left_);
  io.u64(stats_.busy_cycles);
  io.u64(stats_.compute_cycles);
  io.u64(stats_.miss_wait_cycles);
  io.u64(stats_.fault_wait_cycles);
}

void Ce::setup_step() {
  const isa::KernelSpec& k = inst_.spec;
  const std::uint64_t h =
      mix64(inst_.key + 0x9E3779B97F4A7C15ULL * (step_ + 1));
  std::uint32_t compute = k.compute_cycles;
  if (k.compute_jitter > 0) {
    compute = k.compute_cycles - k.compute_jitter +
              static_cast<std::uint32_t>(h % (2ULL * k.compute_jitter + 1));
  }
  // Vector steps sit at fixed positions in the compiled code, so the
  // decision hashes the phase's code image and step index — identical for
  // every iteration of a loop (iterations run the same instructions; only
  // data-dependent branching varies, modelled by extra_steps).
  if (k.vector_fraction > 0.0 &&
      hash_frac(mix64(inst_.code_base + 0x9E3779B97F4A7C15ULL * step_)) <
          k.vector_fraction) {
    compute += k.vector_cycles;
  }
  compute_left_ = compute;
  loads_left_ = k.loads_per_step;
  stores_left_ = k.stores_per_step;
}

Addr Ce::next_data_addr(bool is_store) {
  const isa::KernelSpec& k = inst_.spec;
  if (is_store && k.loads_per_step > 0) {
    // Stores are read-modify-write of the most recently loaded datum, so
    // they nearly always hit (possibly upgrading Shared -> Unique).
    return last_load_addr_;
  }
  const std::uint64_t idx = accesses_done_++;
  // The streaming offset equals (stream_start + idx*step) % working_set;
  // the cursor carries it incrementally (one add + conditional subtract),
  // and advances on every draw — the hot/cold split below only decides
  // which address family this particular draw uses.
  const std::uint64_t offset = stream_cursor_;
  stream_cursor_ += stream_step_mod_;
  if (stream_cursor_ >= k.working_set_bytes) {
    stream_cursor_ -= k.working_set_bytes;
  }
  if (k.pattern == isa::AccessPattern::kHotCold) {
    const std::uint64_t h = mix64(inst_.key ^ (0x5eed0000ULL + idx));
    if (hash_frac(h) < k.hot_fraction) {
      // Hot set lives at the base of the data region, 8B-aligned slots.
      return inst_.data_base + mix64(h) % k.hot_set_bytes / 8 * 8;
    }
    return inst_.data_base + k.hot_set_bytes + offset;
  }
  return inst_.data_base + offset;
}

void Ce::issue_access(cache::AccessType type, Addr addr) {
  const cache::AccessOutcome outcome = cache_.access(id_, addr, type);
  ++stats_.mem_accesses;
  const bool is_store = type == cache::AccessType::kWrite;
  switch (outcome) {
    case cache::AccessOutcome::kHit:
      switch (type) {
        case cache::AccessType::kRead:
          set_bus_op(mem::CeBusOp::kRead);
          break;
        case cache::AccessType::kWrite:
          set_bus_op(mem::CeBusOp::kWrite);
          break;
        case cache::AccessType::kInstrFetch:
          set_bus_op(mem::CeBusOp::kInstrFetch);
          break;
      }
      return;
    case cache::AccessOutcome::kMissStarted:
      // This CE's lookup initiated the line fetch: a miss on its bus.
      set_bus_op(is_store ? mem::CeBusOp::kWriteMiss
                          : mem::CeBusOp::kReadMiss);
      set_phase(Phase::kMissWait);
      return;
    case cache::AccessOutcome::kMissMerged:
      // Another CE's fill is already in flight; this bus just waits on it
      // (a hit-in-flight, not a second miss — the cross-CE sharing path
      // of paper §5.1).
      set_bus_op(mem::CeBusOp::kWait);
      set_phase(Phase::kMissWait);
      return;
  }
}

void Ce::tick() {
  set_bus_op(mem::CeBusOp::kIdle);
  if (phase() == Phase::kIdle || phase() == Phase::kDone) {
    return;
  }
  ++stats_.busy_cycles;

  if (phase() == Phase::kFaultWait) {
    ++stats_.fault_wait_cycles;
    if (--fault_left_ == 0) {
      set_phase(resume_phase_);
    }
    return;
  }

  if (phase() == Phase::kMissWait) {
    ++stats_.miss_wait_cycles;
    set_bus_op(mem::CeBusOp::kWait);
    if (cache_.take_fill_ready(id_)) {
      // The stalled access completes with this fill.
      if (pending_is_ifetch_) {
        set_phase(Phase::kCompute);
      } else {
        if (pending_is_store_) {
          --stores_left_;
        } else {
          --loads_left_;
          last_load_addr_ = pending_addr_;
        }
        set_phase(Phase::kAccess);
      }
      pending_translated_ = false;
    }
    return;
  }

  // Control phases are combinational; loop until a cycle is consumed.
  for (;;) {
    switch (phase()) {
      case Phase::kStepSetup: {
        if (step_ >= total_steps_) {
          set_phase(Phase::kDone);
          ++stats_.instances_completed;
          --stats_.busy_cycles;  // This cycle did no work.
          return;
        }
        setup_step();
        if (cache::InstructionCache::spills_at(
                spill_frac_, inst_.key ^ (0xF00DULL + step_))) {
          pending_is_ifetch_ = true;
          pending_addr_ = inst_.code_base +
                          (static_cast<std::uint64_t>(step_) * 64) %
                              inst_.spec.code_bytes;
          pending_translated_ = false;
          set_phase(Phase::kIFetch);
        } else {
          set_phase(Phase::kCompute);
        }
        continue;
      }
      case Phase::kCompute: {
        if (compute_left_ > 0) {
          --compute_left_;
          ++stats_.compute_cycles;
          return;  // Bus idle this cycle.
        }
        set_phase(Phase::kAccess);
        continue;
      }
      case Phase::kIFetch: {
        if (!pending_translated_) {
          const Cycle fault =
              mmu_.translate(inst_.job, id_, pending_addr_);
          pending_translated_ = true;
          if (fault > 0) {
            fault_left_ = fault;
            resume_phase_ = Phase::kIFetch;
            ++stats_.fault_wait_cycles;
            set_phase(Phase::kFaultWait);
            return;
          }
        }
        if (!crossbar_.try_acquire(cache_.bank_of(pending_addr_))) {
          set_bus_op(mem::CeBusOp::kWait);
          ++stats_.xbar_conflict_cycles;
          return;
        }
        issue_access(cache::AccessType::kInstrFetch, pending_addr_);
        if (phase() != Phase::kMissWait) {
          set_phase(Phase::kCompute);
          pending_translated_ = false;
        }
        return;
      }
      case Phase::kAccess: {
        if (loads_left_ == 0 && stores_left_ == 0) {
          ++step_;
          set_phase(Phase::kStepSetup);
          continue;
        }
        pending_is_ifetch_ = false;
        if (!pending_translated_) {
          pending_is_store_ = loads_left_ == 0;
          pending_addr_ = next_data_addr(pending_is_store_);
          const Cycle fault =
              mmu_.translate(inst_.job, id_, pending_addr_);
          pending_translated_ = true;
          if (fault > 0) {
            fault_left_ = fault;
            resume_phase_ = Phase::kAccess;
            ++stats_.fault_wait_cycles;
            set_phase(Phase::kFaultWait);
            return;
          }
        }
        if (!crossbar_.try_acquire(cache_.bank_of(pending_addr_))) {
          set_bus_op(mem::CeBusOp::kWait);
          ++stats_.xbar_conflict_cycles;
          return;
        }
        issue_access(pending_is_store_ ? cache::AccessType::kWrite
                                       : cache::AccessType::kRead,
                     pending_addr_);
        if (phase() != Phase::kMissWait) {
          if (pending_is_store_) {
            --stores_left_;
          } else {
            --loads_left_;
            last_load_addr_ = pending_addr_;
          }
          pending_translated_ = false;
        }
        return;
      }
      case Phase::kIdle:
      case Phase::kDone:
      case Phase::kMissWait:
      case Phase::kFaultWait:
        REPRO_ENSURE(false, "unreachable CE phase in run loop");
    }
  }
}

}  // namespace repro::fx8
