// Computational Element: the per-cycle interpreter of kernel instances.
//
// A CE executes one kernel instance at a time (a serial-phase repetition
// or one concurrent-loop iteration). Each cycle it either burns a compute
// cycle (bus idle), issues a data/instruction access through the crossbar
// to the shared cache (bus read/write/ifetch, or the miss variants), waits
// on an outstanding miss (bus wait), or stalls for page-fault service
// (bus idle — the fault is handled by the OS). The per-cycle bus opcode is
// what the logic-analyzer probe on this CE's cache bus latches.
//
// The CE keeps its own phase, countdowns and counters. Only what other
// components read (the bus opcode, the cycle the lane is next due, the
// done bit) goes to the machine-wide CeHot lanes (fx8/hot_state.hpp), at
// the CE's global id. tick() is the one complete per-cycle step. The three
// steady-state behaviours (compute burn, miss wait, fault wait) repeat
// one cycle for as long as quiet_horizon() says, so the machine steps a
// CE only when that horizon runs out (step()) and books the repeats in
// between, the cycles a fast-forward jump covers included, through the
// one bulk-advance body (advance()) by clock lag.
#pragma once

#include <cstdint>
#include <optional>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "cache/icache.hpp"
#include "cache/shared_cache.hpp"
#include "fx8/crossbar.hpp"
#include "fx8/hot_state.hpp"
#include "fx8/mmu.hpp"
#include "isa/kernel.hpp"
#include "mem/bus_ops.hpp"

namespace repro::fx8 {

/// Everything needed to run one execution of a kernel. A started CE keeps
/// its own copy, spec included, so it depends on no program's storage.
struct KernelInstance {
  isa::KernelSpec spec;
  JobId job = 0;
  /// Deterministic key: all per-step randomness hashes off this.
  std::uint64_t key = 0;
  /// Base of the job's data region and of the kernel's code image.
  Addr data_base = 0;
  Addr code_base = 0;
  /// Starting byte offset of this instance's streaming walk within the
  /// working set (element-interleaved for shared-data loops).
  std::uint64_t stream_start = 0;
  /// Byte distance between this instance's successive streaming accesses.
  /// Serial code streams by the kernel's stride; a shared-data concurrent
  /// iteration i walks elements i, i+T, i+2T... of the loop's arrays
  /// (cyclic distribution), so its per-access jump is T*stride while
  /// concurrently executing iterations sit on the *same* cache lines —
  /// the cross-CE locality of paper §5.1. 0 means "use the spec stride".
  std::uint64_t stream_step_bytes = 0;
  /// Extra steps appended (conditional long path of an iteration).
  std::uint32_t extra_steps = 0;
};

/// The CE execution phases.
enum class CePhase : std::uint8_t {
  kIdle,
  kStepSetup,   ///< Derive compute/access budget for the next step.
  kIFetch,      ///< Issue a spilled instruction fetch.
  kCompute,     ///< Burn compute cycles.
  kAccess,      ///< Issue data accesses.
  kMissWait,    ///< Outstanding shared-cache miss.
  kFaultWait,   ///< Page-fault service stall.
  kDone,
};

struct CeStats {
  std::uint64_t busy_cycles = 0;       ///< Cycles executing an instance.
  std::uint64_t compute_cycles = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t miss_wait_cycles = 0;
  std::uint64_t fault_wait_cycles = 0;
  std::uint64_t xbar_conflict_cycles = 0;
  std::uint64_t instances_completed = 0;

  bool operator==(const CeStats&) const = default;
};

class Ce {
 public:
  /// `id` is the machine-global CE id (indexes the shared cache's waiter
  /// masks, the MMU memos, the probe channels, and this CE's slots in
  /// `lanes`, the CeHot block its owner keeps).
  Ce(CeId id, CeHot& lanes, cache::SharedCache& cache, Crossbar& crossbar,
     Mmu& mmu, std::uint64_t icache_bytes = 16 * 1024);

  [[nodiscard]] CeId id() const { return id_; }

  /// Begin executing an instance. Requires idle().
  void start(const KernelInstance& inst);

  /// True when no instance is loaded (fresh, or the last one completed and
  /// take_completed() was called).
  [[nodiscard]] bool idle() const { return phase() == Phase::kIdle; }

  /// True when the loaded instance has finished.
  [[nodiscard]] bool done() const { return phase() == Phase::kDone; }

  /// Acknowledge completion, returning the CE to idle.
  void take_completed();

  /// Advance one cycle: the one complete per-cycle CE step, covering
  /// every phase (steady states, transitions, access issue, stall
  /// pick-up). Idle/done CEs latch kIdle and do nothing else. Must be
  /// called after Crossbar::begin_cycle() for this cycle.
  void tick();

  /// Bus opcode latched by a probe for the cycle just ticked. Idle CEs
  /// latch kIdle.
  [[nodiscard]] mem::CeBusOp bus_op() const { return lanes_.bus_op[id_]; }

  // --- Event-horizon fast-forward -------------------------------------
  /// Cycles for which this CE's behaviour is a pure repeat that advance()
  /// can bulk-apply: an idle/done CE reports kHorizonNever, a computing
  /// CE its remaining compute budget, a fault-stalled CE its remaining
  /// service (minus the transition cycle). 0 means the next tick can
  /// change machine-visible state and must run naively. The lane records
  /// it as its due cycle (set_due()).
  [[nodiscard]] Cycle quiet_horizon() const {
    switch (phase_) {
      case Phase::kIdle:
      case Phase::kDone:
        return kHorizonNever;
      case Phase::kCompute:
        // Each of the next compute_left ticks burns one bus-idle compute
        // cycle; the tick after that enters kAccess.
        return compute_left_;
      case Phase::kFaultWait:
        // The tick that drops fault_left to zero also transitions phases,
        // so it must run naively: stay quiet at most fault_left - 1.
        return fault_left_ - 1;
      case Phase::kMissWait:
        // Waiting on a line fill: the shared cache flags readiness on a
        // bus-completion tick, which the bus horizon already forces to be
        // naive. Until the flag is up every wait tick is a pure repeat;
        // the pick-up tick itself must run naively.
        return cache_.fill_ready(id_) ? 0 : kHorizonNever;
      default:
        return 0;
    }
  }

  // --- Lane horizons (Machine::tick_block) ----------------------------
  /// Step at machine cycle `now`: book the cycles since the lane last
  /// stepped (catch_up), tick(), count the cycle under the opcode it
  /// latched (CeHot::op_cycles), and record when the lane is next due
  /// (set_due(now + 1)).
  void step(Cycle now) {
    catch_up(now);
    tick();
    ++lanes_.op_cycles[static_cast<std::size_t>(lanes_.bus_op[id_])];
    clock_ = now + 1;
    set_due(now + 1);
  }
  /// Book every cycle before `now` the lane has not booked yet. Between
  /// its steps a lane only repeats its steady behaviour, so the lag goes
  /// through advance() whole.
  void catch_up(Cycle now) {
    if (clock_ < now) {
      advance(now - clock_);
    }
  }
  /// After a capsule load at machine cycle `now`: the lane's state is
  /// exact at `now`, and it is next due when its quiet horizon runs out,
  /// as if it had just stepped.
  void resync(Cycle now) {
    clock_ = now;
    set_due(now);
  }

  /// Inside Machine::tick_block the four per-cycle counters lag the
  /// machine clock between a lane's steps; they are exact whenever
  /// tick_block returns.
  [[nodiscard]] const CeStats& stats() const { return stats_; }

  /// Capsule walk over the CE's state, the loaded kernel instance (spec
  /// included while the CE is not idle), and its bus opcode lane. A load
  /// validates the spec and throws capsule::CapsuleError on one the CE
  /// could not run.
  void serialize(capsule::Io& io);

 private:
  using Phase = CePhase;

  [[nodiscard]] Phase phase() const { return phase_; }
  void set_phase(Phase p) {
    phase_ = p;
    const LaneMask bit = LaneMask{1} << id_;
    if (p == Phase::kDone) {
      lanes_.done_mask |= bit;
    } else {
      lanes_.done_mask &= ~bit;
    }
  }
  void set_bus_op(mem::CeBusOp op) { lanes_.bus_op[id_] = op; }
  /// Record the lane as due at `now` + quiet_horizon(), saturating at
  /// kHorizonNever, for a lane whose state is exact at `now`.
  void set_due(Cycle now) {
    const Cycle quiet = quiet_horizon();
    lanes_.due[id_] =
        quiet >= kHorizonNever - now ? kHorizonNever : now + quiet;
  }

  /// The one bulk-advance body: `cycles` repeats of the current steady
  /// behaviour (compute burn, miss wait, fault wait), with the bus opcode
  /// each would latch (counted in CeHot::op_cycles), and the lane clock
  /// moved by `cycles`. A parked
  /// lane repeats nothing; neither does one that start() loaded after
  /// it sat parked through the lag. Checks no horizon: the machine's
  /// catch-up also books a miss wait whose fill is already up.
  void advance(Cycle cycles);

  void setup_step();
  void issue_access(cache::AccessType type, Addr addr);
  [[nodiscard]] Addr next_data_addr(bool is_store);

  /// Global CE id; also this CE's index (and done_mask bit) in lanes_.
  CeId id_;
  CeHot& lanes_;
  // What a steady-state cycle touches, kept together.
  Phase phase_ = Phase::kIdle;
  std::uint32_t compute_left_ = 0;  ///< Compute cycles left this step.
  Cycle fault_left_ = 0;            ///< Fault service cycles left.
  /// Machine cycle up to which the countdowns, counters and bus opcode
  /// are booked: the cycles before it are applied, the ones from it on
  /// are not. advance() and step() move it; a capsule load sets it to
  /// the loaded clock.
  Cycle clock_ = 0;
  CeStats stats_;
  cache::SharedCache& cache_;
  Crossbar& crossbar_;
  Mmu& mmu_;
  cache::InstructionCache icache_;

  KernelInstance inst_;
  Phase resume_phase_ = Phase::kIdle;  ///< Where to return after a stall.
  std::uint32_t step_ = 0;
  std::uint32_t total_steps_ = 0;
  std::uint32_t loads_left_ = 0;
  std::uint32_t stores_left_ = 0;
  std::uint64_t accesses_done_ = 0;  ///< Streaming access count.
  /// Incremental streaming cursor: (stream_start + accesses_done_ *
  /// step_bytes) % working_set_bytes, maintained by one add and one
  /// conditional subtract per access instead of a 64-bit modulo (working
  /// sets are not powers of two).
  std::uint64_t stream_cursor_ = 0;
  /// step_bytes % working_set_bytes, fixed per instance.
  std::uint64_t stream_step_mod_ = 0;
  Addr last_load_addr_ = 0;          ///< Stores are read-modify-write.
  /// Icache spill fraction of the loaded instance's code footprint,
  /// computed once at start() instead of per step.
  double spill_frac_ = 0.0;
  bool pending_is_store_ = false;    ///< What the stalled access was.
  bool pending_is_ifetch_ = false;
  Addr pending_addr_ = 0;
  bool pending_translated_ = false;  ///< Fault check already done.
};

}  // namespace repro::fx8
