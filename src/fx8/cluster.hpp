// The Computational Cluster: eight CEs, the Concurrency Control Bus, and
// the program control that maps phases onto them.
//
// Serial phases run on the continuation CE; concurrent DO-loop phases are
// self-scheduled over the CCB (Figure 2). The CE that completes the last
// iteration of a loop becomes the continuation CE for the following serial
// phase — "and need not be the same processor that entered the loop
// serially" (§3.2).
//
// The service order in which CEs are polled each cycle doubles as the
// hardware priority: earlier CEs win crossbar routing and CCB grants on
// ties. The default order favours CE7 and CE0, the asymmetry the paper
// observed in transition periods (Figure 7); an evenly rotating order is
// available as the ablation.
//
// A cluster owns the programs it runs (its job's and each busy detached
// slot's) and writes them in its capsule walk. It keeps no clock: it
// reads its owner's, as it shares its owner's lanes and control-event
// counter, and the owner's walk writes those once.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hpp"
#include "cache/shared_cache.hpp"
#include "fx8/ccb.hpp"
#include "fx8/ce.hpp"
#include "fx8/crossbar.hpp"
#include "fx8/hot_state.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"

namespace repro::fx8 {

/// How CEs are prioritized when several contend in the same cycle.
enum class ServicePolicy : std::uint8_t {
  /// Fixed order favouring the outermost CEs: 0,7,6,3,4,2,5,1. This is the
  /// asymmetric priority the measured machine exhibits (Figure 7).
  kOuterFirst,
  /// Fixed ascending order 0..7 (every tie resolved identically).
  kAscending,
  /// Order rotates by one each cycle (fair round-robin) — the ablation
  /// that flattens the per-CE transition activity profile.
  kRotating,
};

struct ClusterConfig {
  std::uint32_t n_ces = kMaxCes;
  ServicePolicy policy = ServicePolicy::kOuterFirst;
  /// Loop-iteration dispatch: hardware self-scheduling (the machine's
  /// behaviour) or compile-time static chunking (the ablation).
  DispatchPolicy dispatch = DispatchPolicy::kSelfScheduled;
  std::uint64_t icache_bytes = 16 * 1024;
  /// CEs detached from the cluster to run exclusively-serial processes
  /// (the highest-numbered ids). The Figure-3 footnote: "Detached
  /// processes (exclusively serial) may constitute a portion of these
  /// states." Default 0 = the whole complex forms one cluster, the
  /// measured CSRD configuration.
  std::uint32_t detached_ces = 0;
};

struct ClusterStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t loops_completed = 0;
  std::uint64_t iterations_completed = 0;
  std::uint64_t serial_reps_completed = 0;
  std::uint64_t dependence_wait_cycles = 0;
};

/// Marker-event hook: the "special event marker instructions embedded in
/// programs" of the paper's related work (§2.1 [16][17]). The cluster
/// invokes these at job/phase/iteration boundaries; src/trace builds
/// composite traces from them. All callbacks default to no-ops.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  virtual void on_job_start(JobId, Cycle) {}
  virtual void on_job_end(JobId, Cycle) {}
  virtual void on_serial_phase_start(JobId, std::uint32_t /*phase*/, Cycle) {}
  virtual void on_serial_phase_end(JobId, std::uint32_t /*phase*/, Cycle) {}
  virtual void on_loop_start(JobId, std::uint32_t /*phase*/,
                             std::uint64_t /*trip*/, Cycle) {}
  virtual void on_loop_end(JobId, std::uint32_t /*phase*/, Cycle) {}
  virtual void on_iteration_start(JobId, std::uint64_t /*iter*/, CeId,
                                  Cycle) {}
  virtual void on_iteration_end(JobId, std::uint64_t /*iter*/, CeId,
                                Cycle) {}
};

class Cluster {
 public:
  /// `ce_base` is the machine-global id of the cluster's lane 0: member
  /// CEs get global ids ce_base..ce_base+n_ces-1 (cache MSHRs, MMU memos,
  /// probe channels) while every cluster-internal structure stays
  /// lane-indexed 0..n_ces-1. Single-cluster machines and standalone
  /// tests keep the default 0, where lane == global id. `lanes` is the
  /// CeHot block the cluster's CEs share, `events` the control-event
  /// counter every cluster of a machine bumps, and `now` the clock the
  /// cluster reads (timestamps, the kRotating order); the owner keeps
  /// all three and advances the clock.
  Cluster(const ClusterConfig& config, cache::SharedCache& cache, Mmu& mmu,
          CeHot& lanes, std::uint64_t& events, const Cycle& now,
          CeId ce_base = 0);

  /// Load a job onto the cluster, which owns its program until the job
  /// finishes. Requires !busy().
  void load(isa::Program program, JobId job);

  /// True while a job is loaded and unfinished.
  [[nodiscard]] bool busy() const { return program_.has_value(); }

  /// Advance the cycle the owner's clock reads (program control, CCB,
  /// crossbar, all CEs): tick_control() then tick_peel() over every
  /// lane. For standalone clusters, whose owner then moves the clock; a
  /// machine ticks its clusters through Machine::tick_block.
  void tick();

  /// The control half of tick(): service-order refresh, crossbar/CCB
  /// begin_cycle, program control, detached control, and the cycle
  /// counters — everything except the per-lane CE advancement.
  /// Machine::tick_block runs this for every live cluster, then selects
  /// the machine's due lanes (fx8/lane_kernel.hpp), then runs tick_peel
  /// on them.
  void tick_control();

  /// Step this cluster's lanes flagged in the machine-wide `lanes` mask
  /// (bit = global CE id) through Ce::step(now), in service order
  /// (service lanes first, then detached). No-op when none of this
  /// cluster's bits are set. Only valid right after tick_control() in the
  /// same cycle `now`.
  void tick_peel(LaneMask lanes, Cycle now);

  /// Book every lane's lag up to machine cycle `now` (Ce::catch_up), so
  /// countdowns, counters and bus opcodes are exact again.
  void catch_up(Cycle now);

  // --- Event-horizon fast-forward -------------------------------------
  /// True when program control or a detached slot would act on the next
  /// tick: a phase to start, a completion to reap, a dependence to
  /// release, an iteration to dispatch. While false, control repeats
  /// itself and only the CEs can change, on the cycles their lanes
  /// record (CeHot::due). See docs/parallel_execution.md.
  [[nodiscard]] bool control_due() const;
  /// Book `cycles` quiet ticks of control: the crossbar and CCB grant
  /// resets and the dependence waits they repeat. The lanes book their
  /// own by clock lag (Ce::catch_up).
  /// Requires !control_due() and cycles within every member lane's
  /// quiet horizon (Machine::tick_block's jumps).
  void skip(Cycle cycles);

  /// Bitmask of CEs "active" in the paper's CCB-probe sense: executing
  /// serial code, or participating in a concurrent operation (holding an
  /// iteration, awaiting a dependence, or contending for one while
  /// undispatched iterations remain). Every change to it bumps
  /// CeHot::active_changes in the same call.
  [[nodiscard]] std::uint32_t active_mask() const;

  /// Number of active CEs this cycle (popcount of active_mask).
  [[nodiscard]] std::uint32_t active_count() const;

  [[nodiscard]] mem::CeBusOp ce_bus_op(CeId ce) const;
  [[nodiscard]] const Ce& ce(CeId id) const;
  [[nodiscard]] Ce& ce(CeId id);
  [[nodiscard]] const ConcurrencyControlBus& ccb() const { return ccb_; }
  [[nodiscard]] Crossbar& crossbar() { return crossbar_; }
  [[nodiscard]] const ClusterStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t width() const { return config_.n_ces; }
  [[nodiscard]] CeId continuation_ce() const { return serial_ce_; }
  /// Machine-global id of lane 0 (ce(lane).id() == ce_base() + lane).
  [[nodiscard]] CeId ce_base() const { return ce_base_; }

  /// Attach/detach a marker-event observer (nullptr detaches). The
  /// observer must outlive the cluster or be detached first.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }

  /// Monotone count of control events the OS layer can react to: a
  /// cluster job or a detached job completing, on any cluster sharing
  /// the counter. Machine::tick_block stops at the end of the cycle that
  /// bumps it.
  [[nodiscard]] std::uint64_t control_events() const { return events_; }

  /// True while the cluster has any work (a cluster job or a live
  /// detached slot). While false, every lane is parked — phases
  /// kIdle/kDone with bus opcodes already latched kIdle — so ticking the
  /// cluster changes no byte of its state and Machine::tick_block leaves
  /// it out of its live set (no control, lane selection or peel work).
  /// Only load()/load_detached() set it, and only a control event clears
  /// it.
  [[nodiscard]] bool lanes_live() const {
    return program_.has_value() || detached_live_ != 0;
  }
  /// Bitmask (global CE ids) of every lane this cluster owns.
  [[nodiscard]] LaneMask lanes_mask() const { return lanes_mask_; }
  /// One past this cluster's highest global CE id (the lane-selection
  /// prefix bound tick_block takes the max of over live clusters).
  [[nodiscard]] CeId lane_end() const { return ce_base_ + config_.n_ces; }

  // --- Detached CEs ---------------------------------------------------
  /// CEs participating in cluster (loop) execution.
  [[nodiscard]] std::uint32_t cluster_width() const {
    return config_.n_ces - config_.detached_ces;
  }
  [[nodiscard]] std::uint32_t detached_count() const {
    return config_.detached_ces;
  }
  /// The CE a detached slot owns (slot 0 = highest CE id).
  [[nodiscard]] CeId detached_ce(std::uint32_t slot) const;
  [[nodiscard]] bool detached_busy(std::uint32_t slot) const;
  /// Run an exclusively-serial program on a detached CE, which owns it
  /// until the job finishes. Requires a free slot and a program with no
  /// concurrent phases.
  void load_detached(std::uint32_t slot, isa::Program program, JobId job);

  // --- Capsules -------------------------------------------------------
  /// Capsule walk over the cluster's runtime state, the running program
  /// and each busy detached slot's program included; the clock and the
  /// control-event counter belong to the owner's walk, which must run
  /// the clock first (a load resyncs the lanes to it). A load validates
  /// every program it installs and the loop workers (check_loaded_workers)
  /// and throws capsule::CapsuleError on a state the cluster could not
  /// run.
  void serialize(capsule::Io& io);

 private:
  enum class WorkerState : std::uint8_t { kNone, kAwaitingDep, kExecuting };

  struct DetachedJob {
    std::optional<isa::Program> program;
    JobId job = 0;
    std::size_t phase_idx = 0;
    std::uint64_t reps_done = 0;
  };

  void advance_control();
  void refresh_service_order();
  /// Position mask (bit = service position) of the local lanes in `lanes`.
  [[nodiscard]] std::uint32_t service_positions(std::uint32_t lanes) const;
  void run_detached(std::uint32_t slot);
  void run_serial_phase(const isa::SerialPhase& phase);
  void run_concurrent_phase(const isa::ConcurrentLoopPhase& phase);
  void start_iteration(CeId ce, const isa::ConcurrentLoopPhase& loop,
                       std::uint64_t iter);
  [[nodiscard]] bool iteration_has_dependence(
      const isa::ConcurrentLoopPhase& loop, std::uint64_t iter) const;
  [[nodiscard]] std::uint64_t phase_key(std::uint64_t salt) const;
  [[nodiscard]] Addr code_base_for_phase() const;
  void finish_job();
  /// Load check: the loop flag matches the CCB's, every worker holding
  /// or awaiting an iteration is a service lane naming an iteration of
  /// the CCB's loop, and deps_waiting_ counts the awaiting ones. Throws
  /// capsule::CapsuleError.
  void check_loaded_workers() const;

  ClusterConfig config_;
  /// Global CE id of lane 0 (cluster index * ces-per-cluster).
  CeId ce_base_ = 0;
  Crossbar crossbar_;
  ConcurrencyControlBus ccb_;
  std::vector<Ce> ces_;
  /// Hoisted policy flag: tick_control() refreshes the service order only
  /// when it rotates.
  bool rotating_ = false;
  std::vector<CeId> base_order_;
  /// This cycle's service order: positions 0..service_count_-1 hold the
  /// service lanes (base_order_, rotated by the clock for kRotating and
  /// refreshed once per live tick), and the positions after them the
  /// detached lanes by slot (slot 0 = highest CE id first). Position order is the order the
  /// peel steps lanes and control services workers in.
  std::array<CeId, kMaxCes> service_order_{};
  /// Inverse of service_order_: lane -> its position this cycle. Lets the
  /// hot loops turn a lane mask into a position mask and walk only its
  /// set bits, in service order.
  std::array<std::uint8_t, kMaxCes> service_pos_{};
  /// service_positions() of every local lane mask, for the orders that
  /// never rotate (built once by the constructor).
  std::array<std::uint8_t, std::size_t{1} << kMaxCes> fixed_positions_{};
  std::uint32_t service_count_ = 0;

  std::optional<isa::Program> program_;
  JobId job_ = 0;
  std::size_t phase_idx_ = 0;
  std::uint64_t serial_reps_done_ = 0;
  CeId serial_ce_ = 0;
  bool in_loop_ = false;
  bool in_serial_phase_ = false;
  std::array<WorkerState, kMaxCes> worker_{};
  std::array<std::uint64_t, kMaxCes> worker_iter_{};
  /// Lanes whose worker_ is kExecuting (bit = local lane), kept at every
  /// worker_ transition and rebuilt on capsule load. The concurrent
  /// control scan visits only the other lanes and the executing ones whose
  /// CE is done.
  std::uint32_t executing_ = 0;

  std::array<DetachedJob, kMaxCes> detached_{};

  ClusterStats stats_;
  /// The CeHot block the cluster's CEs share, indexed by global CE id,
  /// so control can poll the shared done_mask instead of every CE.
  CeHot& ce_hot_;
  /// Bitmask (global CE ids) of the lanes participating in cluster
  /// (non-detached) work.
  LaneMask service_lane_mask_ = 0;
  /// Bitmask (global CE ids) of every lane this cluster owns — the
  /// cluster's window into a machine-wide slow mask.
  LaneMask lanes_mask_ = 0;
  /// Detached slots currently running a job (bit = slot index). Lets
  /// tick_control() and control_due() skip the slot walk on clusters
  /// with nothing detached running.
  std::uint32_t detached_live_ = 0;
  /// Workers currently in WorkerState::kAwaitingDep. Together with the
  /// done mask and the CCB dispatch cursor this tells the concurrent
  /// control scan when it has provably nothing to do this cycle.
  std::uint32_t deps_waiting_ = 0;
  /// Control-event counter, shared by every cluster of a machine.
  std::uint64_t& events_;
  /// The owner's clock (Machine::now() in a machine): the cycle being
  /// ticked, which timestamps marker events and turns the kRotating
  /// service order.
  const Cycle& clock_;
  ClusterObserver* observer_ = nullptr;
};

}  // namespace repro::fx8
