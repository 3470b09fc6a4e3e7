/**
 * @file
 * Simulator: the cycle loop, the per-cycle COH/CS/compute accounting
 * oracle, ROI bookkeeping and optional timeline recording.
 */

#ifndef OCOR_SIM_SIMULATOR_HH
#define OCOR_SIM_SIMULATOR_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "sim/telemetry.hh"

namespace ocor
{

class CancelToken;
class Tracer;
class LockLedger;
class WakeProfiler;

/**
 * Which simulation core drives run().
 *
 * Legacy is the original unconditional per-cycle loop (every
 * component ticked every cycle); Event is the event-driven core
 * (components ticked only on due cycles, quiet spans skipped in one
 * step). The two are bit-identical by construction — Event exists
 * purely for wall-clock speed. Auto defers to the process-wide
 * default (setDefaultCoreMode), then the OCOR_SIM_CORE environment
 * variable ("legacy" / "event"), then Event.
 */
enum class SimCoreMode : std::uint8_t
{
    Auto,
    Legacy,
    Event
};

/**
 * One-cycle memo of lockHolderInCs verdicts, keyed by lock word.
 *
 * Within a single cycle the verdict for a lock is constant, but the
 * accounting loop used to re-derive it (home-node lookup + lock-table
 * probe + holder-PCB read) for every blocked thread; under heavy
 * contention that is 63 redundant oracle walks per cycle. Capacity
 * is bounded: past kSlots distinct locks, extra inserts are dropped
 * and callers simply recompute — correctness never depends on a hit.
 */
class HolderMemo
{
  public:
    static constexpr unsigned kSlots = 8;

    void reset() { n_ = 0; }

    bool
    lookup(Addr lock, bool &held) const
    {
        for (unsigned i = 0; i < n_; ++i) {
            if (locks_[i] == lock) {
                held = held_[i];
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr lock, bool held)
    {
        if (n_ < kSlots) {
            locks_[n_] = lock;
            held_[n_] = held;
            ++n_;
        }
    }

    unsigned size() const { return n_; }

  private:
    std::array<Addr, kSlots> locks_{};
    std::array<bool, kSlots> held_{};
    unsigned n_ = 0;
};

/** Optional simulation-run features. */
struct SimOptions
{
    /** Record per-cycle activity for the first N cycles... */
    Cycle timelineHorizon = 0;
    /** ...of the first M threads (0 = all). */
    unsigned timelineThreads = 0;

    /** Sample interval telemetry every N cycles (0 = off). */
    Cycle telemetryInterval = 0;

    /** Break run() wall time down by phase (tick vs accounting).
     * Adds two clock reads per cycle, so it is opt-in. */
    bool profileWall = false;

    /**
     * Cooperative cancellation: when non-null, run() polls the token
     * at the (coarse) watchdog stride and winds down early with
     * RunMetrics::cancelled set once it fires. Null (the default)
     * keeps the loop bit-identical to an unsupervised run.
     */
    const CancelToken *cancel = nullptr;

    /** Simulation core driving run() (see SimCoreMode). */
    SimCoreMode core = SimCoreMode::Auto;

    /**
     * COH attribution ledger: split every blocked-idle (competition
     * overhead) cycle into a named cause — transfer, arbitration,
     * backoff, sleep, grant gap — per lock and per thread
     * (DESIGN.md §14). Off by default; a ledger run's aggregate
     * counters are identical to a plain run's, the split is pure
     * refinement.
     */
    bool cohLedger = false;

    /**
     * Wake-attribution profiler (event core only): count per-group
     * wakes, wasted wakes and wake edges. Purely observational —
     * simulation results are bit-identical with it on. Also enabled
     * process-wide by Simulator::setDefaultWakeProfile.
     */
    bool wakeProfile = false;
};

/** Host wall-clock cost of one run() (never enters sim results). */
struct WallProfile
{
    double totalSeconds = 0.0;   ///< whole run(), always measured
    double tickSeconds = 0.0;    ///< System::tick (profileWall only)
    double accountSeconds = 0.0; ///< accounting (profileWall only)
    double schedSeconds = 0.0;   ///< event scheduling (profileWall)
    std::uint64_t cycles = 0;    ///< simulated cycles covered

    /** Cycles the loop actually ticked (== cycles under the legacy
     * core; under the event core, cycles + skipped == processed +
     * skipped covers the run). */
    std::uint64_t cyclesProcessed = 0;
    std::uint64_t cyclesSkipped = 0;   ///< quiet cycles jumped over
    std::uint64_t eventsScheduled = 0; ///< event-wheel pushes

    /** tick/account/sched seconds were measured (profileWall). */
    bool phasesTimed = false;

    /** Deterministic work counters: router and NI ticks, and
     * component ticks per System group (network ticks for
     * GNetwork). The event core ticks only what has work. */
    std::uint64_t routersTicked = 0;
    std::uint64_t nisTicked = 0;
    std::array<std::uint64_t, NumSystemGroups> groupTicks{};
};

/** Drives one System instance through its region of interest. */
class Simulator
{
  public:
    using Options = SimOptions;

    Simulator(const SystemConfig &cfg, std::vector<Program> programs,
              const BgTrafficConfig &bg, Options opts = {});

    /** Detaches the tracer from the crash-dump handler (if this
     * instance attached it). */
    ~Simulator();

    /**
     * Run until every thread finishes (or maxCycles). Returns the
     * aggregated metrics; per-thread counters are also left in the
     * PCBs for white-box inspection.
     */
    RunMetrics run();

    System &system() { return *system_; }
    const Timeline &timeline() const { return timeline_; }
    const TelemetryRecorder &telemetry() const { return telemetry_; }
    const WallProfile &wallProfile() const { return wall_; }

    /** Current simulated cycle (valid after run()). */
    Cycle now() const { return now_; }

    /**
     * Advance exactly one cycle (tick + accounting) without the
     * watchdog/ROI bookkeeping of run(). Microbenchmark hook for
     * measuring the steady-state per-cycle cost; don't mix with
     * run() on the same instance.
     */
    void
    stepCycle()
    {
        system_->tick(now_);
        accountCycle(now_);
        if (CheckerRegistry *ck = system_->checker())
            ck->onCycleEnd(now_);
        ++now_;
    }

    /** Per-thread lock-state dump captured when the forward-progress
     * watchdog fired (empty otherwise). */
    const std::string &hangDiagnosis() const { return hangDiagnosis_; }

    /**
     * Register the System's component counters plus this run's wall
     * profile ("sim.wall.*": total/tick/account/sched seconds and
     * the processed/skipped cycle split). The registry reads from
     * this Simulator at dump time, so it must not outlive it.
     */
    void registerStats(StatsRegistry &reg);

    /**
     * Process-wide default core for Simulators whose options leave
     * core at Auto (the benches' --legacy-tick flag). Thread-safe.
     */
    static void setDefaultCoreMode(SimCoreMode m);
    static SimCoreMode defaultCoreMode();

    /**
     * Process-wide wake-profiling default (the benches'
     * --wake-profile flag): profiling changes no results, so unlike
     * the ledger it needs no per-experiment plumbing or cache-key
     * split — note cached runs don't execute and contribute no wake
     * stats (pair the flag with --fresh). Thread-safe.
     */
    static void setDefaultWakeProfile(bool on);
    static bool defaultWakeProfile();

    /** The core mode run() will use (Auto fully resolved). */
    SimCoreMode resolvedCoreMode() const;

    /** COH attribution ledger; null unless opts.cohLedger. */
    const LockLedger *ledger() const { return ledger_.get(); }

    /** Wake profiler; null unless profiling is on. */
    const WakeProfiler *wakeProfiler() const
    {
        return wakeProf_.get();
    }

  private:
    void runLegacyLoop(Tracer *tr, CheckerRegistry *ck);
    void runEventLoop(Tracer *tr, CheckerRegistry *ck);

    /**
     * One legacy loop-body iteration at now_ (tick or tickEvent,
     * accounting, checkers, telemetry, finish/cancel/watchdog exit
     * tests). Returns true when the run must stop at now_.
     */
    bool processCycle(bool event, Tracer *tr, CheckerRegistry *ck,
                      Cycle &last_progress_at,
                      std::uint64_t &last_progress);

    /**
     * Charge cycles [from, to) to every live thread in one step.
     * Valid only for spans in which no component was ticked: state
     * is frozen, so each thread's accounting verdict is constant
     * across the span and multiplies out. Timeline cycles (below the
     * recorder horizon) still get exact per-cycle rows.
     */
    void accountSpan(Cycle from, Cycle to);

    void accountCycle(Cycle now);

    /** Charge one cycle (at @p now) to thread @p t's current state. */
    void accountThread(ThreadId t, Cycle now);

    /**
     * Ledger refinement of a blocked-idle charge: split the span
     * [@p from, @p to) of thread @p t waiting on @p lock into COH
     * causes (the transfer/arbitration boundary falls at the try's
     * departure plus the uncontended round-trip budget). Charges
     * both the thread counters and the per-lock ledger; the pieces
     * sum to the span by construction.
     */
    void chargeCohCauses(ThreadId t, Pcb &pcb, Addr lock, Cycle from,
                         Cycle to);

    /** Uncontended LockTry round-trip budget of (thread, lock):
     * 2 mesh transits of a 1-flit packet plus the home latency.
     * Memoized per thread (the lock rarely changes). */
    Cycle tryBudget(ThreadId t, Addr lock);

    /** Monotone counter that stalls exactly when the run is wedged. */
    std::uint64_t progressSignal() const;

    std::string diagnoseHang() const;

    SystemConfig cfg_;
    std::unique_ptr<System> system_;
    Options opts_;
    Timeline timeline_;
    TelemetryRecorder telemetry_{0};
    WallProfile wall_;
    Cycle now_ = 0;
    bool hangDetected_ = false;
    bool cancelled_ = false;
    std::string hangDiagnosis_;

    /** Per-cycle lockHolderInCs memo (reset each cycle). */
    HolderMemo holderMemo_;

    /** Threads not yet Finished; the accounting loop only walks
     * these once the timeline recorder is off. */
    std::vector<ThreadId> live_;

    /** COH attribution ledger (null = off). */
    std::unique_ptr<LockLedger> ledger_;

    /** Wake-attribution profiler (null = off). */
    std::unique_ptr<WakeProfiler> wakeProf_;

    /** Per-thread try-budget memo for chargeCohCauses. */
    struct BudgetMemo
    {
        Addr lock = ~static_cast<Addr>(0);
        Cycle budget = 0;
    };
    std::vector<BudgetMemo> budgetMemo_;
};

} // namespace ocor

#endif // OCOR_SIM_SIMULATOR_HH
