/**
 * @file
 * Parallel experiment engine: fans a suite of (profile, OCOR on/off)
 * simulations across a worker pool, optionally under supervision
 * (per-request wall-clock deadlines).
 *
 * Every Simulator::run owns its own System, and every stochastic
 * component draws from RNGs seeded purely from (config, seed), so
 * concurrent runs are bit-identical to serial ones — parallelism is
 * free determinism-wise. Results are reassembled in request order,
 * so output ordering never depends on scheduling either.
 *
 * When constructed over a ResultCache the runner inherits its
 * thread-safety and in-flight dedup: two requests for the same key
 * (e.g. the shared baseline of a level sweep) cost one simulation.
 *
 * Supervision (DESIGN.md §12) is off by default and adds nothing to
 * the unsupervised path, which stays bit-identical to the
 * pre-supervision engine. With a deadline installed, every request
 * gets a wall-clock budget derived from its expected work; a miss
 * cancels the simulation cooperatively, and the sweep completes with
 * a per-request RunStatus instead of aborting. A failed request is
 * not retried: simulations are deterministic, so a second attempt
 * would fail the same way.
 */

#ifndef OCOR_SIM_PARALLEL_RUNNER_HH
#define OCOR_SIM_PARALLEL_RUNNER_HH

#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "common/thread_pool.hh"
#include "sim/result_cache.hh"

namespace ocor
{

/** One simulation request: a profile under a full experiment knob
 * set (thread count, seed, OCOR override) and one OCOR setting. */
struct RunRequest
{
    BenchmarkProfile profile;
    ExperimentConfig exp;
    bool ocorEnabled = false;
};

/** Terminal state of one supervised request. */
enum class RunStatus : std::uint8_t
{
    Ok,       ///< completed
    TimedOut, ///< hit its wall-clock deadline
    Failed    ///< failed (hang / exception)
};

/** Stable lowercase name ("ok", "timed-out", ...). */
const char *runStatusName(RunStatus s);

/** Per-request supervision verdict (parallel to run()'s results). */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    double seconds = 0.0;    ///< wall clock of the run
    std::string detail;      ///< human-readable failure context
};

/** Supervision policy: on iff deadlineSeconds > 0. */
struct SupervisePolicy
{
    /**
     * Base wall-clock deadline in seconds for a 16-thread,
     * 4-iteration request; scaled linearly with threads x iterations
     * (deadlineFor()). 0 disables supervision.
     */
    double deadlineSeconds = 0.0;
};

/** Pool-backed experiment runner; optionally cache-write-through. */
class ParallelRunner
{
  public:
    /**
     * @p jobs worker count (0 = ThreadPool::defaultConcurrency());
     * @p cache when non-null, every run goes through
     * ResultCache::get (memoized + deduplicated), otherwise each
     * request is simulated directly.
     */
    explicit ParallelRunner(unsigned jobs = 0,
                            ResultCache *cache = nullptr);

    ~ParallelRunner();

    /** Install (or disable) the supervision policy. Not thread-safe
     * against concurrent run() calls; set it up front. */
    void setSupervision(const SupervisePolicy &policy);

    /** Deadline in seconds for @p req under the current policy:
     * deadlineSeconds x (threads/16) x (iterations/4), floored at
     * the base. 0 when deadlines are off. */
    double deadlineFor(const RunRequest &req) const;

    /** Run every request concurrently; results in request order.
     * Under supervision, degraded requests yield empty metrics and
     * their status is left in outcomes(). */
    std::vector<RunMetrics> run(const std::vector<RunRequest> &reqs);

    /** Original/OCOR pairs for heterogeneous (profile, exp) combos,
     * e.g. scalability or sensitivity sweeps. */
    std::vector<BenchmarkResult>
    runComparisons(const std::vector<BenchmarkProfile> &profiles,
                   const std::vector<ExperimentConfig> &exps);

    /** Original/OCOR pair for every profile under one knob set: the
     * parallel equivalent of runSuite(). */
    std::vector<BenchmarkResult>
    runSuite(const std::vector<BenchmarkProfile> &profiles,
             const ExperimentConfig &exp);

    unsigned jobs() const { return pool_.size(); }

    /** Per-request outcomes of the most recent run() (request
     * order). Empty before the first run. */
    std::vector<RunOutcome> outcomes() const;

    /** Requests (lifetime total) that did not end Ok. */
    std::uint64_t degradedRuns() const;

    /** Lifetime supervision counters. */
    std::uint64_t timeouts() const;
    std::uint64_t failures() const;

    /** Wall-clock seconds per simulated run (thread-safe). */
    SampleStat runSeconds() const;

    /** Runs executed by this runner (cache hits included). */
    std::uint64_t runsExecuted() const;

    /** Pool busy time / (workers x elapsed) over the pool lifetime;
     * needs @p elapsed_seconds measured by the caller. */
    double utilization(double elapsed_seconds) const;

    const ThreadPool &pool() const { return pool_; }

    /**
     * Register the runner's and its pool's counters under dotted
     * names ("<prefix>.pool.worker0.busy_ns", "<prefix>.runs", ...).
     * The registry stores pointers into this runner, so it must not
     * outlive it.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "runner");

  private:
    RunMetrics runOne(const RunRequest &req);

    /** Supervised wrapper: one run under its deadline. */
    RunMetrics runSupervised(const RunRequest &req,
                             RunOutcome &outcome);

    // --- deadline watchdog ------------------------------------------
    struct ActiveRun
    {
        std::chrono::steady_clock::time_point deadlineAt;
        CancelToken *token;
    };

    /** Register/unregister a run with the watchdog thread. */
    std::uint64_t armDeadline(double seconds, CancelToken *token);
    void disarmDeadline(std::uint64_t id);
    void watchdogLoop();
    void stopWatchdog();

    ThreadPool pool_;
    ResultCache *cache_;

    SupervisePolicy policy_;

    mutable std::mutex statsMu_;
    SampleStat runSeconds_;
    std::uint64_t runsExecuted_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t degraded_ = 0;
    std::vector<RunOutcome> outcomes_; ///< last run(), request order

    // Watchdog state (separate mutex: armed/disarmed on the hot
    // request path, scanned by the watchdog thread).
    std::mutex wdMu_;
    std::condition_variable wdCv_;
    std::map<std::uint64_t, ActiveRun> active_;
    std::uint64_t nextArmId_ = 1;
    bool wdStop_ = false;
    std::thread watchdog_; ///< started lazily by setSupervision
};

/**
 * Convenience wrapper: the parallel, uncached equivalent of
 * runSuite(). Bit-identical to the serial version (the determinism
 * test enforces this).
 */
std::vector<BenchmarkResult>
runSuiteParallel(const std::vector<BenchmarkProfile> &profiles,
                 const ExperimentConfig &exp, unsigned jobs = 0);

} // namespace ocor

#endif // OCOR_SIM_PARALLEL_RUNNER_HH
