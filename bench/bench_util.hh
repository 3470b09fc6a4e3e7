/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: command
 * line handling, the shared result cache, and simple table/bar
 * rendering.
 *
 * Common flags across all benches:
 *   --threads N   core/thread count (default 64, the paper's setup)
 *   --iters N     critical sections per thread (default 4)
 *   --seed N      experiment seed (default 1)
 *   --quick       shorthand for --threads 16 (fast smoke runs)
 *   --fresh       ignore the result cache for this invocation
 *   --jobs N      simulations run concurrently (default: OCOR_JOBS
 *                 env var, else hardware concurrency)
 *   --legacy-tick run on the legacy unconditional per-cycle tick loop
 *                 instead of the event-driven core (bit-identical
 *                 results, slower; for benchmarking the event core)
 *   --profile P   restrict a suite bench to one benchmark profile by
 *                 name (benches that run fixed profiles ignore it)
 *
 * Observability flags (all off by default; see DESIGN.md §10, §14):
 *   --coh-ledger            attribute every COH cycle to a named
 *                           cause (transfer / arbitration / backoff /
 *                           sleep / grant gap), per lock and thread;
 *                           ledger runs are cached separately
 *   --coh-breakdown         (table3_summary) render the per-program
 *                           COH cause split; implies --coh-ledger
 *                           and writes coh_breakdown.json
 *   --wake-profile          count event-core wakes, wasted wakes and
 *                           wake edges per component group (pair
 *                           with --fresh: cached runs don't execute
 *                           and contribute no wake stats)
 *   --trace[=CATS]          enable event tracing for the categories
 *                           "lock", "noc", "sim" (comma-separated;
 *                           bare --trace means all)
 *   --trace-out FILE        trace destination (default trace.json;
 *                           a .csv suffix selects the CSV exporter)
 *   --trace-capacity N      trace ring size in records (default
 *                           2^19; size it above the run's emitted
 *                           count or the export is incomplete)
 *   --stats-json FILE       dump the hierarchical stats registry
 *   --telemetry-interval N  sample interval telemetry every N cycles
 *   --telemetry-out FILE    telemetry CSV (default telemetry.csv)
 *   --pool-util             report worker-pool utilization
 *
 * Correctness flags (see DESIGN.md §11):
 *   --check[=LIST]          enable the runtime invariant checkers
 *                           "mutex", "vc-fifo", "onehot",
 *                           "arbitration", "credit", "rtr", "wakeup"
 *                           (comma-separated; bare --check means all)
 *
 * Crash safety / supervision flags (see DESIGN.md §12):
 *   --deadline SEC   wall-clock deadline for a 16-thread 4-iteration
 *                    run, scaled with the request size; a miss
 *                    cancels the run and degrades its request
 *                    (0 = off, the default)
 *   --replay FILE    re-run the exact simulation recorded in a crash
 *                    dump, deterministically, then exit
 *
 * Every bench installs a crash handler that writes
 * crash_<prog>.dump next to the working directory on SIGSEGV,
 * SIGABRT or SIGTERM; feed that file back via --replay. Benches
 * running under supervision exit 75 (EX_TEMPFAIL) when the sweep
 * completed but some requests were degraded.
 */

#ifndef OCOR_BENCH_BENCH_UTIL_HH
#define OCOR_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "check/check_config.hh"
#include "common/trace.hh"
#include "sim/crashdump.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_cache.hh"
#include "sim/wake_profiler.hh"

namespace ocor::bench
{

/** Parsed common options. */
struct Options
{
    unsigned threads = 64;
    unsigned iterations = 4;
    std::uint64_t seed = 1;
    bool fresh = false;
    unsigned jobs = 0; ///< 0 = ThreadPool::defaultConcurrency()

    /** --profile: restrict suite benches to one profile ("" = all). */
    std::string profileFilter;

    // --- observability (every knob off/empty by default) -----------
    std::string traceCats;      ///< "" = tracing off
    std::string traceOut = "trace.json";
    std::size_t traceCapacity = std::size_t{1} << 19; ///< ring slots
    std::string statsJson;      ///< "" = no stats dump
    Cycle telemetryInterval = 0;
    std::string telemetryOut = "telemetry.csv";
    bool poolUtil = false;
    bool cohLedger = false;     ///< --coh-ledger (DESIGN.md §14)
    bool cohBreakdown = false;  ///< --coh-breakdown (implies ledger)

    /** --check selection ("" = the build's default mask). */
    std::string checkList;

    // --- crash safety / supervision (DESIGN.md §12) -----------------
    std::string replay;      ///< crash dump to re-run ("" = none)
    double deadline = 0.0;   ///< base deadline seconds (0 = off)

    bool tracing() const { return !traceCats.empty(); }
    bool checking() const { return !checkList.empty(); }

    /** The --check mask for a directly built SystemConfig. */
    unsigned
    checkMask() const
    {
        return checking() ? parseCheckList(checkList)
                          : defaultCheckMask();
    }

    ExperimentConfig
    experiment() const
    {
        ExperimentConfig exp;
        exp.threads = threads;
        exp.iterationsOverride = iterations;
        exp.seed = seed;
        exp.check.checks = checkMask();
        exp.cohLedger = cohLedger;
        return exp;
    }

    /** The profiles a suite bench should run: allProfiles(), or the
     * single --profile selection (unknown names abort loudly). */
    std::vector<BenchmarkProfile>
    profiles() const
    {
        if (profileFilter.empty())
            return allProfiles();
        return {profileByName(profileFilter)};
    }
};

/** Exit code for a degraded-but-complete supervised sweep. */
constexpr int kExitDegraded = 75; // EX_TEMPFAIL

/**
 * Re-run the simulation recorded in crash dump @p dumpPath exactly
 * (the repro line pins profile, threads, iterations, seed and the
 * OCOR flag; simulations are bit-identical given those). Returns the
 * process exit code.
 */
inline int
runReplay(const std::string &dumpPath)
{
    auto spec = crashdump::parseDump(dumpPath);
    if (!spec) {
        std::fprintf(stderr,
                     "%s: not a crash dump or no repro line "
                     "(crash outside a simulation?)\n",
                     dumpPath.c_str());
        return 1;
    }
    std::printf("replaying %s: benchmark=%s threads=%u iters=%u "
                "seed=%llu ocor=%d\n",
                dumpPath.c_str(), spec->benchmark.c_str(),
                spec->threads, spec->iterations,
                static_cast<unsigned long long>(spec->seed),
                spec->ocorEnabled ? 1 : 0);
    const BenchmarkProfile profile = profileByName(spec->benchmark);
    ExperimentConfig exp;
    exp.threads = spec->threads;
    exp.iterationsOverride = spec->iterations;
    exp.seed = spec->seed;
    RunMetrics m = runOnce(profile, exp, spec->ocorEnabled);
    std::printf("replay finished: roi=%llu coh=%llu acquisitions="
                "%llu hang=%d\n",
                static_cast<unsigned long long>(m.roiFinish),
                static_cast<unsigned long long>(m.totalCoh()),
                static_cast<unsigned long long>(
                    m.totalAcquisitions()),
                m.hangDetected ? 1 : 0);
    return m.hangDetected ? 1 : 0;
}

/** Parse the common flags; unknown flags abort with usage. */
inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             a.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        // "--flag=value" and "--flag value" are both accepted for
        // the value-carrying observability flags.
        auto valueOf = [&](const char *flag,
                           std::string &out) -> bool {
            if (a == flag) {
                out = next();
                return true;
            }
            std::string pfx = std::string(flag) + "=";
            if (a.rfind(pfx, 0) == 0) {
                out = a.substr(pfx.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (a == "--threads")
            opt.threads = static_cast<unsigned>(std::atoi(next()));
        else if (a == "--iters")
            opt.iterations =
                static_cast<unsigned>(std::atoi(next()));
        else if (a == "--seed")
            opt.seed = static_cast<std::uint64_t>(
                std::strtoull(next(), nullptr, 10));
        else if (a == "--quick")
            opt.threads = 16;
        else if (a == "--fresh")
            opt.fresh = true;
        else if (a == "--legacy-tick")
            Simulator::setDefaultCoreMode(SimCoreMode::Legacy);
        else if (valueOf("--profile", v))
            opt.profileFilter = v;
        else if (a == "--coh-ledger")
            opt.cohLedger = true;
        else if (a == "--coh-breakdown") {
            // The breakdown table is rendered from ledger cause
            // counters, so the flag implies --coh-ledger.
            opt.cohBreakdown = true;
            opt.cohLedger = true;
        }
        else if (a == "--wake-profile")
            // Process-wide so runs deep inside the result cache /
            // parallel runner are profiled too.
            Simulator::setDefaultWakeProfile(true);
        else if (a == "--jobs")
            opt.jobs = static_cast<unsigned>(std::atoi(next()));
        else if (a == "--trace")
            opt.traceCats = "all"; // bare form: everything
        else if (valueOf("--trace", v))
            opt.traceCats = v;
        else if (valueOf("--trace-out", v))
            opt.traceOut = v;
        else if (valueOf("--trace-capacity", v))
            opt.traceCapacity = static_cast<std::size_t>(
                std::strtoull(v.c_str(), nullptr, 10));
        else if (valueOf("--stats-json", v))
            opt.statsJson = v;
        else if (valueOf("--telemetry-interval", v))
            opt.telemetryInterval = static_cast<Cycle>(
                std::strtoull(v.c_str(), nullptr, 10));
        else if (valueOf("--telemetry-out", v))
            opt.telemetryOut = v;
        else if (a == "--pool-util")
            opt.poolUtil = true;
        else if (a == "--check")
            opt.checkList = "all"; // bare form: every checker
        else if (valueOf("--check", v))
            opt.checkList = v;
        else if (valueOf("--replay", v))
            opt.replay = v;
        else if (valueOf("--deadline", v))
            opt.deadline = std::strtod(v.c_str(), nullptr);
        else {
            std::fprintf(stderr,
                         "unknown flag %s\n"
                         "usage: %s [--threads N] [--iters N] "
                         "[--seed N] [--quick] [--fresh] "
                         "[--legacy-tick] "
                         "[--profile P] [--coh-ledger] "
                         "[--coh-breakdown] [--wake-profile] "
                         "[--jobs N] [--trace[=CATS]] "
                         "[--trace-out FILE] [--trace-capacity N] "
                         "[--stats-json FILE] "
                         "[--telemetry-interval N] "
                         "[--telemetry-out FILE] [--pool-util] "
                         "[--check[=LIST]] [--deadline SEC] "
                         "[--replay DUMP]\n",
                         a.c_str(), argv[0]);
            std::exit(1);
        }
    }

    // Crash capture is always armed: a fatal signal leaves
    // crash_<prog>.dump behind, ready for --replay.
    std::string prog = argv[0] ? argv[0] : "bench";
    auto slash = prog.find_last_of('/');
    if (slash != std::string::npos)
        prog = prog.substr(slash + 1);
    crashdump::install("crash_" + prog + ".dump");

    // --replay short-circuits the bench entirely: one deterministic
    // re-run of the dumped configuration, then exit.
    if (!opt.replay.empty())
        std::exit(runReplay(opt.replay));
    return opt;
}

/**
 * Install the Options' --deadline on @p runner (no-op when it is 0,
 * keeping the sweep bit-identical to an unsupervised run).
 */
inline void
superviseRunner(ParallelRunner &runner, const Options &opt)
{
    if (opt.deadline > 0.0)
        runner.setSupervision({opt.deadline});
}

/**
 * Report degraded outcomes of the last sweep and return the bench
 * exit code: 0 for a clean sweep, kExitDegraded (75) when requests
 * timed out or failed but the sweep completed.
 */
inline int
sweepExitStatus(const ParallelRunner &runner)
{
    if (runner.degradedRuns() == 0)
        return 0;
    const auto outcomes = runner.outcomes();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        if (o.status == RunStatus::Ok)
            continue;
        std::fprintf(stderr,
                     "degraded request %zu: %s%s%s\n",
                     i, runStatusName(o.status),
                     o.detail.empty() ? "" : " -- ",
                     o.detail.c_str());
    }
    std::fprintf(stderr,
                 "sweep degraded: %llu of %zu requests did not "
                 "complete cleanly (exit %d)\n",
                 static_cast<unsigned long long>(
                     runner.degradedRuns()),
                 outcomes.size(), kExitDegraded);
    return kExitDegraded;
}

/** The shared cache (per-working-directory TSV). */
inline ResultCache
cacheFor(const Options &opt)
{
    if (opt.fresh) {
        // A throwaway file name so nothing is reused or polluted.
        return ResultCache("/dev/null");
    }
    return ResultCache("ocor_results.tsv");
}

/** Open @p path for writing, aborting loudly on failure. */
inline std::ofstream
openArtifact(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return out;
}

/**
 * The --stats-json export shared by every suite bench: the runner's
 * sweep counters (cache hit rates, pool utilization, degraded runs)
 * plus the process-global run aggregates — "sim.wall.*" wall-clock
 * phase totals and, after any --wake-profile run, "sim.wake.*" wake
 * attribution. No-op without --stats-json.
 */
inline void
dumpStatsJson(const Options &opt, ParallelRunner *runner)
{
    if (opt.statsJson.empty())
        return;
    StatsRegistry reg;
    if (runner)
        runner->registerStats(reg);
    registerAggregateStats(reg);
    std::ofstream out = openArtifact(opt.statsJson);
    reg.dumpJson(out);
    std::printf("stats: %zu entries -> %s\n", reg.size(),
                opt.statsJson.c_str());
}

/**
 * Export @p tracer to @p path: the Chrome trace-event JSON backend
 * unless the file name ends in ".csv". Prints a one-line summary.
 */
inline void
writeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out = openArtifact(path);
    const bool csv = path.size() >= 4 &&
        path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        tracer.exportCsv(out);
    else
        tracer.exportChromeJson(out);
    std::printf("trace: %llu events recorded (%llu overwritten) "
                "-> %s\n",
                static_cast<unsigned long long>(tracer.emitted()),
                static_cast<unsigned long long>(tracer.dropped()),
                path.c_str());
}

/** Horizontal ASCII bar scaled to @p width at @p full. */
inline std::string
bar(double value, double full, unsigned width = 40)
{
    if (full <= 0.0)
        full = 1.0;
    double frac = value / full;
    if (frac < 0)
        frac = 0;
    if (frac > 1)
        frac = 1;
    unsigned n = static_cast<unsigned>(frac * width + 0.5);
    std::string s(n, '#');
    s.resize(width, ' ');
    return s;
}

/** Section header shared by all benches. */
inline void
banner(const char *what)
{
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s\n", what);
    std::printf("OCOR reproduction (Yao & Lu, ISCA 2016)\n");
    std::printf("=============================================="
                "==============================\n");
}

} // namespace ocor::bench

#endif // OCOR_BENCH_BENCH_UTIL_HH
