#include "workloads.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/parallel_runner.hh"
#include "sim/result_cache.hh"
#include "sim/wake_profiler.hh"
#include "workload/synthetic.hh"

#include "layers.hh"
#include "spans.hh"

namespace perfbench
{

using namespace ocor;
namespace fs = std::filesystem;

namespace
{

using clock = std::chrono::steady_clock;

// --- workload sizes (see perfbench/README.md for why) ---------------

/** can64: pairs per run, each at its own seed, and CSs per thread. */
constexpr unsigned kCanUnits = 2;
constexpr unsigned kCanIterations = 2;

/** lockstorm64: pairs per run, compute gap and CSs per thread. */
constexpr unsigned kStormUnits = 4;
constexpr std::uint64_t kStormGap = 5000;
constexpr unsigned kStormIterations = 40;

/** Input sets: --seed N runs set N mod kInputSets, and every set has
 * committed reference fingerprints. */
constexpr std::uint64_t kInputSets = 32;

/** Seed stride between the units of one run. */
constexpr std::uint64_t kUnitSeedStride = 1000;

/** Set-up passes per setup_s sample, and samples taken before each
 * simulation (can64, lockstorm64) or around each pass (sweep16). */
constexpr unsigned kCanSetupPasses = 12;
constexpr unsigned kCanSetupSamples = 8;
constexpr unsigned kStormSetupPasses = 6;
constexpr unsigned kStormSetupSamples = 4;
constexpr unsigned kSweepSetupPasses = 6;
constexpr unsigned kSweepSetupSamples = 16;

/** Paper Table-3 averages, the only reference for sweep16. */
constexpr double kPaperCohPct = 39.9;
constexpr double kPaperRoiPct = 14.4;

double
since(clock::time_point t0)
{
    return std::chrono::duration<double>(clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** FNV-1a of a fingerprint, as 16 hex digits. */
std::string
hashHex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** Round a double through the journal's text form. */
double
journalRound(double v)
{
    std::ostringstream os;
    os << v;
    std::istringstream is(os.str());
    double back = 0.0;
    is >> back;
    return back;
}

unsigned
iterationsOf(const BenchmarkProfile &p, const ExperimentConfig &exp)
{
    return exp.iterationsOverride ? exp.iterationsOverride
                                  : p.workload.iterations;
}

/** Counts operations and their failures into a RunResult. */
class Ops
{
  public:
    explicit Ops(RunResult &r) : r_(r) {}

    /** One attempted operation; it failed if @p problems is set. */
    void
    record(const std::string &what,
           const std::vector<std::string> &problems)
    {
        ++r_.attempted;
        if (problems.empty())
            return;
        ++r_.failed;
        r_.correct = false;
        for (const std::string &p : problems)
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                         what.c_str(), p.c_str());
    }

  private:
    RunResult &r_;
};

/**
 * Fingerprints of earlier runs, keyed by what was simulated. They come
 * from the committed reference (perfbench/reference/<workload>.tsv)
 * and, for keys it lacks, from earlier runs of the same binary in its
 * state directory. A line is "<key>\t<cycles>\t<hash>". A simulation
 * whose key is known must repeat its fingerprint exactly.
 */
class FingerprintStore
{
  public:
    FingerprintStore(const std::string &reference, std::string local)
        : local_(std::move(local))
    {
        load(reference, true);
        load(local_, false);
    }

    void
    check(const std::string &key, const RunMetrics &m,
          std::vector<std::string> &problems)
    {
        const Entry now{m.roiFinish, hashHex(fingerprint(m)), false};
        const auto [it, fresh] = known_.try_emplace(key, now);
        if (fresh) {
            added_.push_back(key);
            return;
        }
        if (!it->second.committed)
            ++unreferenced_;
        if (it->second.hash != now.hash)
            problems.push_back(
                std::string("fingerprint differs from the ") +
                (it->second.committed ? "committed reference"
                                      : "earlier run of this binary") +
                " (cycles " + std::to_string(now.cycles) + ", expected " +
                std::to_string(it->second.cycles) + ")");
    }

    /** Checks of this run that no committed reference covered. */
    std::size_t
    unreferenced() const
    {
        return unreferenced_ + added_.size();
    }

    /** Append the fingerprints first seen in this run to the state
     * directory's file. */
    void
    save() const
    {
        std::ofstream out(local_, std::ios::app);
        for (const std::string &key : added_) {
            const Entry &e = known_.at(key);
            out << key << '\t' << e.cycles << '\t' << e.hash << '\n';
        }
    }

  private:
    struct Entry
    {
        std::uint64_t cycles = 0;
        std::string hash;
        bool committed = false;
    };

    void
    load(const std::string &path, bool committed)
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) {
            std::istringstream fields(line);
            std::string key, cycles, hash;
            if (std::getline(fields, key, '\t') &&
                std::getline(fields, cycles, '\t') &&
                std::getline(fields, hash))
                known_.try_emplace(
                    key, Entry{std::stoull(cycles), hash, committed});
        }
    }

    std::string local_;
    std::map<std::string, Entry> known_;
    std::vector<std::string> added_;
    std::size_t unreferenced_ = 0;
};

/** The fingerprint store of @p rc's workload. */
FingerprintStore
openStore(const RunConfig &rc)
{
    return FingerprintStore(
        rc.reference,
        (fs::path(rc.stateDir) / ("fingerprints-" + rc.workload + ".tsv"))
            .string());
}

/** Say on stderr how much of the run the committed reference
 * covered. */
void
noteCoverage(const FingerprintStore &store, const RunConfig &rc)
{
    if (store.unreferenced())
        std::fprintf(stderr,
                     "perfbench: %zu simulation(s) of %s seed %llu have no "
                     "committed reference; they were checked against "
                     "earlier runs of this binary only\n",
                     store.unreferenced(), rc.workload.c_str(),
                     static_cast<unsigned long long>(rc.seed));
}

/**
 * Set-up samples taken at several points of a run, so that setup_s,
 * their median, sees the same stretch of host time as wall_s. A sample
 * times several passes of @p once and is divided by their number, so
 * that it is long enough to time steadily.
 */
class SetupSampler
{
  public:
    SetupSampler(unsigned passes, std::function<void()> once)
        : passes_(passes), once_(std::move(once))
    {
    }

    void
    take(unsigned samples)
    {
        for (unsigned s = 0; s < samples; ++s) {
            const auto t0 = clock::now();
            for (unsigned p = 0; p < passes_; ++p)
                once_();
            samples_.push_back(since(t0) / passes_);
        }
    }

    double
    seconds() const
    {
        return median(samples_);
    }

    /** Calls of @p once so far. */
    std::size_t
    calls() const
    {
        return samples_.size() * passes_;
    }

  private:
    unsigned passes_;
    std::function<void()> once_;
    std::vector<double> samples_;
};

/** A fresh directory for temporary journals, removed on exit. */
class TempDir
{
  public:
    TempDir(const std::string &parent, const std::string &tag)
        : path_(fs::path(parent) /
                ("tmp-" + tag + "-" + std::to_string(getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

/** Output checks every simulation must pass. */
void
checkRun(const RunMetrics &m, const SystemConfig &cfg,
         unsigned iterations, Simulator *sim, bool ledger,
         std::vector<std::string> &problems)
{
    if (m.hangDetected)
        problems.push_back("progress watchdog fired (hang)");
    if (m.cancelled)
        problems.push_back("run was cancelled");
    if (m.roiFinish >= cfg.maxCycles)
        problems.push_back("run hit maxCycles");
    if (sim)
        for (ThreadId t = 0; t < m.threads; ++t)
            if (!sim->system().core(t).finished()) {
                problems.push_back("thread " + std::to_string(t) +
                                   " did not finish");
                break;
            }
    const std::uint64_t want =
        static_cast<std::uint64_t>(cfg.numThreads) * iterations;
    if (m.totalAcquisitions() != want)
        problems.push_back("acquisitions " +
                           std::to_string(m.totalAcquisitions()) +
                           " != threads x iterations " +
                           std::to_string(want));
    if (!ledger)
        return;
    std::uint64_t causes = 0;
    for (const ThreadCounters &c : m.perThread)
        causes += c.cohTransferCycles + c.cohArbitrationCycles +
                  c.cohBackoffCycles + c.cohSleepCycles +
                  c.cohGrantGapCycles;
    if (causes != m.totalCoh())
        problems.push_back("ledger causes sum to " +
                           std::to_string(causes) + ", not totalCoh " +
                           std::to_string(m.totalCoh()));
    if (sim && sim->ledger() &&
        sim->ledger()->totalCycles() != m.totalCoh())
        problems.push_back("per-lock ledger does not sum to totalCoh");
}

/** A warm (journal) read must equal the journal image of the cold
 * result. */
void
checkWarm(const std::optional<RunMetrics> &warm, const RunMetrics &cold,
          std::vector<std::string> &problems)
{
    if (!warm)
        problems.push_back("missing from the reopened journal");
    else if (fingerprint(*warm) != fingerprint(journalImage(cold)))
        problems.push_back("journal read differs from the cold result");
}

// --- direct path: build programs, construct, run ---------------------

struct SimRun
{
    RunMetrics m;
    double ctorSeconds = 0.0;
    double runSeconds = 0.0; ///< Simulator::run's own wall profile
    double wallSeconds = 0.0; ///< build through destruction
};

SimRun
simulate(const BenchmarkProfile &profile, const ExperimentConfig &exp,
         bool ocor_enabled, bool traced, SpanLog *spans,
         LayerTotals *layers, std::vector<std::string> &problems)
{
    SimRun r;
    const auto t0 = clock::now();
    {
        SimInput in;
        {
            SpanLog::Scope s(spans, "program_build");
            in = makeSimInput(profile, exp, ocor_enabled);
        }
        if (traced)
            in.opts = tracedOptions();
        std::unique_ptr<Simulator> sim;
        const auto t1 = clock::now();
        {
            SpanLog::Scope s(spans, "simulator_ctor");
            sim = std::make_unique<Simulator>(
                in.cfg, std::move(in.programs), in.bg, in.opts);
        }
        r.ctorSeconds = since(t1);
        {
            SpanLog::Scope s(spans, "simulator_run");
            r.m = sim->run();
        }
        r.runSeconds = sim->wallProfile().totalSeconds;
        checkRun(r.m, in.cfg, iterationsOf(profile, exp), sim.get(),
                 in.opts.cohLedger, problems);
        if (layers) {
            layers->addMetrics(r.m, ocor_enabled);
            layers->addSimulator(*sim);
            layers->addWall(sim->wallProfile());
            layers->constructSeconds += r.ctorSeconds;
        }
    }
    r.wallSeconds = since(t0);
    return r;
}

struct DirectSpec
{
    BenchmarkProfile profile;
    unsigned threads = 64;
    unsigned iterations = 0;
    unsigned units = 1;
};

DirectSpec
directSpec(const std::string &name, bool tiny)
{
    DirectSpec s;
    if (name == "can64") {
        s.profile = profileByName("can");
        s.iterations = kCanIterations;
        s.units = kCanUnits;
    } else {
        s.profile = lockstormProfile();
        s.iterations = kStormIterations;
        s.units = kStormUnits;
    }
    if (tiny) {
        s.threads = 16;
        s.iterations = 1;
        s.units = 1;
    }
    return s;
}

ExperimentConfig
unitExp(const DirectSpec &s, std::uint64_t seed, unsigned unit)
{
    ExperimentConfig exp;
    exp.threads = s.threads;
    exp.seed = seed + unit * kUnitSeedStride;
    exp.iterationsOverride = s.iterations;
    return exp;
}

std::string
opName(const std::string &what, const ExperimentConfig &exp, bool oc)
{
    return what + " seed " + std::to_string(exp.seed) +
           (oc ? " ocor" : " base");
}

void
printQuality(const std::string &workload,
             const std::vector<BenchmarkResult> &pairs)
{
    MetricSet q;
    publishQuality(pairs, q);
    std::fprintf(stderr,
                 "perfbench: %s quality (sim, mean over %zu pairs): "
                 "COH reduction %.2f%%, ROI reduction %.2f%%, "
                 "spin-win gain %.2f pts\n",
                 workload.c_str(), pairs.size(),
                 q.value("coh_reduction_pct"),
                 q.value("roi_reduction_pct"),
                 q.value("spin_win_gain_pts"));
}

void
publishTrace(const SpanLog &spans, double traced_wall,
             double untraced_wall, const RunConfig &rc, MetricSet &out)
{
    out.set("trace.overhead_s", traced_wall - untraced_wall, "s");
    out.set("trace.overhead_share",
            untraced_wall > 0.0
                ? (traced_wall - untraced_wall) / untraced_wall
                : 0.0,
            "ratio");
    const std::string path =
        (fs::path(rc.stateDir) /
         ("trace-" + rc.workload + "-seed" + std::to_string(rc.seed) +
          ".json"))
            .string();
    if (spans.write(path))
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     path.c_str());
}

struct HarnessFigures
{
    double coldSeconds = 0.0;
    double warmSeconds = 0.0;
    double poolBusyShare = 0.0;
    double runSecondsMax = 0.0;
    std::uint64_t simulationsRun = 0;
    std::uint64_t rowsLoaded = 0;
    std::uint64_t parseErrors = 0;
    std::uint64_t roundedFields = 0;

    void
    publish(MetricSet &out) const
    {
        out.set("harness.cold_pass_s", coldSeconds, "s");
        out.set("harness.warm_pass_s", warmSeconds, "s");
        out.set("harness.pool_busy_share", poolBusyShare, "ratio");
        out.set("harness.run_s_max", runSecondsMax, "s");
        out.set("harness.simulations_run",
                static_cast<double>(simulationsRun), "count");
        out.set("harness.cache_rows_loaded",
                static_cast<double>(rowsLoaded), "count");
        out.set("harness.cache_parse_errors",
                static_cast<double>(parseErrors), "count");
        out.set("harness.cache_rounded_fields",
                static_cast<double>(roundedFields), "count");
    }
};

RunResult
runDirect(const RunConfig &rc)
{
    RunResult res;
    Ops ops(res);
    const DirectSpec spec = directSpec(rc.workload, rc.tiny);
    FingerprintStore store = openStore(rc);
    SpanLog span_log;
    SpanLog *spans = rc.trace ? &span_log : nullptr;
    LayerTotals layers;
    const std::string tag = rc.workload + (rc.tiny ? "-tiny" : "");

    // Set-up: build and construct every simulator of the run.
    const bool can = rc.workload == "can64";
    SetupSampler setup(can ? kCanSetupPasses : kStormSetupPasses, [&] {
        for (unsigned k = 0; k < spec.units; ++k)
            for (bool oc : {false, true}) {
                SimInput in = makeSimInput(
                    spec.profile, unitExp(spec, rc.seed, k), oc);
                Simulator sim(in.cfg, std::move(in.programs), in.bg,
                              in.opts);
            }
    });
    const unsigned setup_samples =
        rc.tiny ? 1 : can ? kCanSetupSamples : kStormSetupSamples;

    std::vector<BenchmarkResult> pairs;
    std::vector<double> pair_walls, traced_walls;
    double sim_cycles = 0.0, sim_seconds = 0.0;
    // One base + OCOR pair of unit @p unit; every simulation must
    // repeat the fingerprint the store knows for it.
    const auto run_pair = [&](unsigned unit, bool traced,
                              const std::string &what,
                              BenchmarkResult *pr) {
        const ExperimentConfig exp = unitExp(spec, rc.seed, unit);
        SpanLog::Scope pair_span(traced ? spans : nullptr,
                                 "pair seed " + std::to_string(exp.seed));
        double wall = 0.0;
        for (bool oc : {false, true}) {
            if (!rc.trace)
                setup.take(setup_samples);
            std::vector<std::string> problems;
            SimRun r = simulate(spec.profile, exp, oc, traced,
                                traced ? spans : nullptr,
                                traced ? &layers : nullptr, problems);
            store.check(opName(tag, exp, oc), r.m, problems);
            wall += r.wallSeconds;
            std::fprintf(stderr,
                         "perfbench: %s: %llu cycles, run %.3f s "
                         "(%.0f cycles/s), wall %.3f s\n",
                         opName(what, exp, oc).c_str(),
                         static_cast<unsigned long long>(r.m.roiFinish),
                         r.runSeconds,
                         static_cast<double>(r.m.roiFinish) / r.runSeconds,
                         r.wallSeconds);
            if (!traced) {
                sim_cycles += static_cast<double>(r.m.roiFinish);
                sim_seconds += r.runSeconds;
            }
            ops.record(opName(what, exp, oc), problems);
            if (pr)
                (oc ? pr->ocor : pr->base) = std::move(r.m);
        }
        return wall;
    };

    // Each unit runs once: a run has a fixed amount of work, sized to
    // take at least the benchmark's run_seconds.
    for (unsigned k = 0; k < spec.units; ++k) {
        BenchmarkResult pr;
        pr.name = spec.profile.name;
        pair_walls.push_back(run_pair(k, false, "run", &pr));
        if (rc.trace)
            traced_walls.push_back(
                run_pair(k, true, "traced run", nullptr));
        pairs.push_back(std::move(pr));
    }
    store.save();
    noteCoverage(store, rc);
    printQuality(rc.workload, pairs);

    MetricSet &out = res.metrics;
    if (!rc.trace) {
        out.set("wall_s", median(pair_walls), "s");
        out.set("sim_cycles_per_s", sim_cycles / sim_seconds,
                "cycles/s");
        out.set("setup_s", setup.seconds(), "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    layers.publish(out);
    publishQuality(pairs, out);
    // The harness layer is not on this path; its figures read 0.
    HarnessFigures{}.publish(out);
    out.set("workload.build_s", span_log.totalSeconds("program_build"),
            "s");
    publishTrace(span_log, median(traced_walls), median(pair_walls), rc,
                 out);
    return res;
}

// --- sweep16: the Table-3 quick sweep through the harness -----------

struct ColdPass
{
    std::vector<BenchmarkResult> results;
    double seconds = 0.0;
    double poolBusyShare = 0.0;
    double runSecondsMax = 0.0;
    std::uint64_t simulationsRun = 0;
    WallProfile wall;
    WakeStats wake;
};

ColdPass
coldPass(const std::string &journal,
         const std::vector<BenchmarkProfile> &profiles,
         const ExperimentConfig &exp, unsigned jobs, SpanLog *spans)
{
    resetRunAggregates();
    SpanLog::Scope pass_span(spans, "cold_pass");
    ColdPass c;
    std::unique_ptr<ResultCache> cache;
    {
        SpanLog::Scope s(spans, "result_cache_open");
        cache = std::make_unique<ResultCache>(journal);
        cache->rowsLoaded();
    }
    ParallelRunner runner(jobs, cache.get());
    const auto t0 = clock::now();
    {
        SpanLog::Scope s(spans, "parallel_runner_run");
        c.results = runner.runSuite(profiles, exp);
    }
    c.seconds = since(t0);
    {
        SpanLog::Scope s(spans, "result_cache_flush");
        cache->flush();
    }
    c.poolBusyShare = runner.utilization(c.seconds);
    c.runSecondsMax = runner.runSeconds().max();
    c.simulationsRun = cache->simulationsRun();
    c.wall = aggregateWall();
    c.wake = aggregateWake();
    return c;
}

RunResult
runSweep(const RunConfig &rc)
{
    RunResult res;
    Ops ops(res);
    std::vector<BenchmarkProfile> profiles = allProfiles();
    ExperimentConfig exp;
    exp.threads = 16;
    exp.seed = rc.seed;
    if (rc.tiny) {
        profiles.resize(2);
        exp.iterationsOverride = 1;
    }
    const unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    FingerprintStore store = openStore(rc);
    const std::string tag = rc.workload + (rc.tiny ? "-tiny" : "");
    SpanLog span_log;
    SpanLog *spans = rc.trace ? &span_log : nullptr;
    TempDir tmp(rc.stateDir, rc.workload);

    // Set-up, part 1: build and construct every simulation of the
    // sweep (what the workers do before simulating). The build and
    // construction shares are kept apart for the per-layer figures.
    double build = 0.0, ctor = 0.0;
    SetupSampler setup_sims(kSweepSetupPasses, [&] {
        for (const BenchmarkProfile &p : profiles)
            for (bool oc : {false, true}) {
                const auto t0 = clock::now();
                SimInput in = makeSimInput(p, exp, oc);
                build += since(t0);
                const auto t1 = clock::now();
                Simulator sim(in.cfg, std::move(in.programs), in.bg,
                              in.opts);
                ctor += since(t1);
            }
    });
    const unsigned setup_samples = rc.tiny ? 1 : kSweepSetupSamples;
    setup_sims.take(setup_samples);

    // Cold pass: simulate every pair into a fresh journal. The traced
    // run first repeats the untraced pass as its overhead reference.
    ColdPass untraced;
    if (rc.trace)
        untraced =
            coldPass(tmp.file("untraced.tsv"), profiles, exp, jobs,
                     nullptr);
    ExperimentConfig cold_exp = exp;
    if (rc.trace) {
        cold_exp.cohLedger = true;
        Simulator::setDefaultWakeProfile(true);
    }
    const std::string journal = tmp.file("journal.tsv");
    const ColdPass cold =
        coldPass(journal, profiles, cold_exp, jobs, spans);
    Simulator::setDefaultWakeProfile(false);

    ops.record("cold pass",
               cold.simulationsRun == 2 * profiles.size()
                   ? std::vector<std::string>{}
                   : std::vector<std::string>{
                         "simulated " + std::to_string(cold.simulationsRun) +
                         " of " + std::to_string(2 * profiles.size()) +
                         " runs"});
    std::uint64_t rounded = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i)
        for (bool oc : {false, true}) {
            const RunMetrics &m =
                oc ? cold.results[i].ocor : cold.results[i].base;
            std::vector<std::string> problems;
            SystemConfig cfg = makeSystemConfig(cold_exp, oc);
            checkRun(m, cfg, iterationsOf(profiles[i], exp), nullptr,
                     rc.trace, problems);
            if (rc.trace)
                store.check(opName(tag + " " + profiles[i].name, exp, oc),
                            oc ? untraced.results[i].ocor
                               : untraced.results[i].base,
                            problems);
            store.check(opName(tag + " " + profiles[i].name, exp, oc), m,
                        problems);
            rounded += roundedFields(m);
            ops.record(opName(profiles[i].name, exp, oc), problems);
        }
    store.save();
    noteCoverage(store, rc);
    setup_sims.take(setup_samples);

    // Set-up, part 2: open the journal and load it.
    SetupSampler setup_open(kSweepSetupPasses, [&] {
        ResultCache cache(journal);
        cache.rowsLoaded();
    });
    setup_open.take(setup_samples);

    // Warm pass: reopen the journal and re-request every pair; it
    // must simulate nothing and return the journal's image of the
    // cold results.
    HarnessFigures h;
    {
        SpanLog::Scope pass_span(spans, "warm_pass");
        std::unique_ptr<ResultCache> cache;
        {
            SpanLog::Scope s(spans, "result_cache_open");
            cache = std::make_unique<ResultCache>(journal);
            h.rowsLoaded = cache->rowsLoaded();
            h.parseErrors = cache->parseErrors();
        }
        ParallelRunner runner(jobs, cache.get());
        const auto t0 = clock::now();
        std::vector<BenchmarkResult> warm;
        {
            SpanLog::Scope s(spans, "parallel_runner_run");
            warm = runner.runSuite(profiles, cold_exp);
        }
        h.warmSeconds = since(t0);
        ops.record("warm pass",
                   cache->simulationsRun() == 0
                       ? std::vector<std::string>{}
                       : std::vector<std::string>{
                             "simulated " +
                             std::to_string(cache->simulationsRun()) +
                             " runs"});
        for (std::size_t i = 0; i < profiles.size(); ++i)
            for (bool oc : {false, true}) {
                std::vector<std::string> problems;
                checkWarm(oc ? warm[i].ocor : warm[i].base,
                          oc ? cold.results[i].ocor
                             : cold.results[i].base,
                          problems);
                ops.record(opName("warm " + profiles[i].name, exp, oc),
                           problems);
            }
    }
    setup_open.take(setup_samples);

    MetricSet q;
    publishQuality(cold.results, q);
    std::fprintf(stderr,
                 "perfbench: sweep16 Table-3 averages over %zu programs "
                 "(sim): COH reduction %.2f%% (paper %.1f%%), ROI "
                 "reduction %.2f%% (paper %.1f%%); the model is not "
                 "validated against hardware, so no error figure is "
                 "given\n",
                 profiles.size(), q.value("coh_reduction_pct"),
                 kPaperCohPct, q.value("roi_reduction_pct"),
                 kPaperRoiPct);

    MetricSet &out = res.metrics;
    if (!rc.trace) {
        out.set("wall_s", cold.seconds, "s");
        out.set("sim_cycles_per_s",
                static_cast<double>(cold.wall.cycles) /
                    cold.wall.totalSeconds,
                "cycles/s");
        out.set("setup_s", setup_sims.seconds() + setup_open.seconds(),
                "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // Only what RunMetrics and the process-wide aggregates carry is
    // observable through the harness; component counters read 0 here.
    LayerTotals layers;
    for (const BenchmarkResult &r : cold.results) {
        layers.addMetrics(r.base, false);
        layers.addMetrics(r.ocor, true);
    }
    layers.addWall(cold.wall);
    layers.wake = cold.wake;
    layers.constructSeconds = ctor / setup_sims.calls();
    layers.publish(out);
    publishQuality(cold.results, out);

    h.coldSeconds = cold.seconds;
    h.poolBusyShare = cold.poolBusyShare;
    h.runSecondsMax = cold.runSecondsMax;
    h.simulationsRun = cold.simulationsRun;
    h.roundedFields = rounded;
    h.publish(out);
    out.set("workload.build_s", build / setup_sims.calls(), "s");
    publishTrace(span_log, cold.seconds, untraced.seconds, rc, out);
    return res;
}

} // namespace

SimInput
makeSimInput(const BenchmarkProfile &profile, const ExperimentConfig &exp,
             bool ocor_enabled)
{
    SimInput in;
    in.cfg = makeSystemConfig(exp, ocor_enabled);
    SyntheticParams wl = profile.workload;
    if (exp.iterationsOverride > 0)
        wl.iterations = exp.iterationsOverride;
    wl.lineBytes = in.cfg.mem.lineBytes;
    in.programs.reserve(in.cfg.numThreads);
    for (ThreadId t = 0; t < in.cfg.numThreads; ++t)
        in.programs.push_back(buildSyntheticProgram(wl, exp.seed, t));
    in.bg = profile.traffic;
    in.opts.cohLedger = exp.cohLedger;
    return in;
}

std::string
fingerprint(const RunMetrics &m)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << m.roiFinish << ' ' << m.threads << '|';
    for (const ThreadCounters &c : m.perThread)
        os << c.computeCycles << ' ' << c.csCycles << ' '
           << c.blockedHeldCycles << ' ' << c.blockedIdleCycles << ' '
           << c.acquisitions << ' ' << c.spinWins << ' ' << c.sleepWins
           << ' ' << c.retries << ' ' << c.sleeps << ';';
    os << '|' << m.packetsInjected << ' ' << m.flitsInjected << ' '
       << m.lockPacketsInjected << ' ' << m.fastpathPackets << ' '
       << m.windowsOpened << ' ' << m.windowsClosed << ' '
       << m.windowCycles << ' ' << m.avgPacketLatency << ' '
       << m.avgLockPacketLatency << ' ' << m.avgDataPacketLatency << ' '
       << m.p50PacketLatency << ' ' << m.p95PacketLatency << ' '
       << m.p99PacketLatency << ' ' << m.p50LockHandover << ' '
       << m.p95LockHandover << ' ' << m.p99LockHandover << ' '
       << m.faultsInjected << ' ' << m.flitsDropped << ' '
       << m.flitsCorrupted << ' ' << m.crcRejects << ' '
       << m.retransmissions << ' ' << m.duplicatesDropped << ' '
       << m.watchdogRecoveries << ' ' << m.unrecoverable << ' '
       << m.hangDetected << ' ' << m.cancelled;
    return os.str();
}

RunMetrics
journalImage(const RunMetrics &m)
{
    RunMetrics j;
    j.roiFinish = m.roiFinish;
    j.threads = m.threads;
    ThreadCounters sum;
    for (const ThreadCounters &c : m.perThread) {
        sum.computeCycles += c.computeCycles;
        sum.csCycles += c.csCycles;
        sum.blockedHeldCycles += c.blockedHeldCycles;
        sum.blockedIdleCycles += c.blockedIdleCycles;
        sum.acquisitions += c.acquisitions;
        sum.spinWins += c.spinWins;
        sum.sleepWins += c.sleepWins;
        sum.retries += c.retries;
        sum.sleeps += c.sleeps;
        sum.cohTransferCycles += c.cohTransferCycles;
        sum.cohArbitrationCycles += c.cohArbitrationCycles;
        sum.cohBackoffCycles += c.cohBackoffCycles;
        sum.cohSleepCycles += c.cohSleepCycles;
        sum.cohGrantGapCycles += c.cohGrantGapCycles;
    }
    j.perThread.push_back(sum);
    j.packetsInjected = m.packetsInjected;
    j.flitsInjected = m.flitsInjected;
    j.lockPacketsInjected = m.lockPacketsInjected;
    j.windowsOpened = m.windowsOpened;
    j.windowsClosed = m.windowsClosed;
    j.windowCycles = m.windowCycles;
    j.avgPacketLatency = journalRound(m.avgPacketLatency);
    j.avgLockPacketLatency = journalRound(m.avgLockPacketLatency);
    j.avgDataPacketLatency = journalRound(m.avgDataPacketLatency);
    j.p50PacketLatency = journalRound(m.p50PacketLatency);
    j.p95PacketLatency = journalRound(m.p95PacketLatency);
    j.p99PacketLatency = journalRound(m.p99PacketLatency);
    j.p50LockHandover = journalRound(m.p50LockHandover);
    j.p95LockHandover = journalRound(m.p95LockHandover);
    j.p99LockHandover = journalRound(m.p99LockHandover);
    return j;
}

unsigned
roundedFields(const RunMetrics &m)
{
    unsigned n = 0;
    for (double v : {m.avgPacketLatency, m.avgLockPacketLatency,
                     m.avgDataPacketLatency, m.p50PacketLatency,
                     m.p95PacketLatency, m.p99PacketLatency,
                     m.p50LockHandover, m.p95LockHandover,
                     m.p99LockHandover})
        n += journalRound(v) != v;
    return n;
}

SimOptions
tracedOptions()
{
    SimOptions o;
    o.profileWall = true;
    o.wakeProfile = true;
    o.cohLedger = true;
    return o;
}

BenchmarkProfile
lockstormProfile()
{
    BenchmarkProfile p = profileByName("can");
    p.name = "lockstorm";
    p.traffic.rate = 0.0;
    p.workload.meanGap = kStormGap;
    p.workload.iterations = kStormIterations;
    return p;
}

RunResult
runWorkload(const RunConfig &rc)
{
    if (rc.workload != "can64" && rc.workload != "lockstorm64" &&
        rc.workload != "sweep16")
        throw std::invalid_argument("unknown workload: " + rc.workload);
    fs::create_directories(rc.stateDir);
    RunConfig set = rc;
    set.seed = rc.seed % kInputSets;
    if (set.seed != rc.seed)
        std::fprintf(stderr, "perfbench: seed %llu runs input set %llu\n",
                     static_cast<unsigned long long>(rc.seed),
                     static_cast<unsigned long long>(set.seed));
    return set.workload == "sweep16" ? runSweep(set) : runDirect(set);
}

} // namespace perfbench
