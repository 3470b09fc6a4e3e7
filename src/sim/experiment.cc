#include "sim/experiment.hh"

#include "common/log.hh"
#include "sim/crashdump.hh"
#include "workload/synthetic.hh"

namespace ocor
{

double
BenchmarkResult::cohImprovementPct() const
{
    double b = static_cast<double>(base.totalCoh());
    double o = static_cast<double>(ocor.totalCoh());
    return b == 0.0 ? 0.0 : 100.0 * (b - o) / b;
}

double
BenchmarkResult::roiImprovementPct() const
{
    double b = static_cast<double>(base.roiFinish);
    double o = static_cast<double>(ocor.roiFinish);
    return b == 0.0 ? 0.0 : 100.0 * (b - o) / b;
}

double
BenchmarkResult::spinWinImprovementPts() const
{
    return ocor.spinWinPct() - base.spinWinPct();
}

SystemConfig
makeSystemConfig(const ExperimentConfig &exp, bool ocor_enabled)
{
    SystemConfig cfg;
    cfg.mesh = SystemConfig::meshFor(exp.threads);
    cfg.numThreads = exp.threads;
    cfg.seed = exp.seed;
    if (exp.ocorOverrideSet)
        cfg.ocor = exp.ocorOverride;
    cfg.ocor.enabled = ocor_enabled;
    cfg.check = exp.check;
    return cfg;
}

RunMetrics
runOnce(const BenchmarkProfile &profile, const ExperimentConfig &exp,
        bool ocor_enabled, Simulator::Options opts)
{
    SystemConfig cfg = makeSystemConfig(exp, ocor_enabled);

    SyntheticParams wl = profile.workload;
    if (exp.iterationsOverride > 0)
        wl.iterations = exp.iterationsOverride;
    wl.lineBytes = cfg.mem.lineBytes;

    std::vector<Program> programs;
    programs.reserve(cfg.numThreads);
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        programs.push_back(buildSyntheticProgram(wl, exp.seed, t));

    // A crash inside run() dumps this exact configuration for
    // --replay (no-op unless a crash handler is installed).
    crashdump::RunScope scope(profile, exp, ocor_enabled);
    if (exp.cohLedger)
        opts.cohLedger = true;
    Simulator sim(cfg, std::move(programs), profile.traffic, opts);
    return sim.run();
}

BenchmarkResult
runComparison(const BenchmarkProfile &profile,
              const ExperimentConfig &exp)
{
    BenchmarkResult r;
    r.name = profile.name;
    r.suite = profile.suite;
    r.highCsRate = profile.highCsRate;
    r.highNetUtil = profile.highNetUtil;
    r.base = runOnce(profile, exp, false);
    r.ocor = runOnce(profile, exp, true);
    return r;
}

std::vector<BenchmarkResult>
runSuite(const std::vector<BenchmarkProfile> &profiles,
         const ExperimentConfig &exp)
{
    std::vector<BenchmarkResult> out;
    out.reserve(profiles.size());
    for (const auto &p : profiles)
        out.push_back(runComparison(p, exp));
    return out;
}

} // namespace ocor
