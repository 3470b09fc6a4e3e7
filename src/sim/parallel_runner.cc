#include "sim/parallel_runner.hh"

#include <chrono>
#include <exception>

#include "common/log.hh"
#include "sim/crashdump.hh"

namespace ocor
{

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::TimedOut:
        return "timed-out";
      case RunStatus::Failed:
        return "failed";
    }
    return "?";
}

ParallelRunner::ParallelRunner(unsigned jobs, ResultCache *cache)
    : pool_(jobs), cache_(cache)
{
}

ParallelRunner::~ParallelRunner()
{
    stopWatchdog();
}

void
ParallelRunner::setSupervision(const SupervisePolicy &policy)
{
    policy_ = policy;
    if (policy_.deadlineSeconds > 0.0 && !watchdog_.joinable()) {
        wdStop_ = false;
        watchdog_ = std::thread([this]() { watchdogLoop(); });
    }
    if (policy_.deadlineSeconds <= 0.0)
        stopWatchdog();
}

void
ParallelRunner::stopWatchdog()
{
    {
        std::lock_guard<std::mutex> lk(wdMu_);
        wdStop_ = true;
    }
    wdCv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();
}

double
ParallelRunner::deadlineFor(const RunRequest &req) const
{
    if (policy_.deadlineSeconds <= 0.0)
        return 0.0;
    const unsigned iters = req.exp.iterationsOverride > 0
        ? req.exp.iterationsOverride
        : req.profile.workload.iterations;
    // Simulated work grows roughly linearly in threads x iterations;
    // the base deadline covers the 16-thread 4-iteration quick
    // configuration and is never scaled below itself.
    const double scale = (req.exp.threads / 16.0) * (iters / 4.0);
    return policy_.deadlineSeconds * std::max(1.0, scale);
}

std::uint64_t
ParallelRunner::armDeadline(double seconds, CancelToken *token)
{
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lk(wdMu_);
        id = nextArmId_++;
        active_[id] = {std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(seconds)),
                       token};
    }
    wdCv_.notify_all();
    return id;
}

void
ParallelRunner::disarmDeadline(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(wdMu_);
    active_.erase(id);
}

void
ParallelRunner::watchdogLoop()
{
    std::unique_lock<std::mutex> lk(wdMu_);
    while (!wdStop_) {
        if (active_.empty()) {
            wdCv_.wait(lk);
            continue;
        }
        // Earliest pending deadline; fire every expired token.
        auto now = std::chrono::steady_clock::now();
        auto soonest = now + std::chrono::hours(24);
        for (auto it = active_.begin(); it != active_.end();) {
            if (it->second.deadlineAt <= now) {
                it->second.token->cancel();
                it = active_.erase(it);
            } else {
                soonest = std::min(soonest, it->second.deadlineAt);
                ++it;
            }
        }
        if (!active_.empty() || soonest > now)
            wdCv_.wait_until(lk, soonest);
    }
}

RunMetrics
ParallelRunner::runOne(const RunRequest &req)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    RunMetrics m = cache_
        ? cache_->get(req.profile, req.exp, req.ocorEnabled)
        : runOnce(req.profile, req.exp, req.ocorEnabled);
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        runSeconds_.sample(secs);
        ++runsExecuted_;
    }
    crashdump::noteRunnerProgress(runsExecuted(), degradedRuns());
    return m;
}

RunMetrics
ParallelRunner::runSupervised(const RunRequest &req,
                              RunOutcome &outcome)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const double deadline = deadlineFor(req);
    CancelToken token;
    Simulator::Options opts;
    opts.cancel = &token;
    const std::uint64_t armId = armDeadline(deadline, &token);
    RunMetrics m;
    bool threw = false;
    try {
        m = cache_
            ? cache_->get(req.profile, req.exp, req.ocorEnabled, opts)
            : runOnce(req.profile, req.exp, req.ocorEnabled, opts);
    } catch (const std::exception &e) {
        threw = true;
        outcome.detail = e.what();
    }
    disarmDeadline(armId);
    outcome.seconds =
        std::chrono::duration<double>(clock::now() - t0).count();

    // A throwing run leaves m default-constructed: neither flag set.
    if (m.cancelled) {
        outcome.status = RunStatus::TimedOut;
        outcome.detail = "deadline of " + std::to_string(deadline) +
            "s exceeded";
    } else if (threw || m.hangDetected) {
        outcome.status = RunStatus::Failed;
        if (!threw)
            outcome.detail = "forward-progress watchdog fired";
    }
    const bool ok = outcome.status == RunStatus::Ok;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        runSeconds_.sample(outcome.seconds);
        ++runsExecuted_;
        if (outcome.status == RunStatus::TimedOut)
            ++timeouts_;
        else if (outcome.status == RunStatus::Failed)
            ++failures_;
        if (!ok)
            ++degraded_;
    }
    crashdump::noteRunnerProgress(runsExecuted(), degradedRuns());
    if (ok)
        return m;

    ocor_warn("supervised run %s %s (%s)",
              makeCacheKey(req.profile, req.exp, req.ocorEnabled)
                  .toString()
                  .c_str(),
              runStatusName(outcome.status), outcome.detail.c_str());
    // Empty-but-well-formed placeholder for the degraded request, so
    // downstream percentage math (which guards division by zero)
    // keeps working.
    RunMetrics empty;
    empty.threads = req.exp.threads;
    return empty;
}

SampleStat
ParallelRunner::runSeconds() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return runSeconds_;
}

std::uint64_t
ParallelRunner::runsExecuted() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return runsExecuted_;
}

std::vector<RunOutcome>
ParallelRunner::outcomes() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return outcomes_;
}

std::uint64_t
ParallelRunner::degradedRuns() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return degraded_;
}

std::uint64_t
ParallelRunner::timeouts() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return timeouts_;
}

std::uint64_t
ParallelRunner::failures() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return failures_;
}

double
ParallelRunner::utilization(double elapsed_seconds) const
{
    if (elapsed_seconds <= 0.0 || pool_.size() == 0)
        return 0.0;
    const double busy =
        static_cast<double>(pool_.totalBusyNs()) * 1e-9;
    return busy / (elapsed_seconds * pool_.size());
}

void
ParallelRunner::registerStats(StatsRegistry &reg,
                              const std::string &prefix)
{
    reg.addScalarFn(prefix + ".pool.size", [this]() {
        return static_cast<double>(pool_.size());
    });
    reg.addScalarFn(prefix + ".pool.tasks_executed", [this]() {
        return static_cast<double>(pool_.tasksExecuted());
    });
    reg.addScalarFn(prefix + ".pool.queue_depth", [this]() {
        return static_cast<double>(pool_.queueDepth());
    });
    reg.addScalarFn(prefix + ".pool.busy_ns_total", [this]() {
        return static_cast<double>(pool_.totalBusyNs());
    });
    for (unsigned w = 0; w < pool_.size(); ++w)
        reg.addScalarFn(
            prefix + ".pool.worker" + std::to_string(w) + ".busy_ns",
            [this, w]() {
                return static_cast<double>(pool_.busyNs(w));
            });
    reg.addScalarFn(prefix + ".runs", [this]() {
        return static_cast<double>(runsExecuted());
    });
    reg.addScalarFn(prefix + ".run_seconds_mean", [this]() {
        return runSeconds().mean();
    });
    reg.addScalarFn(prefix + ".run_seconds_max", [this]() {
        SampleStat s = runSeconds();
        return s.count() ? s.max() : 0.0;
    });
    reg.addScalarFn(prefix + ".timeouts", [this]() {
        return static_cast<double>(timeouts());
    });
    reg.addScalarFn(prefix + ".failures", [this]() {
        return static_cast<double>(failures());
    });
    reg.addScalarFn(prefix + ".degraded", [this]() {
        return static_cast<double>(degradedRuns());
    });
}

std::vector<RunMetrics>
ParallelRunner::run(const std::vector<RunRequest> &reqs)
{
    const bool supervised = policy_.deadlineSeconds > 0.0;
    // Outcomes exist only under supervision: the unsupervised engine
    // has no degraded states to report.
    std::vector<RunOutcome> outs(supervised ? reqs.size() : 0);

    std::vector<std::future<RunMetrics>> futs;
    futs.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RunRequest &req = reqs[i];
        if (supervised) {
            RunOutcome &out = outs[i];
            futs.push_back(pool_.run([this, &req, &out]() {
                return runSupervised(req, out);
            }));
        } else {
            futs.push_back(
                pool_.run([this, &req]() { return runOne(req); }));
        }
    }

    std::vector<RunMetrics> out;
    out.reserve(reqs.size());
    for (auto &f : futs)
        out.push_back(f.get());
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        outcomes_ = std::move(outs);
    }
    return out;
}

std::vector<BenchmarkResult>
ParallelRunner::runComparisons(
    const std::vector<BenchmarkProfile> &profiles,
    const std::vector<ExperimentConfig> &exps)
{
    if (profiles.size() != exps.size())
        ocor_panic("ParallelRunner: %zu profiles for %zu configs",
                   profiles.size(), exps.size());

    // Two requests per pair, interleaved base/ocor so both halves of
    // a comparison start early.
    std::vector<RunRequest> reqs;
    reqs.reserve(2 * profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        reqs.push_back({profiles[i], exps[i], false});
        reqs.push_back({profiles[i], exps[i], true});
    }
    std::vector<RunMetrics> metrics = run(reqs);

    std::vector<BenchmarkResult> out;
    out.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        BenchmarkResult r;
        r.name = profiles[i].name;
        r.suite = profiles[i].suite;
        r.highCsRate = profiles[i].highCsRate;
        r.highNetUtil = profiles[i].highNetUtil;
        r.base = metrics[2 * i];
        r.ocor = metrics[2 * i + 1];
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<BenchmarkResult>
ParallelRunner::runSuite(const std::vector<BenchmarkProfile> &profiles,
                         const ExperimentConfig &exp)
{
    std::vector<ExperimentConfig> exps(profiles.size(), exp);
    return runComparisons(profiles, exps);
}

std::vector<BenchmarkResult>
runSuiteParallel(const std::vector<BenchmarkProfile> &profiles,
                 const ExperimentConfig &exp, unsigned jobs)
{
    ParallelRunner runner(jobs);
    return runner.runSuite(profiles, exp);
}

} // namespace ocor
