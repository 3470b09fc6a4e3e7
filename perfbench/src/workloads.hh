/**
 * @file
 * The benchmark's workloads (can64, lockstorm64, sweep16), the
 * direct build-programs-then-Simulator path they time, and the
 * output checks every run must pass.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/simulator.hh"

#include "metric_set.hh"

namespace perfbench
{

/** Inputs of one simulation, built exactly as ocor::runOnce builds
 * them, so setup and run time the program users run. */
struct SimInput
{
    ocor::SystemConfig cfg;
    std::vector<ocor::Program> programs;
    ocor::BgTrafficConfig bg;
    ocor::SimOptions opts;
};

SimInput makeSimInput(const ocor::BenchmarkProfile &profile,
                      const ocor::ExperimentConfig &exp,
                      bool ocor_enabled);

/**
 * Field-by-field image of @p m (doubles in hex, so equal text means
 * bit-identical). The five COH cause counters are left out: they are
 * the ledger's refinement of blockedIdleCycles, zero without the
 * ledger, and checked by their sum instead.
 */
std::string fingerprint(const ocor::RunMetrics &m);

/**
 * What the ResultCache journal keeps of @p m: per-thread counters
 * summed into one entry and doubles rounded through the journal's
 * text form. A warm read must equal this image field for field.
 */
ocor::RunMetrics journalImage(const ocor::RunMetrics &m);

/** Double fields of @p m that the journal's text form changes. */
unsigned roundedFields(const ocor::RunMetrics &m);

/** SimOptions of the traced run: wall split, wake profile, ledger. */
ocor::SimOptions tracedOptions();

/**
 * High-CS lock storm: the `can` lock/CS shape with background
 * traffic off, a short compute gap and many iterations, so the NoC
 * carries only 1-flit lock packets and L1/L2/MC stay idle.
 */
ocor::BenchmarkProfile lockstormProfile();

/** One benchmark invocation. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    /** 16 threads, 1 iteration, one unit: for the benchmark's tests. */
    bool tiny = false;
    /** Directory for fingerprints, traces and temporary journals. */
    std::string stateDir = ".";
    /** Committed reference fingerprints ("" or a missing file: none). */
    std::string reference;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricSet metrics;
};

/** Run one workload (can64, lockstorm64 or sweep16) on input set
 * rc.seed mod 32; throws std::invalid_argument on any other name. */
RunResult runWorkload(const RunConfig &rc);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
