/**
 * @file
 * The benchmark binary:
 *
 *   perfbench --workload <can64|lockstorm64|sweep16> [--seed N]
 *             [--trace 0|1] [--tiny] [--state-dir DIR]
 *             [--reference FILE]
 *
 * Human-readable notes go to stderr; the last line on stdout is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 only when every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<can64|lockstorm64|sweep16> [--seed N] "
                 "[--trace 0|1] [--tiny] [--state-dir DIR] "
                 "[--reference FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig rc;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                rc.workload = next();
            else if (a == "--seed")
                rc.seed = std::stoull(next());
            else if (a == "--trace")
                rc.trace = std::stoi(next()) != 0;
            else if (a == "--tiny")
                rc.tiny = true;
            else if (a == "--state-dir")
                rc.stateDir = next();
            else if (a == "--reference")
                rc.reference = next();
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (rc.workload.empty())
        usage("--workload is required");

    perfbench::RunResult r;
    try {
        r = perfbench::runWorkload(rc);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
    std::fflush(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.metrics.toJson().c_str());
    return r.correct ? 0 : 1;
}
