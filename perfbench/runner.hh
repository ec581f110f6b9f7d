/**
 * @file
 * One benchmark run: repeated set-up, the measured window, output
 * checks, and every end-to-end and per-layer metric.
 */

#ifndef ANIC_PERFBENCH_RUNNER_HH
#define ANIC_PERFBENCH_RUNNER_HH

#include "bench.hh"

namespace anic::perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;  ///< host seconds the window runs at least
    bool trace = false;   ///< traced run: per-layer metrics + spans
    int setupReps = 5;    ///< set-ups per run; setup_s is their median
    double windowScale = 1.0;
    bool injectFault = false;
    std::string traceFile; ///< chrome-trace output of a traced run
};

struct RunResult
{
    bool correct = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> endToEnd; ///< untraced run
    std::vector<Metric> perLayer; ///< traced run
    /** Printed, not in the result object: fail_ratio, sample counts. */
    std::vector<Metric> info;
    /** Printed only: per-layer times of one workload's layers. */
    std::vector<Metric> diagnostics;
};

/** The simulated end-to-end metrics: they repeat bit for bit for one
 *  seed, whatever the host or the event-queue implementation. */
extern const char *const kSimulatedMetrics[5];

struct LayerMetric
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
};

/** Every per-layer metric a traced run reports, in order. */
const std::vector<LayerMetric> &perLayerMetrics();

RunResult runBenchmark(const RunOptions &opts);

} // namespace anic::perfbench

#endif // ANIC_PERFBENCH_RUNNER_HH
