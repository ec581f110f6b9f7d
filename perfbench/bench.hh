/**
 * @file
 * Shared types of the repository benchmark: metrics, the unit
 * conversions every reported number goes through, and the interface
 * each workload implements.
 */

#ifndef ANIC_PERFBENCH_BENCH_HH
#define ANIC_PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.hh"
#include "net/link.hh"
#include "sim/registry.hh"
#include "sim/simulator.hh"
#include "trace.hh"

namespace anic::perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

// ------------------------------------------------------ unit math

/** Gbit/s for @p bytes moved in @p window simulated ticks. */
inline double
gbitPerSecond(uint64_t bytes, sim::Tick window)
{
    if (window == 0)
        return 0;
    return static_cast<double>(bytes) * 8.0 / sim::ticksToSeconds(window) /
           1e9;
}

/** @p num / @p den, or @p empty when nothing was counted. */
inline double
ratio(double num, double den, double empty = 0)
{
    return den > 0 ? num / den : empty;
}

/** @p count per thousand @p base. */
inline double
perThousand(double count, double base)
{
    return ratio(count * 1000.0, base);
}

/** Median (mean of the middle two for even sizes); 0 when empty. */
double median(std::vector<double> v);

/** Microseconds of simulated time. */
inline double
ticksToUs(sim::Tick t)
{
    return sim::ticksToSeconds(t) * 1e6;
}

// -------------------------------------------------------- workloads

/** Simulated warm-up at the end of every set-up. */
constexpr sim::Tick kWarmup = 20 * sim::kMillisecond;
/** One measured Simulator::runFor call. */
constexpr sim::Tick kSlice = sim::kMillisecond;

struct WorkloadConfig
{
    uint64_t seed = 1;
    /** Scales the reported simulated window (tests shrink it). */
    double windowScale = 1.0;
    /** Flips one byte of the first payload the benchmark checks in
     *  the window, so tests can show the check catches it. */
    bool injectFault = false;
    Tracer *tracer = nullptr;
};

/** What a workload reports for the simulated window. */
struct WindowStats
{
    uint64_t payloadBytes = 0; ///< verified application payload
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failure kind
    /** Per-request latency (closed loop), nearest-rank percentiles. */
    double latP50Us = 0;
    double latP99Us = 0;
    size_t latSamples = 0;
    uint64_t l5pFull = 0;  ///< L5P messages the NIC handled fully
    uint64_t l5pTotal = 0; ///< all L5P messages on offloaded directions
    bool hasL5p = false;
    std::vector<Metric> layer; ///< workload-specific per-layer metrics
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Slices whose simulated results are reported. */
    virtual int windowSlices() const = 0;

    /** World build, files, connect, offload install, warm-up. */
    virtual void setup() = 0;
    /** Zeroes window meters; statistics start here. */
    virtual void openWindow() = 0;
    /** Stops window meters and checks every window output. */
    virtual void closeWindow(WindowStats &out) = 0;

    virtual sim::Simulator &sim() = 0;
    virtual sim::StatsRegistry &registry() = 0;
    virtual net::Link &link() = 0;
    virtual core::Node &serverNode() = 0;
    virtual core::Node &clientNode() = 0;
    /** Simulated TCP connections (model state, not host sockets). */
    virtual size_t flows() const = 0;
    /** L5P record / PDU payload size the kernels are timed at. */
    virtual size_t messageBytes() const = 0;
};

extern const char *const kWorkloadNames[3];

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &cfg);

} // namespace anic::perfbench

#endif // ANIC_PERFBENCH_BENCH_HH
