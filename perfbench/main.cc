/**
 * @file
 * Benchmark entry point. One run of one workload:
 *
 *   perfbench --workload tcp-bulk|https-offload|storage-rw
 *             --seed N --seconds S --trace 0|1 [--trace-file PATH]
 *
 * prints every metric by name with its unit, then, as the last line
 * of standard output, one JSON object with the keys correct,
 * attempted, failed and metrics (end-to-end metrics with --trace 0,
 * per-layer metrics with --trace 1). Exits 1 when any output check
 * failed, 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.hh"

using namespace anic::perfbench;

namespace {

/** Never used while the benchmark was tuned: confirm claims on it. */
constexpr uint64_t kHeldOutSeed = 7919;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n"
                 "workloads: %s %s %s; held-out seed for claim "
                 "confirmation: %llu\n",
                 kWorkloadNames[0], kWorkloadNames[1], kWorkloadNames[2],
                 static_cast<unsigned long long>(kHeldOutSeed));
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-42s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "1") == 0;
        else if (a == "--trace-file")
            o.traceFile = v;
        else {
            usage();
            return 2;
        }
    }
    bool known = std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                           o.workload) != std::end(kWorkloadNames);
    if (!known || o.seconds < 0) {
        usage();
        return 2;
    }

    RunResult r = runBenchmark(o);
    std::printf("workload %s, seed %llu, %s run\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "untraced");
    printMetrics("end-to-end:", r.endToEnd);
    printMetrics("checks:", r.info);
    if (o.trace) {
        printMetrics("per-layer:", r.perLayer);
        printMetrics("workload diagnostics:", r.diagnostics);
    }
    for (const std::string &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());

    const std::vector<Metric> &out = o.trace ? r.perLayer : r.endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < out.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    }
    std::printf("}}\n");
    return r.correct ? 0 : 1;
}
