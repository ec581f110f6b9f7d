/**
 * @file
 * Self-tests of the benchmark: unit math known answers, span self
 * time, the output checks catching injected faults, bit-identical
 * simulated metrics per seed (and across event-queue
 * implementations), and agreement with BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "runner.hh"

using namespace anic;
using namespace anic::perfbench;

namespace {

/** A small run: set up once, report a shortened simulated window,
 *  no host-time continuation. */
RunResult
smallRun(const std::string &workload, double windowScale,
         bool injectFault = false)
{
    RunOptions o;
    o.workload = workload;
    o.seed = 11;
    o.seconds = 0;
    o.setupReps = 1;
    o.windowScale = windowScale;
    o.injectFault = injectFault;
    return runBenchmark(o);
}

double
metric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms) {
        if (m.name == name)
            return m.value;
    }
    ADD_FAILURE() << "no metric " << name;
    return -1;
}

/** Every simulated value a run reports for its window. */
std::vector<double>
simulatedValues(const RunResult &r)
{
    std::vector<double> v;
    for (const char *name : kSimulatedMetrics)
        v.push_back(metric(r.endToEnd, name));
    v.push_back(metric(r.info, "fail_ratio"));
    v.push_back(static_cast<double>(r.attempted));
    v.push_back(static_cast<double>(r.failed));
    return v;
}

} // namespace

// ------------------------------------------------------- unit math

TEST(UnitMath, TicksArePicoseconds)
{
    EXPECT_EQ(sim::ticksToSeconds(sim::kSecond), 1.0);
    EXPECT_EQ(sim::ticksToSeconds(sim::kMillisecond), 1e-3);
    EXPECT_EQ(ticksToUs(sim::kMicrosecond), 1.0);
    EXPECT_EQ(ticksToUs(1500 * sim::kNanosecond), 1.5);
}

TEST(UnitMath, BytesToGbitPerSecond)
{
    // 125 MB in one simulated second is exactly 1 Gbit/s.
    EXPECT_DOUBLE_EQ(gbitPerSecond(125'000'000, sim::kSecond), 1.0);
    // A 61.7 Gbit/s run over a 1 ms window: 7,712,500 bytes. Dividing
    // bytes*8 by picoseconds instead would print 0.06.
    EXPECT_NEAR(gbitPerSecond(7'712'500, sim::kMillisecond), 61.7, 1e-9);
    EXPECT_EQ(gbitPerSecond(1000, 0), 0.0);
}

TEST(UnitMath, RatiosAndMedian)
{
    EXPECT_EQ(ratio(1, 4), 0.25);
    EXPECT_EQ(ratio(1, 0), 0.0);
    EXPECT_EQ(ratio(1, 0, 1.0), 1.0);
    EXPECT_EQ(perThousand(5, 1000), 5.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

// ----------------------------------------------------------- tracing

TEST(Trace, SelfTimeSubtractsDirectChildren)
{
    std::vector<Span> s(5);
    s[0] = {"slice", "sim", 0, 100, -1, 0, false, {}};
    s[1] = {"check", "app", 10, 30, 0, 1, false, {}};
    s[2] = {"deltas", "nic", 40, 50, 0, 1, false, {}};
    s[3] = {"inner", "app", 42, 45, 2, 1, false, {}};
    s[4] = {"cmd", "nvmetcp", 0, 1000, -1, 7, true, {}}; // async: ignored
    std::map<std::string, double> self = selfSeconds(s);
    EXPECT_NEAR(self["sim"], 70e-6, 1e-12);
    EXPECT_NEAR(self["app"], 23e-6, 1e-12);
    EXPECT_NEAR(self["nic"], 7e-6, 1e-12);
    EXPECT_EQ(self.count("nvmetcp"), 0u);
}

TEST(Trace, RecordsNestingAndWritesChromeTrace)
{
    Tracer t(true);
    {
        Tracer::Scope outer(t, "outer", "sim", 3);
        Tracer::Scope inner(t, "inner", "app", 3);
        t.arg(inner.id(), "bytes", 42);
    }
    Tracer::Id a = t.beginAsync("cmd", "iscsi", 9);
    t.endAsync(a);
    Tracer off(false);
    EXPECT_EQ(off.begin("x", "sim"), Tracer::kNone);

    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, Tracer::kNone);
    EXPECT_TRUE(t.spans()[2].async);

    std::string path = ::testing::TempDir() + "perfbench_trace.json";
    ASSERT_TRUE(t.writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.str().find("\"cat\":\"app\""), std::string::npos);
    EXPECT_NE(body.str().find("\"bytes\":42"), std::string::npos);
    std::remove(path.c_str());
}

// -------------------------------------------------- correctness gate

TEST(CorrectnessGate, CleanRunPasses)
{
    RunResult r = smallRun("storage-rw", 0.25);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
}

TEST(CorrectnessGate, FlippedReadByteIsCaught)
{
    RunResult r = smallRun("storage-rw", 0.25, true);
    EXPECT_FALSE(r.correct);
    EXPECT_EQ(r.failed, 1u);
    EXPECT_GT(metric(r.info, "fail_ratio"), 0.0);
}

TEST(CorrectnessGate, FsmMutationIsCaught)
{
    // The mutation switch is read once per process, so the run goes
    // to a re-executed child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("ANIC_FSM_BUG", "confirm_off_by_one", 1);
            RunResult r = smallRun("https-offload", 1.0);
            std::exit(!r.correct && r.failed > 0 ? 3 : 0);
        },
        ::testing::ExitedWithCode(3), "");
}

// ------------------------------------------------------- determinism

class Determinism : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Determinism, SimulatedMetricsRepeatAcrossRunsAndQueues)
{
    const double scale = 0.1;
    std::vector<double> first = simulatedValues(smallRun(GetParam(), scale));
    std::vector<double> again = simulatedValues(smallRun(GetParam(), scale));
    setenv("ANIC_SIM_QUEUE", "heap", 1);
    std::vector<double> heap = simulatedValues(smallRun(GetParam(), scale));
    unsetenv("ANIC_SIM_QUEUE");
    // Bit-identical, not merely close.
    EXPECT_EQ(first, again);
    EXPECT_EQ(first, heap);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Determinism,
                         ::testing::Values("tcp-bulk", "https-offload",
                                           "storage-rw"));

// ------------------------------------------------------ BENCHMARK.json

TEST(BenchmarkJson, NamesMatchWhatTheRunsReport)
{
    std::ifstream in(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string body = ss.str();
    size_t e2e = body.find("\"end_to_end\"");
    size_t layer = body.find("\"per_layer\"");
    ASSERT_NE(e2e, std::string::npos);
    ASSERT_NE(layer, std::string::npos);

    std::vector<std::string> workloads, endToEnd, perLayer;
    std::regex entryRe("\\{\"name\":\\s*\"([^\"]+)\",\\s*"
                       "(?:\"why\"|\"unit\":\\s*\"([^\"]+)\",\\s*"
                       "\"better\":\\s*\"(higher|lower)\")");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entryRe);
         it != std::sregex_iterator(); ++it) {
        size_t pos = static_cast<size_t>(it->position());
        std::string entry = (*it)[1];
        if (pos > e2e)
            entry += std::string(" ") + (*it)[2].str() + " " + (*it)[3].str();
        (pos < e2e ? workloads : pos < layer ? endToEnd : perLayer)
            .push_back(entry);
    }
    EXPECT_EQ(workloads, std::vector<std::string>(std::begin(kWorkloadNames),
                                                  std::end(kWorkloadNames)));

    RunResult r = smallRun("storage-rw", 0.1);
    std::vector<std::string> reported;
    for (const Metric &m : r.endToEnd) {
        bool higher = m.name == "host_pkts_per_s" ||
                      m.name == "sim_goodput_gbps" ||
                      m.name == "offload_hit_ratio";
        reported.push_back(m.name + " " + m.unit + " " +
                           (higher ? "higher" : "lower"));
    }
    EXPECT_EQ(endToEnd, reported);
    std::vector<std::string> defs;
    for (const LayerMetric &m : perLayerMetrics())
        defs.push_back(m.name + " " + m.unit + " " +
                       (m.higherIsBetter ? "higher" : "lower"));
    EXPECT_EQ(perLayer, defs);
}
