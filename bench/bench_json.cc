#include "bench_json.hh"

#include <mutex>

#include "crypto/cpu.hh"
#include "util/env.hh"

namespace anic::bench {

namespace detail {

std::string
recordLine(const char *bench, const char *metric, double value,
           JsonExtra extra)
{
    std::string line = "{\"bench\":\"";
    line += bench;
    line += "\",\"metric\":\"";
    line += metric;
    line += "\",\"value\":";
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", value);
    line += num;
    line += ",\"crypto_impl\":\"";
    line += crypto::activeCryptoImplName();
    line += "\"";
    for (const auto &[key, val] : extra) {
        line += ",\"";
        line += key;
        line += "\":\"";
        line += val;
        line += "\"";
    }
    line += "}";
    return line;
}

std::string
snapshotLine(const std::string &bench, const ScenarioTags &scenario,
             const sim::StatsRegistry &reg)
{
    std::string line = "{\"schema\":\"anic.registry.v2\",\"bench\":\"";
    line += bench;
    line += "\",\"crypto_impl\":\"";
    line += crypto::activeCryptoImplName();
    line += "\",\"scenario\":{";
    bool first = true;
    for (const auto &[key, val] : scenario) {
        if (!first)
            line += ",";
        first = false;
        line += "\"";
        line += key;
        line += "\":\"";
        line += val;
        line += "\"";
    }
    line += "},\"stats\":";
    reg.writeJson(line);
    line += "}";
    return line;
}

void
writeJsonLine(const std::string &line, const std::string &jsonPath)
{
    std::printf("%s\n", line.c_str());
    const std::string &path =
        jsonPath.empty() ? util::Env::benchJson() : jsonPath;
    if (!path.empty()) {
        if (std::FILE *f = std::fopen(path.c_str(), "a")) {
            std::fprintf(f, "%s\n", line.c_str());
            std::fclose(f);
        }
    }
}

void
writeSnapshotFile(const std::string &bench, const std::string &line)
{
    const std::string &dir = util::Env::snapshotDir();
    if (dir.empty())
        return;
    // One file per snapshot: <bench>.json, <bench>-2.json, ...
    // Callers flush in submission order, so numbering is stable; the
    // mutex only guards the map against concurrent ad-hoc writers.
    static std::mutex mu;
    static std::vector<std::pair<std::string, int>> seq;
    int n = 0;
    {
        std::lock_guard<std::mutex> lk(mu);
        for (auto &[name, cnt] : seq) {
            if (name == bench)
                n = ++cnt;
        }
        if (n == 0) {
            seq.emplace_back(bench, 1);
            n = 1;
        }
    }
    std::string path = dir + "/" + bench;
    if (n > 1) {
        path += "-";
        path += std::to_string(n);
    }
    path += ".json";
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n", line.c_str());
        std::fclose(f);
    }
}

void
writeTraceFile(const std::string &dump)
{
    const std::string &path = util::Env::traceFile();
    if (path.empty() || dump.empty())
        return;
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fwrite(dump.data(), 1, dump.size(), f);
        std::fclose(f);
    }
}

} // namespace detail

void
jsonRecord(sim::RunContext &ctx, const char *bench, const char *metric,
           double value, JsonExtra extra)
{
    ctx.json(detail::recordLine(bench, metric, value, extra));
}

void
emitRegistrySnapshot(sim::RunContext &ctx, const std::string &bench,
                     const ScenarioTags &scenario)
{
    std::string line = detail::snapshotLine(bench, scenario, ctx.registry());
    ctx.json(line);
    if (!util::Env::snapshotDir().empty())
        ctx.addSnapshot(bench, line);
    if (!util::Env::traceFile().empty())
        ctx.captureTraceDump();
}

} // namespace anic::bench
