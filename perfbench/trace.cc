#include "trace.hh"

#include <cstdio>

namespace anic::perfbench {

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); i++) {
        if (spans[i].async)
            continue;
        self[i] += spans[i].endUs - spans[i].startUs;
        int64_t p = spans[i].parent;
        if (p >= 0)
            self[static_cast<size_t>(p)] -= spans[i].endUs - spans[i].startUs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); i++) {
        if (!spans[i].async)
            out[spans[i].layer] += self[i] * 1e-6;
    }
    return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

Tracer::Id
Tracer::begin(const char *name, const char *layer, uint64_t requestId)
{
    if (!enabled_)
        return kNone;
    Span s;
    s.name = name;
    s.layer = layer;
    s.startUs = nowUs();
    s.parent = stack_.empty() ? kNone : stack_.back();
    s.requestId = requestId;
    spans_.push_back(std::move(s));
    Id id = static_cast<Id>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::end(Id id)
{
    if (id == kNone)
        return;
    // Scopes close innermost first, so @p id is on top.
    spans_[static_cast<size_t>(id)].endUs = nowUs();
    stack_.pop_back();
}

void
Tracer::arg(Id id, std::string key, double value)
{
    if (id != kNone)
        spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key),
                                                          value);
}

Tracer::Id
Tracer::beginAsync(const char *name, const char *layer, uint64_t requestId)
{
    if (!enabled_)
        return kNone;
    Span s;
    s.name = name;
    s.layer = layer;
    s.startUs = nowUs();
    s.requestId = requestId;
    s.async = true;
    spans_.push_back(std::move(s));
    return static_cast<Id>(spans_.size() - 1);
}

void
Tracer::endAsync(Id id)
{
    if (id != kNone)
        spans_[static_cast<size_t>(id)].endUs = nowUs();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        // Async spans still open at exit (commands in flight) are
        // dropped rather than given a made-up end.
        if (s.async && s.endUs < s.startUs)
            continue;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"span\":%zu,\"parent\":%lld,"
                     "\"request\":%llu",
                     first ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                     s.startUs, s.endUs - s.startUs, s.async ? 2 : 1, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.requestId));
        for (const auto &[k, v] : s.args)
            std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
        std::fprintf(f, "}}");
        first = false;
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace anic::perfbench
