/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * recorded only from the benchmark's own code, around its calls into
 * the simulator's layers, and written out as chrome-trace JSON at
 * exit. A layer's host self time is the duration of its spans minus
 * the time covered by their child spans.
 */

#ifndef ANIC_PERFBENCH_TRACE_HH
#define ANIC_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace anic::perfbench {

struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0; ///< host microseconds since the tracer started
    double endUs = 0;
    int64_t parent = -1;    ///< index of the enclosing span, -1 = root
    uint64_t requestId = 0; ///< shared by the spans of one request
    bool async = false;     ///< overlaps others (storage commands)
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Per-layer self time (seconds) of the synchronous spans: each span's
 * duration minus the durations of its direct children. Async spans
 * (which overlap unrelated work) are left out.
 */
std::map<std::string, double> selfSeconds(const std::vector<Span> &spans);

class Tracer
{
  public:
    using Id = int64_t;
    static constexpr Id kNone = -1;

    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    /** The runner toggles recording per measured slice. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Opens a span nested in the innermost open one. */
    Id begin(const char *name, const char *layer, uint64_t requestId = 0);
    void end(Id id);
    void arg(Id id, std::string key, double value);

    /** Opens a span that does not nest (ends in a later callback). */
    Id beginAsync(const char *name, const char *layer, uint64_t requestId);
    void endAsync(Id id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes every span as chrome-trace ("traceEvents") JSON. */
    bool writeChromeTrace(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, const char *layer,
              uint64_t requestId = 0)
            : t_(t), id_(t.begin(name, layer, requestId))
        {
        }
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Id id() const { return id_; }

      private:
        Tracer &t_;
        Id id_;
    };

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<Id> stack_;
};

} // namespace anic::perfbench

#endif // ANIC_PERFBENCH_TRACE_HH
