#include "runner.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <map>

#include "kernels.hh"
#include "util/panic.hh"

namespace anic::perfbench {

const char *const kSimulatedMetrics[5] = {
    "sim_goodput_gbps", "sim_cycles_per_kib", "sim_lat_p50_us",
    "sim_lat_p99_us", "offload_hit_ratio"};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Counter and gauge values of a registry, by path. */
using Snap = std::map<std::string, double>;

Snap
snapshot(const sim::StatsRegistry &reg)
{
    Snap s;
    reg.forEach([&s](const std::string &path, const sim::InstrumentRef &r) {
        if (auto c = std::get_if<const sim::Counter *>(&r))
            s.emplace(path, static_cast<double>((*c)->value()));
        else if (auto g = std::get_if<const sim::Gauge *>(&r))
            s.emplace(path, (*g)->value());
    });
    return s;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Sum over every path ending in @p suffix (all nodes, all NICs). */
double
sum(const Snap &s, const std::string &suffix)
{
    double total = 0;
    for (const auto &[path, v] : s) {
        if (endsWith(path, suffix))
            total += v;
    }
    return total;
}

/** Registry view of one window: deltas between two snapshots. */
struct Delta
{
    const Snap &open;
    const Snap &close;

    double
    operator()(const std::string &suffix) const
    {
        return sum(close, suffix) - sum(open, suffix);
    }
};

/** One LinkStats field summed over both directions. */
uint64_t
linkTotal(net::Link &link, uint64_t net::LinkStats::*field)
{
    return link.stats(0).*field + link.stats(1).*field;
}

uint64_t
wirePackets(net::Link &link)
{
    return linkTotal(link, &net::LinkStats::delivered);
}

/** Counter suffixes attached to each traced slice, by layer. */
const std::vector<std::pair<const char *, std::vector<const char *>>> &
sliceCounters()
{
    static const std::vector<std::pair<const char *, std::vector<const char *>>>
        k = {
            {"net", {"sim.alloc.poolMisses", "sim.alloc.poolHits"}},
            {"nic",
             {".pktsRx", ".pktsTx", ".ctxCacheMisses", ".irqsFired",
              ".txResyncs", ".fsm.resyncRequests"}},
            {"tcp",
             {".tcp.dataPktsSent", ".tcp.acksSent", ".tcp.retransmits"}},
            {"tls", {".tls.recordsRx", ".tls.rxFullyOffloaded"}},
            {"host", {".itemsExecuted", ".busyCycles"}},
        };
    return k;
}

/**
 * Host packets, events and seconds over a set of slices, cut into
 * chunks of at least kChunkSeconds. The rate is the median of the
 * chunk rates, so a few seconds of interference from other work on
 * the host do not move it.
 */
class HostAcc
{
  public:
    static constexpr double kChunkSeconds = 0.25;

    void
    add(double pkts, double events, double seconds)
    {
        pkts_ += pkts;
        events_ += events;
        seconds_ += seconds;
        chunkPkts_ += pkts;
        chunkSeconds_ += seconds;
        if (chunkSeconds_ >= kChunkSeconds) {
            chunkRates_.push_back(chunkPkts_ / chunkSeconds_);
            chunkPkts_ = chunkSeconds_ = 0;
        }
    }

    /** Median chunk rate; the whole-window rate if no chunk closed. */
    double
    rate() const
    {
        return chunkRates_.empty() ? ratio(pkts_, seconds_)
                                   : median(chunkRates_);
    }

    double nsPerEvent() const { return ratio(seconds_ * 1e9, events_); }

  private:
    double pkts_ = 0;
    double events_ = 0;
    double seconds_ = 0;
    double chunkPkts_ = 0;
    double chunkSeconds_ = 0;
    std::vector<double> chunkRates_;
};

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Simulated-window metrics from the workload's report and the
 *  registry deltas. Everything here is deterministic for a seed. */
struct SimWindow
{
    WindowStats ws;
    Snap open;
    Snap close;
    sim::Tick window = 0;
    uint64_t pkts = 0;
    uint64_t events = 0;
    uint64_t drops = 0;
    uint64_t sent = 0;
    double busyServer = 0; ///< average busy cores
    double busyClient = 0;
    double busyCycles = 0;
    double searchingDwellP99Us = 0;
    double heapBytes = 0;
};

/** State captured when the simulated window opens. */
struct WindowStart
{
    Snap reg;
    sim::Tick now;
    uint64_t pkts, events, drops, sent;
    std::vector<sim::Tick> busyS, busyC;
    std::vector<double> cycS, cycC;

    explicit WindowStart(Workload &w)
        : reg(snapshot(w.registry())), now(w.sim().now()),
          pkts(wirePackets(w.link())), events(w.sim().eventsExecuted()),
          drops(linkTotal(w.link(), &net::LinkStats::dropped)),
          sent(linkTotal(w.link(), &net::LinkStats::sent)),
          busyS(w.serverNode().busySnapshot()),
          busyC(w.clientNode().busySnapshot()),
          cycS(w.serverNode().cycleSnapshot()),
          cycC(w.clientNode().cycleSnapshot())
    {
    }
};

/** Closes the workload's window and reads every simulated figure. */
SimWindow
closeSimWindow(Workload &w, const WindowStart &st)
{
    SimWindow sw;
    w.closeWindow(sw.ws);
    net::Link &link = w.link();
    sw.open = st.reg;
    sw.close = snapshot(w.registry());
    sw.window = w.sim().now() - st.now;
    sw.pkts = wirePackets(link) - st.pkts;
    sw.events = w.sim().eventsExecuted() - st.events;
    sw.drops = linkTotal(link, &net::LinkStats::dropped) - st.drops;
    sw.sent = linkTotal(link, &net::LinkStats::sent) - st.sent;
    sw.busyServer = w.serverNode().busyCores(st.busyS, sw.window);
    sw.busyClient = w.clientNode().busyCores(st.busyC, sw.window);
    sw.busyCycles = w.serverNode().busyCyclesSince(st.cycS) +
                    w.clientNode().busyCyclesSince(st.cycC);
    // The registry distribution has no window: this p99 covers every
    // FSM visit since set-up.
    w.registry().forEach(
        [&sw](const std::string &path, const sim::InstrumentRef &ref) {
            auto d = std::get_if<const sim::Distribution *>(&ref);
            if (d != nullptr && !(*d)->empty() &&
                endsWith(path, ".fsm.dwellSearchingNs"))
                sw.searchingDwellP99Us = std::max(
                    sw.searchingDwellP99Us, (*d)->percentile(99) / 1e3);
        });
    return sw;
}

void
addEndToEnd(RunResult &r, const SimWindow &w, double hostRate,
            double setupS, double rssMib)
{
    const WindowStats &ws = w.ws;
    double kib = static_cast<double>(ws.payloadBytes) / 1024.0;
    // tcp-bulk has no L5P messages: no message fell back to software,
    // so the ratio is reported as 1 there.
    double hit = ws.hasL5p ? ratio(static_cast<double>(ws.l5pFull),
                                   static_cast<double>(ws.l5pTotal))
                           : 1.0;
    r.endToEnd = {
        {"host_pkts_per_s", hostRate, "pkts/s"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mib", rssMib, "MiB"},
        {"sim_goodput_gbps", gbitPerSecond(ws.payloadBytes, w.window),
         "Gbit/s"},
        {"sim_cycles_per_kib", ratio(w.busyCycles, kib), "cycles/KiB"},
        {"sim_lat_p50_us", ws.latP50Us, "us"},
        {"sim_lat_p99_us", ws.latP99Us, "us"},
        {"offload_hit_ratio", hit, "ratio"},
    };
    r.info = {
        {"fail_ratio", ratio(static_cast<double>(ws.failed),
                             static_cast<double>(ws.attempted)),
         "ratio"},
        {"lat_samples", static_cast<double>(ws.latSamples), "count"},
        {"sim_window_ms", sim::ticksToSeconds(w.window) * 1e3, "ms"},
        {"window_pkts", static_cast<double>(w.pkts), "pkts"},
    };
}

void
addPerLayer(RunResult &r, const SimWindow &w, const HostAcc &untraced,
            const HostAcc &traced, const KernelTimes &k,
            const std::map<std::string, double> &self, size_t flows)
{
    Delta d{w.open, w.close};
    double pkts = static_cast<double>(w.pkts);
    double ctxMiss = d(".ctxCacheMisses");
    double dataSent = d(".tcp.dataPktsSent");
    double recordsRx = d(".tls.recordsRx");
    double fsmReq = d(".fsm.resyncRequests");
    std::map<std::string, double> m = {
        {"sim.events_per_pkt", ratio(static_cast<double>(w.events), pkts)},
        {"sim.host_ns_per_event", untraced.nsPerEvent()},
        {"sim.schedule_ns_per_event", k.schedNsPerEvent},
        {"net.pool_misses_per_kpkt",
         perThousand(d("sim.alloc.poolMisses"), pkts)},
        {"net.live_pkts_hwm", sum(w.close, "sim.alloc.livePacketsHwm")},
        {"net.toeplitz_ns_per_pkt", k.toeplitzNsPerPkt},
        {"net.pool_ns_per_op", k.poolNsPerOp},
        {"net.link_drop_ratio", ratio(static_cast<double>(w.drops),
                                      static_cast<double>(w.sent))},
        {"nic.ctx_miss_ratio",
         ratio(ctxMiss, ctxMiss + d(".ctxCacheHits"))},
        {"nic.ctx_evictions_per_kpkt",
         perThousand(d(".ctxCacheEvictions"), pkts)},
        {"nic.pcie_ctx_bytes_per_pkt",
         ratio(d(".pcie.ctxFetchBytes") + d(".pcie.ctxWritebackBytes") +
                   d(".pcie.ctxRecoveryBytes"),
               pkts)},
        {"nic.irqs_per_kpkt", perThousand(d(".irqsFired"), pkts)},
        {"nic.tx_resyncs_per_kpkt", perThousand(d(".txResyncs"), pkts)},
        {"nic.fsm.resync_requests", fsmReq},
        {"nic.fsm.resync_confirm_ratio",
         ratio(d(".fsm.resyncConfirmed"), fsmReq)},
        {"nic.fsm.msgs_covered_ratio",
         ratio(d(".fsm.msgsCovered"), d(".fsm.msgsCompleted"))},
        {"tcp.retransmit_ratio", ratio(d(".tcp.retransmits"), dataSent)},
        {"tcp.rto_fires", d(".tcp.rtoFires")},
        {"tcp.ooo_ratio",
         ratio(d(".tcp.oooPktsRcvd"), d(".tcp.dataPktsRcvd"))},
        {"tcp.acks_per_data_pkt", ratio(d(".tcp.acksSent"), dataSent)},
        {"tls.rx_full_ratio", ratio(d(".tls.rxFullyOffloaded"), recordsRx)},
        {"tls.rx_partial_ratio",
         ratio(d(".tls.rxPartiallyOffloaded"), recordsRx)},
        {"tls.tx_upcalls_per_krecord",
         perThousand(d(".tls.txMsgStateUpcalls"), d(".tls.recordsTx"))},
        {"crypto.gcm_ns_per_kib", k.gcmNsPerKib},
        {"crypto.crc32c_ns_per_kib", k.crcNsPerKib},
        {"host.busy_cores.server", w.busyServer},
        {"host.busy_cores.client", w.busyClient},
        {"host.items_per_pkt", ratio(d(".itemsExecuted"), pkts)},
        {"app.lat_samples", static_cast<double>(w.ws.latSamples)},
        {"mem.heap_bytes_per_flow",
         ratio(w.heapBytes, static_cast<double>(flows))},
        {"trace.overhead_ratio", ratio(traced.rate(), untraced.rate())},
    };
    double engineBytes = 0;
    for (const char *kind : {"tls", "nvme", "iscsi"}) {
        std::string stem = std::string(".engine.") + kind;
        m["nic.engine." + std::string(kind) + ".verified_ok"] =
            d(stem + ".verifiedOk");
        m["nic.engine." + std::string(kind) + ".verify_failures"] =
            d(stem + ".verifyFailures");
        engineBytes += d(stem + ".bytesTransformed") +
                       d(stem + ".bytesChecked");
    }
    m["nic.engine.tls.bytes_transformed_per_pkt"] =
        ratio(d(".engine.tls.bytesTransformed"), pkts);
    m["crypto.bytes_per_pkt"] = ratio(engineBytes, pkts);
    // Times that exist on one workload only are printed, not put in
    // the result object: 0 elsewhere, they would read the same on
    // every run.
    r.diagnostics = {{"nic.fsm.searching_dwell_p99_us", w.searchingDwellP99Us,
                      "us"}};
    for (const Metric &x : w.ws.layer) {
        if (x.unit == "us")
            r.diagnostics.push_back(x);
        else
            m[x.name] = x.value;
    }
    for (const auto &[layer, s] : self)
        m["trace.self_s." + layer] = s;

    for (const LayerMetric &def : perLayerMetrics()) {
        auto it = m.find(def.name);
        // A layer the workload does not run reports 0.
        r.perLayer.push_back(
            {def.name, it != m.end() ? it->second : 0.0, def.unit});
    }
}

} // namespace

const std::vector<LayerMetric> &
perLayerMetrics()
{
    static const std::vector<LayerMetric> defs = [] {
        std::vector<LayerMetric> d = {
            {"sim.events_per_pkt", "1/pkt", false},
            {"sim.host_ns_per_event", "ns/event", false},
            {"sim.schedule_ns_per_event", "ns/event", false},
            {"net.pool_misses_per_kpkt", "1/kpkt", false},
            {"net.live_pkts_hwm", "count", false},
            {"net.toeplitz_ns_per_pkt", "ns/pkt", false},
            {"net.pool_ns_per_op", "ns/op", false},
            {"net.link_drop_ratio", "ratio", false},
            {"nic.ctx_miss_ratio", "ratio", false},
            {"nic.ctx_evictions_per_kpkt", "1/kpkt", false},
            {"nic.pcie_ctx_bytes_per_pkt", "B/pkt", false},
            {"nic.irqs_per_kpkt", "1/kpkt", false},
            {"nic.tx_resyncs_per_kpkt", "1/kpkt", false},
            {"nic.fsm.resync_requests", "count", false},
            {"nic.fsm.resync_confirm_ratio", "ratio", true},
            {"nic.fsm.msgs_covered_ratio", "ratio", true},
        };
        for (const char *kind : {"tls", "nvme", "iscsi"}) {
            std::string stem = std::string("nic.engine.") + kind;
            d.push_back({stem + ".verified_ok", "count", true});
            d.push_back({stem + ".verify_failures", "count", false});
        }
        d.insert(d.end(), {
            {"nic.engine.tls.bytes_transformed_per_pkt", "B/pkt", true},
            {"tcp.retransmit_ratio", "ratio", false},
            {"tcp.rto_fires", "count", false},
            {"tcp.ooo_ratio", "ratio", false},
            {"tcp.acks_per_data_pkt", "1/pkt", false},
            {"tls.rx_full_ratio", "ratio", true},
            {"tls.rx_partial_ratio", "ratio", false},
            {"tls.tx_upcalls_per_krecord", "1/krecord", false},
        });
        for (const char *proto : {"nvmetcp", "iscsi"}) {
            std::string p(proto);
            d.insert(d.end(), {
                {p + ".digest_offload_ratio", "ratio", true},
                {p + ".placed_ratio", "ratio", true},
                {p + ".resync_requests", "count", false},
            });
        }
        d.insert(d.end(), {
            {"crypto.gcm_ns_per_kib", "ns/KiB", false},
            {"crypto.crc32c_ns_per_kib", "ns/KiB", false},
            {"crypto.bytes_per_pkt", "B/pkt", true},
            {"host.busy_cores.server", "cores", false},
            {"host.busy_cores.client", "cores", false},
            {"host.items_per_pkt", "1/pkt", false},
            {"app.lat_samples", "count", true},
            {"mem.heap_bytes_per_flow", "B/flow", false},
            {"trace.overhead_ratio", "ratio", true},
        });
        // Storage command spans are async (they overlap the slices
        // that carry them), so nvmetcp/iscsi have no self time.
        for (const char *layer : {"sim", "net", "nic", "core", "tcp", "tls",
                                  "crypto", "host", "app", "mem"})
            d.push_back({std::string("trace.self_s.") + layer, "s", false});
        return d;
    }();
    return defs;
}

RunResult
runBenchmark(const RunOptions &opts)
{
    RunResult r;
    Tracer tr(opts.trace);
    WorkloadConfig wc;
    wc.seed = opts.seed;
    wc.windowScale = opts.windowScale;
    wc.injectFault = opts.injectFault;
    wc.tracer = &tr;

    // Set-up, several times: the median is setup_s; the last world is
    // the one measured.
    std::vector<double> setupTimes;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < std::max(1, opts.setupReps); i++) {
        w.reset();
        auto t0 = Clock::now();
        w = makeWorkload(opts.workload, wc);
        if (w == nullptr) {
            r.failures.push_back("unknown workload " + opts.workload);
            return r;
        }
        w->setup();
        setupTimes.push_back(secondsSince(t0));
    }

    int windowSlices = w->windowSlices();
    sim::Simulator &sim = w->sim();
    net::Link &link = w->link();
    WindowStart start(*w);
    w->openWindow();
    SimWindow sw;

    // The first windowSlices slices are the simulated window; slices
    // continue until opts.seconds of host time have passed. A traced
    // run records every other slice, so traced and untraced slices
    // interleave and their rates give the tracing overhead.
    HostAcc untraced, traced;
    auto hostStart = Clock::now();
    for (int i = 0;; i++) {
        bool inWindow = i < windowSlices;
        if (!inWindow && secondsSince(hostStart) >= opts.seconds)
            break;
        bool tracedSlice = opts.trace && i % 2 == 1;
        tr.setEnabled(tracedSlice);
        uint64_t p0 = wirePackets(link);
        uint64_t e0 = sim.eventsExecuted();
        auto h0 = Clock::now();
        {
            Tracer::Scope slice(tr, "window.slice", "sim", i);
            Snap before = tracedSlice ? snapshot(w->registry()) : Snap{};
            sim.runFor(kSlice);
            if (tracedSlice) {
                Snap after = snapshot(w->registry());
                for (const auto &[layer, sfx] : sliceCounters()) {
                    Tracer::Scope c(tr, "counter_deltas", layer, i);
                    for (const char *s : sfx)
                        tr.arg(c.id(), s, sum(after, s) - sum(before, s));
                }
            }
        }
        (tracedSlice ? traced : untraced)
            .add(static_cast<double>(wirePackets(link) - p0),
                 static_cast<double>(sim.eventsExecuted() - e0),
                 secondsSince(h0));

        if (i == windowSlices - 1) {
            tr.setEnabled(opts.trace);
            sw = closeSimWindow(*w, start);
            Tracer::Scope mem(tr, "mem.heap_snapshot", "mem");
            sw.heapBytes = static_cast<double>(mallinfo2().uordblks);
        }
    }
    tr.setEnabled(opts.trace);
    double rss = peakRssMib();

    r.attempted = sw.ws.attempted;
    r.failed = sw.ws.failed;
    r.failures = sw.ws.failures;
    if (sw.ws.attempted == 0)
        r.failures.push_back("no operation completed in the window");
    // p99 needs at least 10 samples beyond it.
    if (sw.ws.latSamples < 1000)
        r.failures.push_back(strprintf(
            "only %zu latency samples (p99 needs 1000)", sw.ws.latSamples));
    addEndToEnd(r, sw, untraced.rate(), median(setupTimes), rss);

    if (opts.trace) {
        KernelTimes k = timeKernels(tr, w->messageBytes());
        addPerLayer(r, sw, untraced, traced, k, selfSeconds(tr.spans()),
                    w->flows());
        if (!opts.traceFile.empty() && !tr.writeChromeTrace(opts.traceFile))
            r.failures.push_back("cannot write " + opts.traceFile);
    }
    r.correct = r.failed == 0 && r.failures.empty();
    return r;
}

} // namespace anic::perfbench
