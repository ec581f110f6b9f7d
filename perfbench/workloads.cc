/**
 * @file
 * The benchmark's three workloads. Each builds its world through the
 * simulator's public APIs, runs closed loop, and checks every output
 * it reports on.
 */

#include <algorithm>

#include "app/iperf.hh"
#include "bench.hh"
#include "experiment.hh"
#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "util/panic.hh"
#include "util/rand.hh"

namespace anic::perfbench {

const char *const kWorkloadNames[3] = {"tcp-bulk", "https-offload",
                                       "storage-rw"};

namespace {

using app::MacroWorld;
using sim::kMillisecond;

/** Independent per-purpose seeds from the one workload seed. */
uint64_t
deriveSeed(uint64_t seed, uint64_t purpose)
{
    uint64_t z = seed + purpose * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int
scaledSlices(int full, double scale)
{
    return std::max(1, static_cast<int>(full * scale + 0.5));
}

/**
 * Simulated time set-up gives connections to open before the warm-up.
 * Fixed, so set-up costs the same simulated work on every seed. With
 * the warm-up after it, it outlasts a lost SYN or SYN-ACK (20 ms
 * initial RTO).
 */
constexpr sim::Tick kConnect = 10 * kMillisecond;

void
fail(WindowStats &out, uint64_t n, const char *what)
{
    if (n == 0)
        return;
    out.failed += n;
    out.failures.push_back(strprintf("%s: %llu", what,
                                     static_cast<unsigned long long>(n)));
}

void
setLatency(WindowStats &out, const sim::Distribution &d)
{
    out.latSamples = d.count();
    if (!d.empty()) {
        out.latP50Us = d.percentile(50);
        out.latP99Us = d.percentile(99);
    }
}

/** Common base of the two MacroWorld workloads (tcp-bulk, https). */
class MacroWorkload : public Workload
{
  public:
    explicit MacroWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

    sim::Simulator &sim() override { return ex_->sim(); }
    sim::StatsRegistry &registry() override { return ctx_.registry(); }
    net::Link &link() override { return ex_->world().link; }
    core::Node &serverNode() override { return ex_->server(); }
    core::Node &clientNode() override { return ex_->generator(); }

  protected:
    /** Builds the world, then creates and prewarms files of the
     *  given sizes. */
    void
    build(bench::ExperimentBuilder &b, const std::vector<uint64_t> &sizes)
    {
        Tracer &tr = *cfg_.tracer;
        {
            Tracer::Scope s(tr, "setup.world_build", "core");
            ex_ = b.run(ctx_).pageCache().build();
        }
        Tracer::Scope s(tr, "setup.file_prewarm", "app");
        for (uint64_t size : sizes)
            fileIds_.push_back(ex_->world().files.create(size).id);
        ex_->world().storage->prewarm();
    }

    app::HttpClientConfig
    clientConfig() const
    {
        app::HttpClientConfig c = ex_->httpClientCfg();
        c.fileIds = fileIds_;
        c.seed = deriveSeed(cfg_.seed, 2);
        c.verifyContent = true;
        return c;
    }

    void
    warmUp()
    {
        Tracer::Scope s(*cfg_.tracer, "setup.warmup", "sim");
        ex_->warm(kWarmup);
    }

    /** Window-open snapshot of the HTTP client/server counters. */
    struct HttpBase
    {
        uint64_t bodyBytes = 0;
        uint64_t corruptions = 0;
        uint64_t errors = 0;
    };

    static HttpBase
    httpBase(const app::HttpClient &c, const app::HttpServer &s)
    {
        return {c.stats().bodyBytes, c.stats().corruptions,
                s.stats().errors};
    }

    /** Adds the HTTP client's window outputs and failures. */
    static void
    httpWindow(WindowStats &out, const app::HttpClient &c,
               const app::HttpServer &s, const HttpBase &base,
               int connections)
    {
        out.payloadBytes += c.stats().bodyBytes - base.bodyBytes;
        out.attempted += c.windowResponses();
        fail(out, c.stats().corruptions - base.corruptions,
             "http body corruptions");
        fail(out, s.stats().errors - base.errors, "http server errors");
        fail(out, static_cast<uint64_t>(connections - c.connected()),
             "http connections never established");
        setLatency(out, c.stats().latencyUs);
    }

    WorkloadConfig cfg_;
    sim::RunContext ctx_;
    std::unique_ptr<bench::Experiment> ex_;
    std::vector<uint32_t> fileIds_;
};

// ---------------------------------------------------------- tcp-bulk

/**
 * Plain-TCP iperf, 64 streams server -> generator, 64 KiB sends,
 * every byte verified at the receiver. A 64-connection plain-HTTP
 * probe fetching 1-16 KiB pages shares the link and the sender's NIC
 * queues; its response times are the workload's per-request latency
 * (latency under bulk load).
 */
class TcpBulk : public MacroWorkload
{
  public:
    static constexpr int kStreams = 64;
    static constexpr size_t kChunk = 64 << 10;
    static constexpr int kProbeConns = 64;
    static constexpr uint16_t kProbePort = 80;

    using MacroWorkload::MacroWorkload;

    int
    windowSlices() const override
    {
        return scaledSlices(200, cfg_.windowScale);
    }

    size_t flows() const override { return kStreams + kProbeConns; }
    size_t messageBytes() const override { return kChunk; }

    void
    setup() override
    {
        net::Link::Config lc;
        lc.seed = deriveSeed(cfg_.seed, 1);
        bench::ExperimentBuilder b;
        b.serverCores(4)
            .generatorCores(4)
            .link(lc)
            .httpVariant(bench::HttpVariant::Http)
            .connections(kProbeConns);
        // Probe pages of 1-16 KiB, sizes drawn from the seed.
        Rng rng(deriveSeed(cfg_.seed, 6));
        std::vector<uint64_t> sizes;
        for (int i = 0; i < 16; i++)
            sizes.push_back((1 + rng.below(16)) << 10);
        build(b, sizes);

        MacroWorld &w = ex_->world();
        {
            Tracer::Scope s(*cfg_.tracer, "setup.connect", "tcp");
            server_ = std::make_unique<app::HttpServer>(
                w.server, kProbePort, *w.storage, ex_->httpServerCfg());
            probe_ = std::make_unique<app::HttpClient>(
                w.generator, MacroWorld::kGenIp, MacroWorld::kSrvIp,
                kProbePort, w.files, clientConfig());
            app::IperfConfig ic;
            ic.streams = kStreams;
            ic.sendChunk = kChunk;
            ic.tlsEnabled = false;
            ic.verifyContent = true;
            iperf_ = std::make_unique<app::IperfRun>(
                w.server, MacroWorld::kSrvIp, w.generator,
                MacroWorld::kGenIp, ic);
            iperf_->start();
            probe_->start();
            ex_->sim().runFor(kConnect);
        }
        warmUp();
    }

    void
    openWindow() override
    {
        probe_->measureStart();
        iperf_->measureStart();
        http_ = httpBase(*probe_, *server_);
        iperfBytes_ = iperf_->bytesReceived();
        iperfCorrupt_ = iperf_->corruptions();
    }

    void
    closeWindow(WindowStats &out) override
    {
        probe_->measureStop();
        iperf_->measureStop();
        uint64_t bytes = iperf_->bytesReceived() - iperfBytes_;
        out.payloadBytes += bytes;
        out.attempted += bytes / kChunk;
        fail(out, iperf_->corruptions() - iperfCorrupt_,
             "iperf segments failing the content check");
        fail(out,
             static_cast<uint64_t>(kStreams - iperf_->streamsConnected()),
             "iperf streams never established");
        httpWindow(out, *probe_, *server_, http_, kProbeConns);
    }

  private:
    std::unique_ptr<app::HttpServer> server_;
    std::unique_ptr<app::HttpClient> probe_;
    std::unique_ptr<app::IperfRun> iperf_;
    HttpBase http_;
    uint64_t iperfBytes_ = 0;
    uint64_t iperfCorrupt_ = 0;
};

// ----------------------------------------------------- https-offload

/**
 * The paper's C2 experiment: HTTPS from the page cache, TLS tx
 * offload + zero-copy sendfile on the server, rx offload on the
 * client, 256 keep-alive connections over 64 x 64 KiB files, a NIC
 * context cache of a quarter of the flows, 0.2% loss server->client.
 */
class HttpsOffload : public MacroWorkload
{
  public:
    static constexpr int kConns = 256;
    static constexpr uint16_t kPort = 443;

    using MacroWorkload::MacroWorkload;

    int
    windowSlices() const override
    {
        return scaledSlices(200, cfg_.windowScale);
    }

    size_t flows() const override { return kConns; }
    size_t messageBytes() const override { return 16 << 10; }

    void
    setup() override
    {
        net::Link::Config lc;
        lc.seed = deriveSeed(cfg_.seed, 1);
        lc.dir[1].lossRate = 0.002; // port 1 (server) -> port 0
        bench::ExperimentBuilder b;
        b.serverCores(4)
            .generatorCores(8)
            .link(lc)
            .nicCtxCacheCapacity(kConns / 4)
            .serverSndBuf(256 << 10)
            .httpVariant(bench::HttpVariant::OffloadZc)
            .connections(kConns);
        build(b, std::vector<uint64_t>(64, 64 << 10));

        MacroWorld &w = ex_->world();
        {
            Tracer::Scope s(*cfg_.tracer, "setup.connect", "tcp");
            server_ = std::make_unique<app::HttpServer>(
                w.server, kPort, *w.storage, ex_->httpServerCfg());
            app::HttpClientConfig cc = clientConfig();
            cc.tlsCfg.rxOffload = true;
            client_ = std::make_unique<app::HttpClient>(
                w.generator, MacroWorld::kGenIp, MacroWorld::kSrvIp, kPort,
                w.files, cc);
            client_->start();
            ex_->sim().runFor(kConnect);
        }
        warmUp();
    }

    void
    openWindow() override
    {
        client_->measureStart();
        http_ = httpBase(*client_, *server_);
        tlsBase_ = tlsRx();
    }

    void
    closeWindow(WindowStats &out) override
    {
        client_->measureStop();
        httpWindow(out, *client_, *server_, http_, kConns);
        TlsRx now = tlsRx();
        out.hasL5p = true;
        out.l5pFull = now.full - tlsBase_.full;
        out.l5pTotal = now.total - tlsBase_.total;
        fail(out, now.tagFailures - tlsBase_.tagFailures,
             "tls tag failures reaching the app");
    }

  private:
    /** Record classes over both rx-offloaded directions: responses
     *  the client decrypts and requests the server decrypts. */
    struct TlsRx
    {
        uint64_t full = 0;
        uint64_t total = 0;
        uint64_t tagFailures = 0;
    };

    TlsRx
    tlsRx()
    {
        const sim::StatsRegistry &reg = ctx_.registry();
        auto get = [&reg](const std::string &path) -> uint64_t {
            const sim::Counter *c = reg.findCounter(path);
            ANIC_ASSERT(c != nullptr, "missing registry counter %s",
                        path.c_str());
            return c->value();
        };
        TlsRx t;
        for (const char *side : {"gen.httpClient.tls.", "srv.http.tls."}) {
            std::string p(side);
            uint64_t full = get(p + "rxFullyOffloaded");
            t.full += full;
            t.total += full + get(p + "rxPartiallyOffloaded") +
                       get(p + "rxNotOffloaded");
            t.tagFailures += get(p + "tagFailures");
        }
        return t;
    }

    std::unique_ptr<app::HttpServer> server_;
    std::unique_ptr<app::HttpClient> client_;
    HttpBase http_;
    TlsRx tlsBase_;
};

// -------------------------------------------------------- storage-rw

/**
 * One NVMe-TCP queue and one iSCSI session side by side, each keeping
 * 8 commands in flight, alternating 64 KiB writes and reads over
 * seed-chosen LBAs. Both endpoints of both sessions offload rx digest
 * verify, placement and tx digest fill. 0.2% loss and 0.2% reorder in
 * both directions. Every read buffer is checked against the drive's
 * deterministic content.
 */
class StorageRw : public Workload
{
  public:
    static constexpr uint32_t kIoLen = 64 << 10;
    static constexpr int kDepth = 8;
    static constexpr uint64_t kLbaSlots = 4096;
    static constexpr net::IpAddr kTgtIp = net::makeIp(10, 3, 0, 1);
    static constexpr net::IpAddr kHostIp = net::makeIp(10, 3, 0, 2);
    static constexpr uint16_t kNvmePort = 4420;
    static constexpr uint16_t kIscsiPort = 3260;

    explicit StorageRw(const WorkloadConfig &cfg)
        : cfg_(cfg), rng_(deriveSeed(cfg.seed, 5))
    {
    }

    int
    windowSlices() const override
    {
        return scaledSlices(400, cfg_.windowScale);
    }

    sim::Simulator &sim() override { return w_->sim; }
    sim::StatsRegistry &registry() override { return ctx_.registry(); }
    net::Link &link() override { return w_->link; }
    core::Node &serverNode() override { return w_->tgt; }
    core::Node &clientNode() override { return w_->host; }
    size_t flows() const override { return 2; }
    size_t messageBytes() const override { return kIoLen; }

    void
    setup() override
    {
        Tracer &tr = *cfg_.tracer;
        {
            Tracer::Scope s(tr, "setup.world_build", "core");
            w_ = std::make_unique<World>(ctx_, cfg_.seed);
        }
        connect();
        Tracer::Scope s(tr, "setup.warmup", "sim");
        w_->sim.runFor(kWarmup);
    }

    /** Opens both sessions; each installs its offloads and fills its
     *  queue as soon as it connects. */
    void
    connect()
    {
        Tracer::Scope s(*cfg_.tracer, "setup.connect", "tcp");
        core::Node &tgt = w_->tgt;
        core::Node &host = w_->host;
        nvmetcp::NvmeOffloadConfig nvOff;
        nvOff.crcRx = nvOff.copyRx = nvOff.crcTx = true;
        iscsi::IscsiOffloadConfig isOff;
        isOff.crcRx = isOff.copyRx = isOff.crcTx = true;

        // Targets install offload at accept (on the SYN) so their rx
        // FSMs start byte-synchronized with the first PDU.
        tgt.stack().listen(kNvmePort, tgt.tcpConfig(),
                           [this, &tgt, nvOff](tcp::TcpConnection &c) {
            nvmeTgt_ = std::make_unique<nvmetcp::NvmeTarget>(
                c, w_->drive, nvmetcp::WireConfig{});
            install([&] { nvmeTgt_->enableOffload(tgt.device(), c, nvOff); });
        });
        tgt.stack().listen(kIscsiPort, tgt.tcpConfig(),
                           [this, &tgt, isOff](tcp::TcpConnection &c) {
            iscsiTgt_ = std::make_unique<iscsi::IscsiTarget>(
                c, w_->drive, iscsi::IscsiWireConfig{});
            install([&] { iscsiTgt_->enableOffload(tgt.device(), c, isOff); });
        });
        tcp::TcpConnection &nc =
            host.stack().connect(kHostIp, kTgtIp, kNvmePort, host.tcpConfig());
        nc.setOnConnected([this, &nc, &host, nvOff] {
            nvmeHost_ = std::make_unique<nvmetcp::NvmeHostQueue>(
                nc, nvmetcp::WireConfig{}, nvOff);
            install([&] { nvmeHost_->enableOffload(host.device(), nc); });
            for (int i = 0; i < kDepth; i++)
                issue(nvme_);
        });
        tcp::TcpConnection &ic = host.stack().connect(kHostIp, kTgtIp,
                                                      kIscsiPort,
                                                      host.tcpConfig());
        ic.setOnConnected([this, &ic, &host, isOff] {
            iscsiInit_ = std::make_unique<iscsi::IscsiInitiator>(
                ic, iscsi::IscsiWireConfig{}, isOff);
            install([&] { iscsiInit_->enableOffload(host.device(), ic); });
            for (int i = 0; i < kDepth; i++)
                issue(iscsi_);
        });
        w_->sim.runFor(kConnect);
    }

    void
    openWindow() override
    {
        measuring_ = true;
        for (Proto *p : {&nvme_, &iscsi_}) {
            p->done = p->failedOps = p->badContent = p->bytes = 0;
            p->readLat.clear();
            p->writeLat.clear();
        }
        allLat_.clear();
        base_ = counts();
    }

    void
    closeWindow(WindowStats &out) override
    {
        measuring_ = false;
        Counts now = counts();
        for (Proto *p : {&nvme_, &iscsi_}) {
            out.payloadBytes += p->bytes;
            out.attempted += p->done;
            fail(out, p->failedOps,
                 strprintf("%s completions with ok=false", p->name).c_str());
            fail(out, p->badContent,
                 strprintf("%s read buffers failing the content check",
                           p->name)
                     .c_str());
        }
        fail(out, now.digestFailures - base_.digestFailures,
             "storage digest failures reaching software");
        uint64_t dead = 0;
        for (bool d : {!nvmeHost_ || nvmeHost_->desynced(),
                       !nvmeTgt_ || nvmeTgt_->desynced(),
                       !iscsiInit_ || iscsiInit_->desynced(),
                       !iscsiTgt_ || iscsiTgt_->desynced()})
            dead += d ? 1 : 0;
        fail(out, dead, "storage sessions not established or desynced");
        setLatency(out, allLat_);

        out.hasL5p = true;
        out.l5pFull = (now.nvme.skipped - base_.nvme.skipped) +
                      (now.iscsi.skipped - base_.iscsi.skipped);
        out.l5pTotal = out.l5pFull +
                       (now.nvme.software - base_.nvme.software) +
                       (now.iscsi.software - base_.iscsi.software);
        protoLayer(out, "nvmetcp", nvme_, base_.nvme, now.nvme);
        protoLayer(out, "iscsi", iscsi_, base_.iscsi, now.iscsi);
        out.layer.push_back({"core.offload_install_us", installUs(), "us"});
    }

  private:
    struct World
    {
        net::PacketPool pool;
        sim::Simulator sim;
        net::Link link;
        core::Node tgt;
        core::Node host;
        host::NvmeDrive drive;

        World(sim::RunContext &ctx, uint64_t seed)
            : link(sim, linkCfg(seed, pool)),
              tgt(sim, nodeCfg(ctx, pool, "srv", deriveSeed(seed, 3))),
              host(sim, nodeCfg(ctx, pool, "gen", deriveSeed(seed, 4))),
              drive(sim, {})
        {
            pool.linkStats(sim::StatsScope(ctx.registry(), "sim.alloc"));
            tgt.attachPort(link, 0, kTgtIp);
            host.attachPort(link, 1, kHostIp);
        }

        static net::Link::Config
        linkCfg(uint64_t seed, net::PacketPool &pool)
        {
            net::Link::Config c;
            c.seed = deriveSeed(seed, 1);
            c.pool = &pool;
            for (net::Impairments &d : c.dir) {
                d.lossRate = 0.002;
                d.reorderRate = 0.002;
            }
            return c;
        }

        static core::Node::Config
        nodeCfg(sim::RunContext &ctx, net::PacketPool &pool,
                const char *name, uint64_t seed)
        {
            core::Node::Config c;
            c.cores = 4;
            c.name = name;
            c.stackSeed = seed;
            c.pool = &pool;
            c.bindRun(ctx);
            return c;
        }
    };

    /** Closed-loop state of one protocol's session. */
    struct Proto
    {
        explicit Proto(const char *n) : name(n) {}

        const char *name;
        uint64_t next = 0; ///< op index: even = write, odd = read
        uint64_t done = 0;
        uint64_t failedOps = 0;
        uint64_t badContent = 0;
        uint64_t bytes = 0;
        sim::Distribution readLat;
        sim::Distribution writeLat;
    };

    /** Offload counters of one protocol, both endpoints. */
    struct ProtoCounts
    {
        uint64_t skipped = 0;  ///< digests the NIC verified
        uint64_t software = 0; ///< digests software verified
        uint64_t placed = 0;
        uint64_t copied = 0;
        uint64_t resyncs = 0;
    };

    struct Counts
    {
        ProtoCounts nvme;
        ProtoCounts iscsi;
        uint64_t digestFailures = 0;
    };

    Counts
    counts() const
    {
        Counts c;
        if (nvmeHost_ && nvmeTgt_) {
            const nvmetcp::NvmeHostStats &h = nvmeHost_->stats();
            const nvmetcp::NvmeTargetStats &t = nvmeTgt_->stats();
            c.nvme = {h.crcSkipped + t.h2cDigestSkipped,
                      h.crcSoftware + t.h2cDigestSoftware,
                      h.bytesPlaced + t.h2cBytesPlaced,
                      h.bytesCopied + t.h2cBytesCopied,
                      h.resyncRequests + t.resyncRequests};
            c.digestFailures += h.crcFailures + t.digestFailures;
        }
        if (iscsiInit_ && iscsiTgt_) {
            const iscsi::IscsiInitiatorStats &h = iscsiInit_->stats();
            const iscsi::IscsiTargetStats &t = iscsiTgt_->stats();
            c.iscsi = {h.digestSkipped + t.digestSkipped,
                       h.digestSoftware + t.digestSoftware,
                       h.bytesPlaced + t.bytesPlaced,
                       h.bytesCopied + t.bytesCopied,
                       h.resyncRequests + t.resyncRequests};
            c.digestFailures += h.digestFailures + t.digestFailures;
        }
        return c;
    }

    static void
    protoLayer(WindowStats &out, const std::string &name, const Proto &p,
               const ProtoCounts &b, const ProtoCounts &n)
    {
        double skipped = static_cast<double>(n.skipped - b.skipped);
        double sw = static_cast<double>(n.software - b.software);
        double placed = static_cast<double>(n.placed - b.placed);
        double copied = static_cast<double>(n.copied - b.copied);
        auto p99 = [](const sim::Distribution &d) {
            return d.empty() ? 0.0 : d.percentile(99);
        };
        out.layer.push_back({name + ".digest_offload_ratio",
                             ratio(skipped, skipped + sw), "ratio"});
        out.layer.push_back({name + ".placed_ratio",
                             ratio(placed, placed + copied), "ratio"});
        out.layer.push_back({name + ".resync_requests",
                             static_cast<double>(n.resyncs - b.resyncs),
                             "count"});
        out.layer.push_back({name + ".read_lat_p99_us", p99(p.readLat), "us"});
        out.layer.push_back(
            {name + ".write_lat_p99_us", p99(p.writeLat), "us"});
    }

    template <typename Fn>
    void
    install(Fn fn)
    {
        Tracer::Scope s(*cfg_.tracer, "setup.offload_install", "core");
        auto t0 = std::chrono::steady_clock::now();
        fn();
        installUs_.push_back(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    }

    /** Issues @p p's next command; its completion issues the one after. */
    void
    issue(Proto &p)
    {
        bool isNvme = &p == &nvme_;
        if (isNvme ? nvmeHost_->desynced() : iscsiInit_->desynced())
            return;
        uint64_t op = p.next++;
        bool write = op % 2 == 0;
        uint64_t slba = rng_.below(kLbaSlots) * kIoLen;
        sim::Tick t0 = w_->sim.now();
        uint64_t reqId = (isNvme ? 1ull << 62 : 2ull << 62) | op;
        Tracer::Id span = cfg_.tracer->beginAsync(
            write ? "storage.write" : "storage.read", p.name, reqId);
        // A failed command counts once: as a session failure, or as a
        // read whose buffer fails the content check.
        auto finish = [this, &p, t0, span, write](bool ok, bool contentOk) {
            cfg_.tracer->endAsync(span);
            if (measuring_) {
                double us = ticksToUs(w_->sim.now() - t0);
                p.done++;
                p.failedOps += ok ? 0 : 1;
                p.badContent += ok && !contentOk ? 1 : 0;
                p.bytes += ok && contentOk ? kIoLen : 0;
                (write ? p.writeLat : p.readLat).add(us);
                allLat_.add(us);
            }
            // Next command from a fresh event: a session may complete
            // (or fail) commands while iterating its own tables.
            w_->sim.schedule(0, [this, &p] { issue(p); });
        };
        auto onWrite = [finish](bool ok) { finish(ok, true); };
        uint64_t seed = w_->drive.config().contentSeed;
        auto onRead = [this, slba, seed, finish,
                       reqId](bool ok, host::BlockBufferPtr buf) {
            finish(ok, !ok || !measuring_ || checkRead(*buf, slba, seed, reqId));
        };
        if (isNvme) {
            if (write)
                nvmeHost_->write(slba, kIoLen, seed, onWrite);
            else
                nvmeHost_->read(slba, kIoLen, onRead);
        } else {
            if (write)
                iscsiInit_->write(slba, kIoLen, seed, onWrite);
            else
                iscsiInit_->read(slba, kIoLen, onRead);
        }
    }

    bool
    checkRead(host::BlockBuffer &buf, uint64_t slba, uint64_t seed,
              uint64_t reqId)
    {
        Tracer::Scope s(*cfg_.tracer, "app.content_check", "app", reqId);
        if (cfg_.injectFault && !injected_) {
            buf.data[buf.data.size() / 2] ^= 0x40;
            injected_ = true;
        }
        return buf.data.size() == kIoLen &&
               checkDeterministic(buf.data, seed, slba);
    }

    /** Mean host microseconds per enableOffload call in set-up. */
    double
    installUs() const
    {
        double sum = 0;
        for (double v : installUs_)
            sum += v;
        return installUs_.empty() ? 0 : sum / installUs_.size();
    }

    WorkloadConfig cfg_;
    sim::RunContext ctx_;
    Rng rng_;
    std::unique_ptr<World> w_;
    // Sessions reference the world's sockets and drive: declared after
    // it, they are destroyed first.
    std::unique_ptr<nvmetcp::NvmeTarget> nvmeTgt_;
    std::unique_ptr<nvmetcp::NvmeHostQueue> nvmeHost_;
    std::unique_ptr<iscsi::IscsiTarget> iscsiTgt_;
    std::unique_ptr<iscsi::IscsiInitiator> iscsiInit_;
    Proto nvme_{"nvmetcp"};
    Proto iscsi_{"iscsi"};
    sim::Distribution allLat_;
    Counts base_;
    bool measuring_ = false;
    bool injected_ = false;
    std::vector<double> installUs_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &cfg)
{
    if (name == kWorkloadNames[0])
        return std::make_unique<TcpBulk>(cfg);
    if (name == kWorkloadNames[1])
        return std::make_unique<HttpsOffload>(cfg);
    if (name == kWorkloadNames[2])
        return std::make_unique<StorageRw>(cfg);
    return nullptr;
}

} // namespace anic::perfbench
