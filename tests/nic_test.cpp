/**
 * @file
 * NIC device-model tests: line-rate serialization, tx-ring
 * backpressure, context cache LRU + PCIe accounting, context
 * lifecycle, and tx offload processing order with in-ring resync
 * descriptors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "net/packet_pool.hh"
#include "nic/nic.hh"
#include "tls/tls_engine.hh"

namespace anic::nic {
namespace {

net::PacketPtr
mkPkt(net::IpAddr src, net::IpAddr dst, uint32_t seq, size_t payloadLen,
      uint64_t txCtx = 0)
{
    net::Ipv4Header ip;
    ip.src = src;
    ip.dst = dst;
    net::TcpHeader tcp;
    tcp.srcPort = 1;
    tcp.dstPort = 2;
    tcp.seq = seq;
    Bytes payload(payloadLen, 0xab);
    auto p = net::PacketPool::threadDefault().make(ip, tcp, payload);
    p->txCtx = txCtx;
    return p;
}

struct NicWorld
{
    sim::Simulator sim;
    net::Link link;
    Nic nicA;
    std::vector<net::PacketPtr> atB;

    explicit NicWorld(Nic::Config cfg = {})
        : link(sim, {}), nicA(sim, link, 0, cfg)
    {
        link.attach(1, [this](net::PacketPtr p) { atB.push_back(p); });
    }
};

TEST(NicDevice, SerializesAtLineRate)
{
    Nic::Config cfg;
    cfg.gbps = 10.0; // slow so serialization dominates
    cfg.txLatency = 0;
    NicWorld w(cfg);

    // Two 10000-byte packets: second leaves one serialization later.
    w.nicA.transmit(mkPkt(1, 2, 0, 10000));
    w.nicA.transmit(mkPkt(1, 2, 10000, 10000));
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 2u);
    EXPECT_EQ(w.nicA.stats().pktsTx, 2u);
    // 10040 wire bytes at 10 Gbps ~ 8.03 us each; link prop 2 us.
    double total_s = sim::ticksToSeconds(w.sim.now());
    EXPECT_NEAR(total_s, 2 * 8.03e-6 + 2e-6, 1e-6);
}

TEST(NicDevice, TxRingBackpressure)
{
    Nic::Config cfg;
    cfg.txRingSize = 4;
    cfg.gbps = 1.0;
    NicWorld w(cfg);
    int space_events = 0;
    w.nicA.setOnTxSpace([&] { space_events++; });

    int accepted = 0;
    for (int i = 0; i < 10; i++)
        accepted += w.nicA.transmit(mkPkt(1, 2, i * 100, 100)) ? 1 : 0;
    EXPECT_EQ(accepted, 4);
    w.sim.run();
    EXPECT_GT(space_events, 0);
    EXPECT_EQ(w.atB.size(), 4u);
}

TEST(NicDevice, PcieAccountsTxAndRx)
{
    NicWorld w;
    Nic nicB(w.sim, w.link, 1, {}); // replaces the raw handler
    w.nicA.transmit(mkPkt(1, 2, 0, 1000));
    w.sim.run();
    EXPECT_EQ(w.nicA.pcie().txDataBytes, 1040u);
    EXPECT_EQ(nicB.pcie().rxDataBytes, 1040u);
    EXPECT_GT(w.nicA.pcie().descriptorBytes, 0u);
}

TEST(NicDevice, ContextCacheLruAndEviction)
{
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 2;
    NicWorld w(cfg);

    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c3 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    (void)c1;
    (void)c2;
    (void)c3;
    // Creation touches each context: c3 evicted c1.
    const NicStats &st = w.nicA.stats();
    EXPECT_EQ(st.ctxCacheMisses, 3u);
    EXPECT_EQ(st.ctxCacheEvictions, 1u);
    EXPECT_EQ(w.nicA.pcie().ctxFetchBytes, 3 * w.nicA.config().ctxBytes);
    EXPECT_EQ(w.nicA.pcie().ctxWritebackBytes, w.nicA.config().ctxBytes);
}

TEST(NicDevice, RegistryMirrorsStatsUnderCacheChurn)
{
    // Fig 19 path: more flows than context-cache slots, so every
    // touch in the round-robin misses, fetches over PCIe and evicts
    // (with writeback) an older context. The registry view must stay
    // bit-identical to the legacy NicStats/PcieStats structs.
    sim::StatsRegistry reg;
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 4;
    cfg.name = "dut";
    cfg.registry = &reg;
    NicWorld w(cfg);

    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    constexpr int kFlows = 11; // > ctxCacheCapacity
    std::vector<uint64_t> ids;
    for (int i = 0; i < kFlows; i++) {
        ids.push_back(w.nicA.createTxContext(
            std::make_unique<tls::TlsTxEngine>(keys), 0, 0));
    }
    std::vector<uint32_t> seq(kFlows, 0);
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < kFlows; i++) {
            w.nicA.transmit(mkPkt(1, 2, seq[i], 1000, ids[i]));
            seq[i] += 1000;
        }
    }
    w.sim.run();

    const NicStats &st = w.nicA.stats();
    const PcieStats &pc = w.nicA.pcie();
    EXPECT_GT(st.ctxCacheEvictions, 0u);
    EXPECT_GT(pc.ctxWritebackBytes, 0u);

    auto counter = [&](const char *leaf) {
        const sim::Counter *c = reg.findCounter(std::string("dut.") + leaf);
        EXPECT_NE(c, nullptr) << leaf;
        return c ? c->value() : ~0ull;
    };
    EXPECT_EQ(counter("pktsTx"), st.pktsTx);
    EXPECT_EQ(counter("ctxCacheHits"), st.ctxCacheHits);
    EXPECT_EQ(counter("ctxCacheMisses"), st.ctxCacheMisses);
    EXPECT_EQ(counter("ctxCacheEvictions"), st.ctxCacheEvictions);
    EXPECT_EQ(counter("txOffloadedPkts"), st.txOffloadedPkts);
    EXPECT_EQ(counter("pcie.ctxFetchBytes"), pc.ctxFetchBytes);
    EXPECT_EQ(counter("pcie.ctxWritebackBytes"), pc.ctxWritebackBytes);
    EXPECT_EQ(counter("pcie.txDataBytes"), pc.txDataBytes);

    // LRU invariant under churn: every round-robin touch beyond the
    // warm first four is a miss, and each miss evicts.
    EXPECT_EQ(st.ctxCacheMisses,
              st.ctxCacheEvictions + cfg.ctxCacheCapacity);
    EXPECT_EQ(pc.ctxFetchBytes,
              st.ctxCacheMisses * w.nicA.config().ctxBytes);
    EXPECT_EQ(pc.ctxWritebackBytes,
              st.ctxCacheEvictions * w.nicA.config().ctxBytes);
}

TEST(NicDevice, TxOffloadEncryptsThroughRingInOrder)
{
    NicWorld w;
    tls::DirectionKeys keys;
    keys.key.assign(16, 0x42);
    keys.staticIv.assign(12, 0x24);

    uint64_t ctx = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 1000, 0);

    // Build one small record: header + plaintext + dummy tag.
    constexpr size_t kPlain = 100;
    tls::RecordHeader h;
    h.length = kPlain + 16;
    Bytes rec(h.wireLen(), 0);
    h.encode(rec.data());
    Bytes pt(kPlain);
    fillDeterministic(pt, 3, 0);
    std::memcpy(rec.data() + 5, pt.data(), kPlain);

    // Ship it in two packets tagged with the context.
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    net::TcpHeader t1;
    t1.seq = 1000;
    auto p1 = net::PacketPool::threadDefault().make(
        ip, t1, ByteView(rec).subspan(0, 60));
    p1->txCtx = ctx;
    net::TcpHeader t2;
    t2.seq = 1060;
    auto p2 = net::PacketPool::threadDefault().make(
        ip, t2, ByteView(rec).subspan(60));
    p2->txCtx = ctx;
    w.nicA.transmit(p1);
    w.nicA.transmit(p2);
    w.sim.run();

    ASSERT_EQ(w.atB.size(), 2u);
    Bytes sealed;
    for (const auto &p : w.atB) {
        ByteView pl = p->payload();
        sealed.insert(sealed.end(), pl.begin(), pl.end());
    }
    // The wire record must decrypt with the session keys.
    crypto::AesGcm gcm(keys.key);
    auto nonce = tls::recordNonce(keys.staticIv, 0);
    Bytes out;
    ASSERT_TRUE(gcm.open(nonce, ByteView(sealed).subspan(0, 5),
                         ByteView(sealed).subspan(5), out));
    EXPECT_EQ(out, pt);
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 2u);
}

/** A TLS tx context at seq 1000 that has sent one 200-byte record in
 *  full; the resync cases retransmit the record's tail. */
struct TxRecoveryWorld : NicWorld
{
    static constexpr size_t kPlain = 200;
    uint64_t ctx = 0;
    SharedBytes rec; ///< the record as the L5P logged it
    Bytes first;     ///< its ciphertext from the first pass

    TxRecoveryWorld()
    {
        tls::DirectionKeys keys;
        keys.key.assign(16, 0x42);
        keys.staticIv.assign(12, 0x24);
        ctx = nicA.createTxContext(std::make_unique<tls::TlsTxEngine>(keys),
                                   1000, 0);
        tls::RecordHeader h;
        h.length = kPlain + 16;
        Bytes r(h.wireLen(), 0);
        h.encode(r.data());
        fillDeterministic(ByteSpan(r).subspan(5, kPlain), 4, 0);
        rec = std::make_shared<const Bytes>(std::move(r));

        nicA.transmit(pkt(0));
        sim.run();
        first.assign(atB[0]->payload().begin(), atB[0]->payload().end());
    }

    /** The record's bytes from @p off on, tagged with the context. */
    net::PacketPtr
    pkt(size_t off) const
    {
        net::Ipv4Header ip;
        ip.src = 1;
        ip.dst = 2;
        net::TcpHeader t;
        t.seq = 1000 + static_cast<uint32_t>(off);
        auto p = net::PacketPool::threadDefault().make(
            ip, t, ByteView(*rec).subspan(off));
        p->txCtx = ctx;
        return p;
    }
};

TEST(NicDevice, TxResyncDescriptorRebuildsState)
{
    TxRecoveryWorld w;
    // Retransmission of the record's tail: the driver posts a resync
    // descriptor with the rebuild prefix, then the packet.
    constexpr size_t kOff = 77;
    w.nicA.postTxResync(w.ctx, 1000 + kOff, 0, w.rec, kOff);
    w.nicA.transmit(w.pkt(kOff));
    w.sim.run();

    ASSERT_EQ(w.atB.size(), 2u);
    ByteView retx = w.atB[1]->payload();
    // Identical ciphertext for the overlapping range: receivers mix
    // original and retransmitted bytes freely.
    EXPECT_TRUE(std::equal(retx.begin(), retx.end(), w.first.begin() + kOff));
    EXPECT_EQ(w.nicA.stats().txResyncs, 1u);
    EXPECT_EQ(w.nicA.pcie().ctxRecoveryBytes, kOff);
}

TEST(NicDevice, TxResyncDescriptorOutlivesTrimmedLog)
{
    TxRecoveryWorld w;
    constexpr size_t kOff = 150;
    w.nicA.postTxResync(w.ctx, 1000 + kOff, 0, w.rec, kOff);
    net::PacketPtr tail = w.pkt(kOff);
    // An ACK trims the logged record while the descriptor is queued:
    // the descriptor's reference is now the only one.
    std::weak_ptr<const Bytes> alive = w.rec;
    w.rec.reset();
    ASSERT_FALSE(alive.expired());
    w.nicA.transmit(std::move(tail));
    w.sim.run();

    // Drained: the NIC read the prefix and let the message go.
    EXPECT_TRUE(alive.expired());
    ASSERT_EQ(w.atB.size(), 2u);
    ByteView retx = w.atB[1]->payload();
    ASSERT_EQ(retx.size(), w.first.size() - kOff);
    EXPECT_TRUE(std::equal(retx.begin(), retx.end(), w.first.begin() + kOff));
    EXPECT_EQ(w.nicA.pcie().ctxRecoveryBytes, kOff);
}

net::PacketPtr
mkFlowPkt(const net::FlowKey &flow, uint32_t seq, size_t payloadLen)
{
    net::Ipv4Header ip;
    ip.src = flow.srcIp;
    ip.dst = flow.dstIp;
    net::TcpHeader tcp;
    tcp.srcPort = flow.srcPort;
    tcp.dstPort = flow.dstPort;
    tcp.seq = seq;
    Bytes payload(payloadLen, 0xcd);
    return net::PacketPool::threadDefault().make(ip, tcp, payload);
}

net::FlowKey
flowKey(uint16_t srcPort)
{
    net::FlowKey f;
    f.srcIp = net::makeIp(10, 0, 0, 1);
    f.dstIp = net::makeIp(10, 0, 0, 2);
    f.srcPort = srcPort;
    f.dstPort = 443;
    return f;
}

TEST(NicMultiQueue, RssSteersFlowsToStableQueues)
{
    NicWorld w;
    Nic::Config cfgB;
    cfgB.numQueues = 4;
    Nic nicB(w.sim, w.link, 1, cfgB);
    ASSERT_EQ(nicB.queueCount(), 4);

    std::vector<std::pair<int, net::FlowKey>> delivered;
    nicB.setOnRxInterrupt([&](int queue, Nic::RxBatch pkts) {
        for (const auto &p : pkts)
            delivered.emplace_back(queue, p->flow());
        nicB.recycleRxBatch(std::move(pkts));
    });

    constexpr int kFlows = 16;
    constexpr int kPktsPerFlow = 3;
    for (int round = 0; round < kPktsPerFlow; round++) {
        for (int f = 0; f < kFlows; f++) {
            w.nicA.transmit(mkFlowPkt(flowKey(static_cast<uint16_t>(5000 + f)),
                                      round * 100, 100));
        }
    }
    w.sim.run();
    ASSERT_EQ(delivered.size(),
              static_cast<size_t>(kFlows * kPktsPerFlow));

    // Every packet landed on the queue RSS pins its flow to, and no
    // flow ever migrated.
    int usedQueues = 0;
    uint64_t rxByQueue[4] = {0, 0, 0, 0};
    for (const auto &[queue, flow] : delivered) {
        EXPECT_EQ(queue, nicB.rxQueueFor(flow));
        rxByQueue[queue]++;
    }
    for (int q = 0; q < 4; q++) {
        EXPECT_EQ(nicB.queueStats(q).rxPkts, rxByQueue[q]);
        usedQueues += rxByQueue[q] > 0 ? 1 : 0;
    }
    EXPECT_GT(usedQueues, 1) << "16 flows all hashed to one queue";
}

TEST(NicMultiQueue, TxQueuePairsWithRxQueue)
{
    Nic::Config cfg;
    cfg.numQueues = 8;
    NicWorld w(cfg);
    // XPS pairing: an outgoing packet rides the tx ring whose index
    // matches the rx queue of the reverse (arriving) direction, so
    // resync descriptors posted to txQueueFor() stay ordered with the
    // flow's data.
    for (int f = 0; f < 32; f++) {
        net::FlowKey tx = flowKey(static_cast<uint16_t>(7000 + f));
        EXPECT_EQ(w.nicA.txQueueFor(tx), w.nicA.rxQueueFor(tx.reversed()));
    }
}

TEST(NicMultiQueue, RoundRobinDrainsEveryTxRing)
{
    Nic::Config cfg;
    cfg.numQueues = 4;
    cfg.gbps = 1.0; // slow line so the rings stay backlogged
    NicWorld w(cfg);
    for (int q = 0; q < 4; q++) {
        for (int i = 0; i < 3; i++) {
            ASSERT_TRUE(w.nicA.transmit(
                mkFlowPkt(flowKey(static_cast<uint16_t>(100 + q)), i * 100,
                          100),
                q));
        }
    }
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 12u);
    for (int q = 0; q < 4; q++)
        EXPECT_EQ(w.nicA.queueStats(q).txPkts, 3u);
    // One grant per ring per cycle: the first four departures are one
    // packet from each ring, not three from ring 0.
    std::vector<uint16_t> firstFour;
    for (int i = 0; i < 4; i++)
        firstFour.push_back(w.atB[i]->flow().srcPort);
    std::sort(firstFour.begin(), firstFour.end());
    EXPECT_EQ(firstFour, (std::vector<uint16_t>{100, 101, 102, 103}));
}

TEST(NicMultiQueue, CoalescingThresholdBatchesInterrupts)
{
    NicWorld w;
    Nic::Config cfgB;
    cfgB.coalescePkts = 4;
    cfgB.coalesceDelay = 1 * sim::kMillisecond; // timer never wins here
    Nic nicB(w.sim, w.link, 1, cfgB);

    std::vector<size_t> batchSizes;
    nicB.setOnRxInterrupt([&](int, Nic::RxBatch pkts) {
        batchSizes.push_back(pkts.size());
        nicB.recycleRxBatch(std::move(pkts));
    });

    net::FlowKey f = flowKey(9000);
    for (int i = 0; i < 8; i++)
        w.nicA.transmit(mkFlowPkt(f, i * 100, 100));
    w.sim.run();

    // 8 completions at threshold 4 => exactly 2 interrupts.
    ASSERT_EQ(batchSizes.size(), 2u);
    EXPECT_EQ(batchSizes[0], 4u);
    EXPECT_EQ(batchSizes[1], 4u);
    EXPECT_EQ(nicB.stats().irqsFired, 2u);
    EXPECT_EQ(nicB.stats().coalescedPkts, 6u);
    EXPECT_EQ(nicB.queueStats(0).compIrqs, 2u);
    EXPECT_EQ(nicB.queueStats(0).coalescedPkts, 6u);
}

TEST(NicMultiQueue, CoalescingTimerFlushesPartialBatch)
{
    NicWorld w;
    Nic::Config cfgB;
    cfgB.coalescePkts = 64; // threshold unreachable
    cfgB.coalesceDelay = 20 * sim::kMicrosecond;
    Nic nicB(w.sim, w.link, 1, cfgB);

    std::vector<std::pair<sim::Tick, size_t>> irqs;
    nicB.setOnRxInterrupt([&](int, Nic::RxBatch pkts) {
        irqs.emplace_back(w.sim.now(), pkts.size());
        nicB.recycleRxBatch(std::move(pkts));
    });

    net::FlowKey f = flowKey(9001);
    for (int i = 0; i < 3; i++)
        w.nicA.transmit(mkFlowPkt(f, i * 100, 100));
    w.sim.run();

    // The delay timer (armed by the first pending completion) flushes
    // all three in one interrupt.
    ASSERT_EQ(irqs.size(), 1u);
    EXPECT_EQ(irqs[0].second, 3u);
    EXPECT_EQ(nicB.stats().coalescedPkts, 2u);
}

TEST(NicMultiQueue, PerQueueStatsPublishedInRegistry)
{
    sim::StatsRegistry reg;
    NicWorld w;
    Nic::Config cfgB;
    cfgB.numQueues = 2;
    cfgB.name = "dut";
    cfgB.registry = &reg;
    Nic nicB(w.sim, w.link, 1, cfgB);
    nicB.setOnRxInterrupt([&](int, Nic::RxBatch pkts) {
        nicB.recycleRxBatch(std::move(pkts));
    });

    for (int f = 0; f < 8; f++)
        w.nicA.transmit(mkFlowPkt(flowKey(static_cast<uint16_t>(6000 + f)),
                                  0, 100));
    w.sim.run();

    auto counter = [&](const std::string &path) {
        const sim::Counter *c = reg.findCounter(path);
        EXPECT_NE(c, nullptr) << path;
        return c ? c->value() : ~0ull;
    };
    uint64_t q0 = counter("dut.q0.rxPkts");
    uint64_t q1 = counter("dut.q1.rxPkts");
    EXPECT_EQ(q0 + q1, 8u); // per-queue counters roll up to the NIC total
    EXPECT_EQ(counter("dut.pktsRx"), 8u);
    EXPECT_EQ(q0, nicB.queueStats(0).rxPkts);
    EXPECT_EQ(q1, nicB.queueStats(1).rxPkts);
    EXPECT_EQ(counter("dut.q0.compIrqs") + counter("dut.q1.compIrqs"),
              nicB.stats().irqsFired);
}

TEST(NicMultiQueue, SingleQueueMatchesLegacyPerPacketDelivery)
{
    // Defaults (1 queue, per-packet interrupts): every packet is its
    // own interrupt, nothing is coalesced, and everything lands on
    // queue 0 — the exact pre-multi-queue schedule.
    NicWorld w;
    Nic nicB(w.sim, w.link, 1, {});
    ASSERT_EQ(nicB.queueCount(), 1);

    std::vector<size_t> batchSizes;
    nicB.setOnRxInterrupt([&](int queue, Nic::RxBatch pkts) {
        EXPECT_EQ(queue, 0);
        batchSizes.push_back(pkts.size());
        nicB.recycleRxBatch(std::move(pkts));
    });
    for (int i = 0; i < 5; i++)
        w.nicA.transmit(mkFlowPkt(flowKey(9002), i * 100, 100));
    w.sim.run();

    ASSERT_EQ(batchSizes.size(), 5u);
    for (size_t n : batchSizes)
        EXPECT_EQ(n, 1u);
    EXPECT_EQ(nicB.stats().coalescedPkts, 0u);
}

TEST(NicDevice, DestroyedContextStopsOffloading)
{
    NicWorld w;
    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);
    uint64_t ctx = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    w.nicA.destroyTxContext(ctx);
    auto p = mkPkt(1, 2, 0, 50, ctx);
    Bytes before(p->payload().begin(), p->payload().end());
    w.nicA.transmit(p);
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 1u);
    // Payload passes through unmodified.
    EXPECT_TRUE(std::equal(before.begin(), before.end(),
                           w.atB[0]->payload().begin()));
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 0u);
}

// ------------------------------------------- context cache (exact LRU)

/**
 * A NIC with a small context cache and a local trace ring. Contexts
 * are tx contexts: creating one touches it, and a zero-payload packet
 * tagged with it touches it again on the tx path.
 */
struct CtxCacheWorld
{
    sim::TraceRing trace;
    NicWorld w;
    tls::DirectionKeys keys;

    explicit CtxCacheWorld(size_t capacity) : w(config(capacity, trace))
    {
        trace.enable();
        keys.key.assign(16, 1);
        keys.staticIv.assign(12, 2);
    }

    static Nic::Config
    config(size_t capacity, sim::TraceRing &ring)
    {
        Nic::Config cfg;
        cfg.ctxCacheCapacity = capacity;
        cfg.trace = &ring;
        return cfg;
    }

    uint64_t
    create()
    {
        return w.nicA.createTxContext(
            std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    }

    void
    touch(uint64_t ctx)
    {
        ASSERT_TRUE(w.nicA.transmit(mkPkt(1, 2, 0, 0, ctx)));
        w.sim.run();
    }

    /** Context ids in the order the cache wrote them back. */
    std::vector<uint64_t>
    evicted() const
    {
        std::vector<uint64_t> ids;
        for (const sim::TraceEvent &e : trace.events())
            if (e.kind == sim::TraceKind::CtxEvict)
                ids.push_back(e.id);
        return ids;
    }

    const NicStats &stats() const { return w.nicA.stats(); }
    uint64_t fetchBytes() const { return w.nicA.pcie().ctxFetchBytes; }
    uint64_t writebackBytes() const
    {
        return w.nicA.pcie().ctxWritebackBytes;
    }
    uint64_t ctxBytes() const { return w.nicA.config().ctxBytes; }
};

TEST(NicCtxCache, RetouchedContextSurvivesEviction)
{
    CtxCacheWorld c(2);
    uint64_t a = c.create();
    uint64_t b = c.create();
    c.touch(a); // a is now the most recently used
    EXPECT_EQ(c.stats().ctxCacheHits, 1u);
    uint64_t x = c.create(); // must write back b, not a
    EXPECT_EQ(c.evicted(), (std::vector<uint64_t>{b}));

    c.touch(a); // still resident
    EXPECT_EQ(c.stats().ctxCacheHits, 2u);
    EXPECT_EQ(c.stats().ctxCacheMisses, 3u);
    c.touch(b); // refetch; x is now the least recently used
    EXPECT_EQ(c.evicted(), (std::vector<uint64_t>{b, x}));

    EXPECT_EQ(c.stats().ctxCacheHits, 2u);
    EXPECT_EQ(c.stats().ctxCacheMisses, 4u);
    EXPECT_EQ(c.stats().ctxCacheEvictions, 2u);
    EXPECT_EQ(c.fetchBytes(), 4 * c.ctxBytes());
    EXPECT_EQ(c.writebackBytes(), 2 * c.ctxBytes());
}

TEST(NicCtxCache, CapacityOneHitEvictSequence)
{
    // With one slot the resident set is exactly the last context
    // touched. A context's first appearance is its creation.
    CtxCacheWorld c(1);
    const int seq[] = {5, 6, 5, 5, 7, 7, 6, 5};
    std::map<int, uint64_t> ids;
    std::vector<bool> hits;
    for (int label : seq) {
        uint64_t before = c.stats().ctxCacheHits;
        auto it = ids.find(label);
        if (it == ids.end())
            ids[label] = c.create();
        else
            c.touch(it->second);
        hits.push_back(c.stats().ctxCacheHits > before);
        EXPECT_EQ(c.w.nicA.ctxResidentCount(), 1u);
    }
    EXPECT_EQ(hits, (std::vector<bool>{false, false, false, true, false,
                                       true, false, false}));
    EXPECT_EQ(c.evicted(), (std::vector<uint64_t>{ids[5], ids[6], ids[5],
                                                  ids[7], ids[6]}));
    EXPECT_EQ(c.stats().ctxCacheHits, 2u);
    EXPECT_EQ(c.stats().ctxCacheMisses, 6u);
    EXPECT_EQ(c.stats().ctxCacheEvictions, 5u);
    EXPECT_EQ(c.fetchBytes(), 6 * c.ctxBytes());
    EXPECT_EQ(c.writebackBytes(), 5 * c.ctxBytes());
}

TEST(NicCtxCache, DestroyedResidentFreesSlotWithoutWriteback)
{
    CtxCacheWorld c(3);
    uint64_t a = c.create();
    uint64_t b = c.create();
    uint64_t x = c.create();
    c.w.nicA.destroyTxContext(b); // resident, in the middle of the list
    EXPECT_EQ(c.w.nicA.ctxResidentCount(), 2u);
    EXPECT_EQ(c.stats().ctxCacheEvictions, 0u);
    EXPECT_EQ(c.writebackBytes(), 0u);

    uint64_t d = c.create(); // takes b's slot: nothing written back
    EXPECT_EQ(c.stats().ctxCacheEvictions, 0u);
    c.touch(a);
    c.touch(x);
    c.touch(d);
    EXPECT_EQ(c.stats().ctxCacheHits, 3u);

    c.create(); // full again: a is the least recently used
    EXPECT_EQ(c.evicted(), (std::vector<uint64_t>{a}));
    EXPECT_EQ(c.stats().ctxCacheHits, 3u);
    EXPECT_EQ(c.stats().ctxCacheMisses, 5u);
    EXPECT_EQ(c.stats().ctxCacheEvictions, 1u);
    EXPECT_EQ(c.fetchBytes(), 5 * c.ctxBytes());
    EXPECT_EQ(c.writebackBytes(), 1 * c.ctxBytes());
}

// -------------------------------------------- eviction edge cases (NIC)

TEST(NicDevice, DestroyOfEvictedContextIsSafe)
{
    // A context can be destroyed while its state is evicted (written
    // back to host memory): close() after a long idle period.
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 1;
    NicWorld w(cfg);
    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 1u); // c2 evicted c1

    w.nicA.destroyTxContext(c1); // non-resident: must not touch cache
    w.nicA.destroyTxContext(c1); // double destroy is a no-op
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 1u);

    // The surviving context still offloads.
    tls::RecordHeader h;
    h.length = 50 + 16;
    Bytes rec(h.wireLen(), 0);
    h.encode(rec.data());
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    net::TcpHeader t;
    t.seq = 0;
    auto p = net::PacketPool::threadDefault().make(ip, t, rec);
    p->txCtx = c2;
    w.nicA.transmit(p);
    w.sim.run();
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 1u);
    w.nicA.destroyTxContext(c2);
}

TEST(NicDevice, EvictedContextRefetchesAndResumes)
{
    // Eviction models a writeback, not destruction: after its slot is
    // stolen, the next touch re-fetches the 208 B state over PCIe and
    // encryption resumes exactly where it left off (record number,
    // expected sequence) — no resync, no corruption.
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 1; // every flow switch evicts the other
    NicWorld w(cfg);
    tls::DirectionKeys keys;
    keys.key.assign(16, 0x42);
    keys.staticIv.assign(12, 0x24);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);

    constexpr size_t kPlain = 64;
    auto mkRecord = [&](uint64_t seed) {
        tls::RecordHeader h;
        h.length = kPlain + 16;
        Bytes rec(h.wireLen(), 0);
        h.encode(rec.data());
        Bytes pt(kPlain);
        fillDeterministic(pt, seed, 0);
        std::memcpy(rec.data() + 5, pt.data(), kPlain);
        return rec;
    };
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    auto ship = [&](uint64_t ctx, uint32_t seq, const Bytes &rec) {
        net::TcpHeader t;
        t.seq = seq;
        auto p = net::PacketPool::threadDefault().make(ip, t, rec);
        p->txCtx = ctx;
        ASSERT_TRUE(w.nicA.transmit(p));
    };

    // Interleave: c1 record 0, c2 record 0 (evicts c1), c1 record 1
    // (refetches c1, evicts c2), c2 record 1 (refetches c2).
    Bytes r10 = mkRecord(10);
    Bytes r20 = mkRecord(20);
    Bytes r11 = mkRecord(11);
    Bytes r21 = mkRecord(21);
    const uint32_t recLen = static_cast<uint32_t>(r10.size());
    ship(c1, 0, r10);
    ship(c2, 0, r20);
    ship(c1, recLen, r11);
    ship(c2, recLen, r21);
    w.sim.run();

    ASSERT_EQ(w.atB.size(), 4u);
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 4u);
    EXPECT_EQ(w.nicA.stats().txResyncs, 0u);
    // Create touches + per-packet touches with capacity 1: everything
    // after the first create misses and evicts the other context.
    EXPECT_EQ(w.nicA.stats().ctxCacheMisses, 6u);
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 5u);
    EXPECT_EQ(w.nicA.pcie().ctxFetchBytes, 6 * cfg.ctxBytes);
    EXPECT_EQ(w.nicA.pcie().ctxWritebackBytes, 5 * cfg.ctxBytes);

    // Both flows decrypt cleanly with per-flow record numbers 0 and 1:
    // the evicted-and-refetched state carried the record counter.
    crypto::AesGcm gcm(keys.key);
    struct Want
    {
        uint64_t seed;
        uint64_t recNo;
    };
    const Want want[] = {{10, 0}, {20, 0}, {11, 1}, {21, 1}};
    for (size_t i = 0; i < 4; i++) {
        ByteView sealed = w.atB[i]->payload();
        auto nonce = tls::recordNonce(keys.staticIv, want[i].recNo);
        Bytes out;
        ASSERT_TRUE(gcm.open(nonce, sealed.subspan(0, 5),
                             sealed.subspan(5), out))
            << i;
        Bytes pt(kPlain);
        fillDeterministic(pt, want[i].seed, 0);
        EXPECT_EQ(out, pt) << i;
    }
    w.nicA.destroyTxContext(c1);
    w.nicA.destroyTxContext(c2);
}

} // namespace
} // namespace anic::nic
