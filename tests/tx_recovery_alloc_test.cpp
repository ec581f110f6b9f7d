/**
 * @file
 * Tx context recovery in steady state makes no heap allocation: the
 * tx log hands out its shared message buffer, the resync descriptor
 * holds it inline in the ring, and the NIC's drain-time read of the
 * rebuild prefix lands in reused scratch. A counting global operator
 * new (as in packet_pool_test) checks it; it is its own binary
 * because the replacement applies to the whole program.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "core/l5p_session.hh"
#include "net/packet_pool.hh"
#include "nic/nic.hh"
#include "tls/tls_engine.hh"

// The replaced global operator new below allocates with malloc, so
// pairing it with free() is correct; GCC cannot see that and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace anic {
namespace {

bool g_countAllocs = false;
uint64_t g_allocs = 0;

} // namespace
} // namespace anic

void *
operator new(std::size_t n)
{
    if (anic::g_countAllocs)
        anic::g_allocs++;
    void *p = std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace anic {
namespace {

constexpr uint32_t kStartSeq = 1000;
constexpr size_t kPlain = 4000;
constexpr size_t kSeg = 1400;
constexpr int kWarmup = 10000;
constexpr int kRounds = 500;

TEST(TxRecovery, SteadyStateResyncDoesZeroHeapAllocation)
{
    sim::Simulator sim;
    net::Link link(sim, {});
    nic::Nic nic(sim, link, 0, {});

    tls::DirectionKeys keys;
    keys.key.assign(16, 0x42);
    keys.staticIv.assign(12, 0x24);
    uint64_t ctx = nic.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), kStartSeq, 0);

    // One record as the L5P logs it: header, plaintext, dummy tag.
    tls::RecordHeader h;
    h.length = kPlain + 16;
    Bytes r(h.wireLen(), 0);
    h.encode(r.data());
    fillDeterministic(ByteSpan(r).subspan(5, kPlain), 9, 0);
    const size_t wireLen = r.size();
    SharedBytes rec = std::make_shared<const Bytes>(std::move(r));
    core::TxMsgLog log;
    log.add(kStartSeq, 0, rec);

    // The wire side: the first pass records the ciphertext, later
    // passes compare against it in place.
    Bytes first;
    first.reserve(wireLen);
    bool recording = true;
    uint64_t mismatches = 0;
    uint64_t delivered = 0;
    link.attach(1, [&](net::PacketPtr p) {
        ByteView pl = p->payload();
        size_t off = p->tcp().seq - kStartSeq;
        if (recording)
            first.insert(first.end(), pl.begin(), pl.end());
        else if (!std::equal(pl.begin(), pl.end(), first.begin() + off))
            mismatches++;
        delivered++;
    });

    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    auto segment = [&](size_t off) {
        net::TcpHeader t;
        t.seq = kStartSeq + static_cast<uint32_t>(off);
        size_t len = std::min(kSeg, wireLen - off);
        auto p = net::PacketPool::threadDefault().make(
            ip, t, ByteView(*rec).subspan(off, len));
        p->txCtx = ctx;
        return p;
    };
    // One retransmission: recover the context at @p off (the driver's
    // l5o_get_tx_msgstate + special descriptor), then resend.
    auto retransmit = [&](size_t off) {
        std::optional<core::TxMsgState> st =
            log.state(kStartSeq + static_cast<uint32_t>(off));
        nic.postTxResync(ctx, kStartSeq + static_cast<uint32_t>(off),
                         st->msgIdx, std::move(st->msg), st->rebuildLen);
        nic.transmit(segment(off));
        sim.run();
    };

    for (size_t off = 0; off < wireLen; off += kSeg)
        nic.transmit(segment(off));
    sim.run();
    ASSERT_EQ(first.size(), wireLen);
    recording = false;

    // Warm-up sizes the NIC scratch, the tx ring, the event store, the
    // link's batch vectors and the packet pool, and runs simulated time
    // round the event calendar often enough that each of its buckets
    // has had its first (and only) allocation.
    auto offAt = [](int i) { return kSeg * (1 + static_cast<size_t>(i) % 2); };
    for (int i = 0; i < kWarmup; i++)
        retransmit(offAt(i));
    const uint64_t resyncsBefore = nic.stats().txResyncs;
    const uint64_t ctxRecoveryBefore = nic.pcie().ctxRecoveryBytes;

    uint64_t prefixBytes = 0;
    g_allocs = 0;
    g_countAllocs = true;
    for (int i = 0; i < kRounds; i++) {
        retransmit(offAt(i));
        prefixBytes += offAt(i);
    }
    g_countAllocs = false;

    EXPECT_EQ(g_allocs, 0u) << "tx context recovery must not touch the heap";
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(nic.stats().txResyncs - resyncsBefore,
              static_cast<uint64_t>(kRounds));
    EXPECT_EQ(nic.pcie().ctxRecoveryBytes - ctxRecoveryBefore, prefixBytes);
    EXPECT_GT(delivered, static_cast<uint64_t>(kRounds));
}

} // namespace
} // namespace anic
