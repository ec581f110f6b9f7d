/**
 * @file
 * Unit tests for the core offload framework: the L5P session core's
 * tx message log (seq->message map with ack trimming) and rx resync
 * answerer, and driver-level behaviours —
 * resync response staleness matching and shadow-context recovery —
 * exercised through a minimal TLS offload.
 */

#include <gtest/gtest.h>

#include "core/l5p_session.hh"
#include "support/offload_world.hh"
#include "tls/ktls.hh"

namespace anic {
namespace {

using core::RxResyncAnswerer;
using core::TxMsgLog;

/** A message of @p n deterministic bytes. */
SharedBytes
msg(size_t n, uint64_t seed = 0)
{
    Bytes b(n);
    fillDeterministic(b, seed, 0);
    return std::make_shared<const Bytes>(std::move(b));
}

/** Index of the logged message holding @p seq, or -1. */
int64_t
idxAt(const TxMsgLog &t, uint32_t seq)
{
    std::optional<core::TxMsgState> st = t.state(seq);
    return st ? static_cast<int64_t>(st->msgIdx) : -1;
}

TEST(TxMsgLog, FindsContainingMessage)
{
    TxMsgLog t;
    t.add(1000, 0, msg(100));
    t.add(1100, 1, msg(50));
    t.add(1150, 2, msg(200));

    EXPECT_EQ(idxAt(t, 1000), 0);
    EXPECT_EQ(idxAt(t, 1099), 0);
    EXPECT_EQ(idxAt(t, 1100), 1);
    EXPECT_EQ(idxAt(t, 1349), 2);
    EXPECT_EQ(idxAt(t, 1350), -1);
    EXPECT_EQ(idxAt(t, 999), -1);
}

TEST(TxMsgLog, TrimsOnlyFullyAckedMessages)
{
    TxMsgLog t;
    t.add(0, 0, msg(100));
    t.add(100, 1, msg(100));
    t.trimAcked(150); // message 1 partially acked: must stay
    EXPECT_EQ(idxAt(t, 50), -1);
    EXPECT_EQ(idxAt(t, 120), 1);
    t.trimAcked(200);
    EXPECT_EQ(idxAt(t, 120), -1);
}

TEST(TxMsgLog, SequenceWrapAround)
{
    TxMsgLog t;
    uint32_t near_wrap = 0xffffff00u;
    t.add(near_wrap, 7, msg(0x200)); // wraps past zero
    EXPECT_EQ(idxAt(t, 0x40), 7);    // inside, post-wrap
    EXPECT_EQ(idxAt(t, 0x100), -1);
    t.trimAcked(0x100);
    EXPECT_EQ(idxAt(t, 0x40), -1);
}

TEST(TxMsgLog, RetainedBytesServeRebuilds)
{
    TxMsgLog t;
    SharedBytes m = msg(300, 5);
    t.add(5000, 3, m);
    std::optional<core::TxMsgState> st = t.state(5100);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->msgIdx, 3u);
    // The state shares the logged buffer instead of copying a prefix.
    EXPECT_EQ(st->msg, m);
    ASSERT_EQ(st->rebuildLen, 100u);
    EXPECT_TRUE(checkDeterministic(ByteView(*st->msg).first(100), 5, 0));
}

// ------------------------------------------------ rx resync answerer
//
// Messages here start at stream offsets 0, 100, 200, ...; the cases
// drive the answerer the way a session does: check() with the start of
// the current (or next) message when the speculation is located, then
// with every later message start.

TEST(RxResyncAnswerer, ConfirmsAtMessageStart)
{
    RxResyncAnswerer a;
    a.expect(7);
    a.locate(200);
    EXPECT_EQ(a.check(100), std::nullopt);
    EXPECT_EQ(a.check(200), std::optional<bool>(true));
    EXPECT_EQ(a.token(), 7u);
    EXPECT_EQ(a.check(200), std::nullopt); // answered once
}

TEST(RxResyncAnswerer, RefutesOnceAStartPassesIt)
{
    // The speculation points inside message [100, 200): no message
    // starts there, so the next start refutes it.
    RxResyncAnswerer a;
    a.expect(1);
    a.locate(150);
    EXPECT_EQ(a.check(100), std::nullopt);
    EXPECT_EQ(a.check(200), std::optional<bool>(false));
    EXPECT_EQ(a.check(300), std::nullopt); // answered once
}

TEST(RxResyncAnswerer, WaitsWhileProcessingIsBehind)
{
    RxResyncAnswerer a;
    a.expect(1);
    EXPECT_EQ(a.check(500), std::nullopt); // not located yet
    EXPECT_TRUE(a.unlocated());
    a.locate(400);
    for (uint64_t start = 0; start < 400; start += 100)
        EXPECT_EQ(a.check(start), std::nullopt);
    EXPECT_FALSE(a.unlocated());
    EXPECT_EQ(a.check(400), std::optional<bool>(true));
}

TEST(RxResyncAnswerer, RequestMidMessage)
{
    // Processing is inside message [100, 200) when the request comes:
    // the request-time check compares with that message's start.
    RxResyncAnswerer hit;
    hit.expect(1);
    hit.locate(100);
    EXPECT_EQ(hit.check(100), std::optional<bool>(true));

    RxResyncAnswerer behind;
    behind.expect(1);
    behind.locate(0); // a message software has already passed
    EXPECT_EQ(behind.check(100), std::optional<bool>(false));

    RxResyncAnswerer ahead;
    ahead.expect(1);
    ahead.locate(300);
    EXPECT_EQ(ahead.check(100), std::nullopt);
    EXPECT_EQ(ahead.check(200), std::nullopt);
    EXPECT_EQ(ahead.check(300), std::optional<bool>(true));
}

TEST(RxResyncAnswerer, RequestBetweenMessages)
{
    // Message [0, 100) is done and the next has not begun: the
    // request-time check compares with the next start, 100.
    RxResyncAnswerer next;
    next.expect(1);
    next.locate(100);
    EXPECT_EQ(next.check(100), std::optional<bool>(true));

    RxResyncAnswerer inside;
    inside.expect(1);
    inside.locate(50); // inside the finished message
    EXPECT_EQ(inside.check(100), std::optional<bool>(false));

    // A newer speculation replaces the pending one.
    RxResyncAnswerer replaced;
    replaced.expect(1);
    replaced.locate(300);
    replaced.expect(2);
    replaced.locate(100);
    EXPECT_EQ(replaced.check(100), std::optional<bool>(true));
    EXPECT_EQ(replaced.token(), 2u);
}

// ------------------------------------------------- driver behaviours

TEST(OffloadDriver, StaleResyncResponseIsDropped)
{
    // Covered behaviourally: a response for a speculation the NIC
    // abandoned must not confirm the new speculation. Exercised at
    // the unit level via the public l5o handle.
    testing::OffloadWorld w;
    std::unique_ptr<tls::TlsSocket> server;
    std::unique_ptr<tls::TlsSocket> client;
    w.b.stack().listen(443, {}, [&](tcp::TcpConnection &c) {
        tls::TlsConfig scfg;
        scfg.rxOffload = true;
        server = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(1, false), scfg);
        server->enableOffload(w.b.device());
    });
    tcp::TcpConnection &c =
        w.a.stack().connect(testing::OffloadWorld::kIpA,
                            testing::OffloadWorld::kIpB, 443, {});
    c.setOnConnected([&] {
        client = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(1, true), tls::TlsConfig{});
    });
    w.sim.runUntil(10 * sim::kMillisecond);
    ASSERT_NE(server, nullptr);

    // No speculation pending: an unsolicited response is ignored.
    server->offload()->resyncRxResp(12345, true, 99);
    EXPECT_EQ(server->rxFsmStats()->resyncConfirmed, 0u);
}

TEST(OffloadDriver, TxRecoveryFeedsRebuildOverPcie)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.05;
    lc.seed = 3;
    testing::OffloadWorld w(lc);

    std::unique_ptr<tls::TlsSocket> server;
    std::unique_ptr<tls::TlsSocket> client;
    uint64_t received = 0;
    bool corrupt = false;
    constexpr uint64_t kSeed = 9;

    w.b.stack().listen(443, {}, [&](tcp::TcpConnection &c) {
        server = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(2, false), tls::TlsConfig{});
        server->setOnReadable([&] {
            while (server->readable()) {
                tcp::RxSegment seg = server->pop();
                if (!checkDeterministic(seg.data, kSeed, seg.streamOff))
                    corrupt = true;
                received += seg.data.size();
            }
        });
    });
    tcp::TcpConnection &c =
        w.a.stack().connect(testing::OffloadWorld::kIpA,
                            testing::OffloadWorld::kIpB, 443, {});
    uint64_t sent = 0;
    constexpr uint64_t kTotal = 1 << 20;
    c.setOnConnected([&] {
        tls::TlsConfig ccfg;
        ccfg.txOffload = true;
        client = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(2, true), ccfg);
        client->enableOffload(w.a.device());
        auto pump = [&] {
            while (sent < kTotal) {
                size_t n = std::min<uint64_t>(kTotal - sent, 32768);
                Bytes b(n);
                fillDeterministic(b, kSeed, sent);
                size_t acc = client->send(b);
                sent += acc;
                if (acc < n)
                    break;
            }
        };
        client->setOnWritable(pump);
        pump();
    });

    w.sim.runUntil(5 * sim::kSecond);
    EXPECT_EQ(received, kTotal);
    EXPECT_FALSE(corrupt);

    // Every tx resync DMA-read a rebuild prefix.
    const nic::NicStats &ns = w.a.nicDev().stats();
    EXPECT_GT(ns.txResyncs, 0u);
    EXPECT_GT(w.a.nicDev().pcie().ctxRecoveryBytes, 0u);
    EXPECT_EQ(client->stats().txMsgStateUpcalls, ns.txResyncs);
}

} // namespace
} // namespace anic
