/**
 * @file
 * Storage L5P kit tests, typed over both storage protocols: the NIC rx
 * digest/placement engine, the tx digest-fill engine and the software
 * PDU assembler, driven directly (no fabric). Each case feeds wire
 * bytes the way the stream FSM does: the 8-byte prefix to onMsgStart,
 * then message bytes from offset 8 in arbitrary pieces.
 */

#include <gtest/gtest.h>

#include <deque>

#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "support/offload_world.hh"
#include "util/rand.hh"

namespace anic {
namespace {

constexpr size_t kPrefix = 8;

/** NVMe-TCP: C2HData PDUs keyed by CID at their data offset. */
struct NvmeCase
{
    using Wire = nvmetcp::WireConfig;
    using Trait = nvmetcp::NvmeTrait;
    using Initiator = nvmetcp::NvmeHostQueue;
    static constexpr net::L5Kind kKind = net::L5Kind::Nvme;

    static Bytes
    dataPdu(const Wire &wc, uint32_t tag, uint32_t bufOff, ByteView data,
            bool fillDdgst)
    {
        nvmetcp::DataPduHdr dh{static_cast<uint16_t>(tag), bufOff,
                               static_cast<uint32_t>(data.size())};
        return nvmetcp::buildDataPdu(wc, nvmetcp::kPduC2HData, dh, data,
                                     fillDdgst);
    }

    static Bytes
    cmdPdu(const Wire &wc, uint32_t tag)
    {
        return nvmetcp::buildCmdCapsule(
            wc, nvmetcp::CmdCapsule{static_cast<uint16_t>(tag),
                                    nvmetcp::kOpRead, 0, 4096});
    }

    static size_t
    dataStart(const Wire &wc)
    {
        return nvmetcp::kDataHdrSize + wc.digestLen();
    }
};

/** iSCSI: Data-In PDUs keyed by ITT at their BufferOffset. */
struct IscsiCase
{
    using Wire = iscsi::IscsiWireConfig;
    using Trait = iscsi::IscsiTrait;
    using Initiator = iscsi::IscsiInitiator;
    static constexpr net::L5Kind kKind = net::L5Kind::Iscsi;

    static Bytes
    dataPdu(const Wire &wc, uint32_t tag, uint32_t bufOff, ByteView data,
            bool fillDdgst)
    {
        iscsi::IscsiBhs dh;
        dh.itt = tag;
        dh.bufferOffset = bufOff;
        dh.flags = iscsi::kFlagFinal;
        return iscsi::buildDataPdu(wc, iscsi::kOpDataIn, dh, data, fillDdgst);
    }

    static Bytes
    cmdPdu(const Wire &wc, uint32_t tag)
    {
        iscsi::IscsiBhs bhs;
        bhs.itt = tag;
        bhs.scsiOp = iscsi::kScsiRead;
        bhs.length = 4096;
        return iscsi::buildScsiCmd(wc, bhs);
    }

    static size_t
    dataStart(const Wire &wc)
    {
        return iscsi::kBhsSize + wc.hdgstLen();
    }
};

/** What the engine reported over the packets of one message. */
struct Fed
{
    net::VerifyOutcome verdict = net::VerifyOutcome::None;
    uint64_t placed = 0;
};

template <typename C>
class StorageKit : public ::testing::Test
{
  protected:
    using Wire = typename C::Wire;

    StorageKit() : rng_(17) {}

    /** Feeds @p bytes (message offsets [@p from, from + size)) to the
     *  engine as packets of random size; one PacketResult each. */
    template <typename E>
    void
    feed(E &eng, ByteSpan bytes, uint64_t from, Fed &out)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            size_t n = std::min<size_t>(rng_.range(1, 700), bytes.size() - off);
            nic::PacketResult res;
            eng.onMsgData(from + off, bytes.subspan(off, n), false, res);
            for (const net::PlacedRange &r : res.placed)
                out.placed += r.len;
            out.verdict = net::worseOutcome(out.verdict, res.verifyOf(C::kKind));
            off += n;
        }
    }

    /** Runs one whole message through @p eng from its first byte. */
    template <typename E>
    Fed
    runMessage(E &eng, Bytes &pdu, uint64_t msgIdx)
    {
        std::optional<nic::MsgInfo> info =
            eng.parseHeader(ByteView(pdu.data(), kPrefix));
        EXPECT_TRUE(info.has_value());
        EXPECT_EQ(info->wireLen, pdu.size());
        eng.onMsgStart(msgIdx, ByteView(pdu.data(), kPrefix));
        Fed out;
        feed(eng, ByteSpan(pdu).subspan(kPrefix), kPrefix, out);
        nic::PacketResult end;
        eng.onMsgEnd(true, end);
        out.verdict = net::worseOutcome(out.verdict, end.verifyOf(C::kKind));
        return out;
    }

    Bytes
    payload(size_t n, uint64_t seed)
    {
        Bytes data(n);
        fillDeterministic(data, seed, 0);
        return data;
    }

    Wire wc_;
    Rng rng_;
    nic::EngineStatsBank bank_;
};

/** A StreamSocket the test feeds by hand: segments queue until
 *  deliver() hands all of them to the session in one readable batch. */
class ScriptedSocket : public tcp::StreamSocket
{
  public:
    explicit ScriptedSocket(host::Core &core) : core_(core) {}

    void
    push(ByteView bytes, uint64_t streamOff)
    {
        tcp::RxSegment seg;
        seg.streamOff = streamOff;
        seg.data.assign(bytes.begin(), bytes.end());
        rx_.push_back(std::move(seg));
    }

    void deliver() { onReadable_(); }

    size_t send(ByteView data) override { return data.size(); }
    size_t sendSpace() const override { return 1 << 20; }
    void setOnWritable(std::function<void()>) override {}
    bool readable() const override { return !rx_.empty(); }

    tcp::RxSegment
    pop() override
    {
        tcp::RxSegment seg = std::move(rx_.front());
        rx_.pop_front();
        return seg;
    }

    void
    setOnReadable(std::function<void()> cb) override
    {
        onReadable_ = std::move(cb);
    }

    void setOnPeerClosed(std::function<void()>) override {}
    void close() override {}
    host::Core &core() override { return core_; }

  private:
    host::Core &core_;
    std::deque<tcp::RxSegment> rx_;
    std::function<void()> onReadable_;
};

using Protocols = ::testing::Types<NvmeCase, IscsiCase>;
TYPED_TEST_SUITE(StorageKit, Protocols);

TYPED_TEST(StorageKit, AssemblerHandlesArbitrarySegmentation)
{
    using C = TypeParam;
    Bytes stream;
    std::vector<size_t> lens;
    Rng rng(5);
    for (uint32_t i = 0; i < 20; i++) {
        Bytes pdu = i % 3 == 0 ? C::cmdPdu(this->wc_, i)
                               : C::dataPdu(this->wc_, i, 0,
                                            this->payload(rng.range(1, 5000), i),
                                            true);
        lens.push_back(pdu.size());
        stream.insert(stream.end(), pdu.begin(), pdu.end());
    }

    core::StoragePduAssembler<typename C::Trait> as(this->wc_);
    std::vector<core::StoragePdu> out;
    uint64_t off = 0;
    while (off < stream.size()) {
        size_t n = std::min<size_t>(rng.range(1, 1460), stream.size() - off);
        tcp::RxSegment seg;
        seg.streamOff = off;
        seg.data.assign(stream.begin() + off, stream.begin() + off + n);
        as.ingest(seg, [](uint64_t) {},
                  [&](core::StoragePdu &&p) { out.push_back(std::move(p)); });
        off += n;
        EXPECT_EQ(as.streamConsumed(), off);
    }
    ASSERT_FALSE(as.error());
    ASSERT_EQ(out.size(), 20u);
    EXPECT_EQ(as.pdusDelivered(), 20u);
    EXPECT_FALSE(as.midPdu());
    size_t start = 0;
    for (size_t i = 0; i < out.size(); i++) {
        ASSERT_EQ(out[i].bytes.size(), lens[i]);
        EXPECT_TRUE(std::equal(out[i].bytes.begin(), out[i].bytes.end(),
                               stream.begin() + start));
        // No NIC metadata on these segments: nothing counts as checked.
        EXPECT_FALSE(out[i].digestOffloaded);
        start += lens[i];
    }
}

TYPED_TEST(StorageKit, AssemblerRejectsBrokenFraming)
{
    using C = TypeParam;
    Bytes pdu = C::cmdPdu(this->wc_, 1);
    pdu[0] = 0x7f; // unknown PDU type / opcode
    core::StoragePduAssembler<typename C::Trait> as(this->wc_);
    tcp::RxSegment seg;
    seg.data.assign(pdu.begin(), pdu.end());
    size_t delivered = 0;
    as.ingest(seg, [](uint64_t) {}, [&](core::StoragePdu &&) { delivered++; });
    EXPECT_TRUE(as.error());
    EXPECT_EQ(delivered, 0u);
}

TYPED_TEST(StorageKit, RxVerifiesAndPlacesUnderArbitrarySegmentation)
{
    using C = TypeParam;
    core::StorageRxEngine<typename C::Trait> eng(this->wc_);
    eng.setStats(&this->bank_);
    auto buf = std::make_shared<host::BlockBuffer>(8192);
    eng.addRrState(42, buf);

    for (int round = 0; round < 8; round++) {
        size_t n = this->rng_.range(1, 4096);
        uint32_t at = static_cast<uint32_t>(this->rng_.range(0, 8192 - n));
        Bytes data = this->payload(n, round);
        Bytes pdu = C::dataPdu(this->wc_, 42, at, data, true);
        Fed fed = this->runMessage(eng, pdu, round);
        EXPECT_EQ(fed.verdict, net::VerifyOutcome::Ok);
        EXPECT_EQ(fed.placed, n);
        EXPECT_TRUE(std::equal(data.begin(), data.end(),
                               buf->data.begin() + at));
    }
    const nic::EngineStats &es = this->bank_.of(C::kKind);
    EXPECT_EQ(es.verifiedOk, 8u);
    EXPECT_EQ(es.verifyFailures, 0u);

    // A flipped payload byte fails the data digest; the PDU of an
    // unknown tag verifies but is not placed.
    Bytes data = this->payload(1000, 99);
    Bytes bad = C::dataPdu(this->wc_, 42, 0, data, true);
    bad[C::dataStart(this->wc_) + 10] ^= 1;
    EXPECT_EQ(this->runMessage(eng, bad, 8).verdict,
              net::VerifyOutcome::Failed);
    Bytes stranger = C::dataPdu(this->wc_, 7, 0, data, true);
    Fed fed = this->runMessage(eng, stranger, 9);
    EXPECT_EQ(fed.verdict, net::VerifyOutcome::Ok);
    EXPECT_EQ(fed.placed, 0u);
    EXPECT_EQ(es.verifyFailures, 1u);

    // After del_rr_state the tag no longer places.
    eng.delRrState(42);
    Bytes late = C::dataPdu(this->wc_, 42, 0, data, true);
    EXPECT_EQ(this->runMessage(eng, late, 10).placed, 0u);
}

TYPED_TEST(StorageKit, ResumeRecycledIndexWithDifferentHeaderPlacesNothing)
{
    using C = TypeParam;
    core::StorageRxEngine<typename C::Trait> eng(this->wc_);
    auto buf = std::make_shared<host::BlockBuffer>(8192);
    eng.addRrState(5, buf);

    Bytes first = C::dataPdu(this->wc_, 5, 0, this->payload(3000, 1), true);
    const size_t ds = C::dataStart(this->wc_);
    const uint64_t cut = ds + 1000;

    // Start PDU #3, see its whole header and some data, then lose
    // packets (the FSM aborts the message).
    eng.onMsgStart(3, ByteView(first.data(), kPrefix));
    Fed before;
    this->feed(eng, ByteSpan(first).subspan(kPrefix, cut - kPrefix), kPrefix,
               before);
    EXPECT_EQ(before.placed, 1000u);
    eng.onMsgAbort();

    // Software confirms a resync that recycles index 3 for a different
    // PDU (other length): the cached tag must not be trusted.
    std::fill(buf->data.begin(), buf->data.end(), 0);
    Bytes other = C::dataPdu(this->wc_, 5, 0, this->payload(2000, 2), true);
    eng.onMsgResume(3, ByteView(other.data(), kPrefix), cut);
    Fed after;
    this->feed(eng, ByteSpan(other).subspan(cut), cut, after);
    nic::PacketResult end;
    eng.onMsgEnd(false, end);
    EXPECT_EQ(after.placed, 0u);
    EXPECT_EQ(end.verifyOf(C::kKind), net::VerifyOutcome::Incomplete);
    EXPECT_TRUE(std::all_of(buf->data.begin(), buf->data.end(),
                            [](uint8_t b) { return b == 0; }));

    // The same index with the same header resumes placement, but the
    // digest stays unchecked (bytes before the gap were not covered).
    eng.onMsgStart(4, ByteView(first.data(), kPrefix));
    Fed head;
    this->feed(eng, ByteSpan(first).subspan(kPrefix, cut - kPrefix), kPrefix,
               head);
    eng.onMsgAbort();
    eng.onMsgResume(4, ByteView(first.data(), kPrefix), cut + 100);
    Fed tail;
    this->feed(eng, ByteSpan(first).subspan(cut + 100), cut + 100, tail);
    nic::PacketResult end2;
    eng.onMsgEnd(false, end2);
    EXPECT_EQ(tail.placed, 2000u - 100u);
    EXPECT_EQ(end2.verifyOf(C::kKind), net::VerifyOutcome::Incomplete);
}

TYPED_TEST(StorageKit, DigestTrailerIsClamped)
{
    using C = TypeParam;
    // The cached header frames a shorter PDU than the bytes that
    // follow (stale state across a resume): bytes past the 4-byte
    // trailer are ignored and the verdict falls back to software.
    Bytes data = this->payload(600, 3);
    Bytes pdu = C::dataPdu(this->wc_, 9, 0, data, true);
    Bytes longer = pdu;
    longer.insert(longer.end(), 16, 0xab);

    core::StorageRxEngine<typename C::Trait> rx(this->wc_);
    rx.onMsgStart(0, ByteView(pdu.data(), kPrefix));
    Fed fed;
    this->feed(rx, ByteSpan(longer).subspan(kPrefix), kPrefix, fed);
    nic::PacketResult end;
    rx.onMsgEnd(true, end);
    EXPECT_EQ(end.verifyOf(C::kKind), net::VerifyOutcome::Incomplete);

    // The tx engine never writes past the trailer either.
    Bytes dummy = C::dataPdu(this->wc_, 9, 0, data, false);
    dummy.insert(dummy.end(), 16, 0xab);
    core::StorageTxEngine<typename C::Trait> tx(this->wc_);
    tx.onMsgStart(0, ByteView(dummy.data(), kPrefix));
    Fed ignored;
    this->feed(tx, ByteSpan(dummy).subspan(kPrefix), kPrefix, ignored);
    EXPECT_TRUE(std::equal(dummy.begin(), dummy.begin() + pdu.size(),
                           pdu.begin()));
    EXPECT_TRUE(std::all_of(dummy.begin() + pdu.size(), dummy.end(),
                            [](uint8_t b) { return b == 0xab; }));
}

TYPED_TEST(StorageKit, TxDigestFillEqualsSoftwareCrc)
{
    using C = TypeParam;
    core::StorageTxEngine<typename C::Trait> tx(this->wc_);
    tx.setStats(&this->bank_);
    uint64_t covered = 0;
    for (uint32_t i = 0; i < 6; i++) {
        Bytes data = this->payload(this->rng_.range(1, 9000), 10 + i);
        Bytes want = C::dataPdu(this->wc_, i, 0, data, true);
        Bytes got = C::dataPdu(this->wc_, i, 0, data, false);
        ASSERT_NE(got, want); // dummy digest on the wire
        this->runMessage(tx, got, i);
        EXPECT_EQ(got, want);
        covered += data.size();

        // Data-less PDUs pass through untouched.
        Bytes cmd = C::cmdPdu(this->wc_, i);
        Bytes copy = cmd;
        this->runMessage(tx, copy, 100 + i);
        EXPECT_EQ(copy, cmd);
    }
    EXPECT_EQ(this->bank_.of(C::kKind).bytesChecked, covered);
}

TYPED_TEST(StorageKit, ResyncAfterGapFillConfirmsMidBatchPdu)
{
    // A gap fill hands three PDUs to one onReadable. The NIC speculated
    // a header at the start of the middle one while software was still
    // waiting at the gap: the speculation is right and must be
    // confirmed, even though the batch ends past it.
    using C = TypeParam;
    testing::OffloadWorld w;
    tcp::TcpConnection *conn = nullptr;
    w.b.stack().listen(3260, {},
                       [&](tcp::TcpConnection &c) { conn = &c; });
    w.a.stack().connect(testing::OffloadWorld::kIpA,
                        testing::OffloadWorld::kIpB, 3260, {});
    w.sim.runUntil(10 * sim::kMillisecond);
    ASSERT_NE(conn, nullptr);

    ScriptedSocket sock(conn->core());
    core::StorageOffloadConfig ocfg;
    ocfg.crcRx = true;
    typename C::Initiator ini(sock, this->wc_, ocfg);
    ini.enableOffload(w.b.device(), *conn);

    std::vector<Bytes> pdus;
    for (uint32_t i = 0; i < 3; i++) {
        pdus.push_back(C::dataPdu(this->wc_, 100 + i, 0,
                                  this->payload(3000, i), true));
    }
    uint64_t second = pdus[0].size();

    // l5o_resync_rx_req, as the driver upcalls it.
    ini.resyncRxReq(conn->seqOfRcvStreamOff(second));
    EXPECT_EQ(ini.stats().resyncRequests, 1u);
    EXPECT_EQ(ini.stats().resyncConfirmed, 0u); // not there yet

    uint64_t off = 0;
    for (const Bytes &p : pdus) {
        sock.push(p, off);
        off += p.size();
    }
    sock.deliver();
    EXPECT_FALSE(ini.desynced());
    EXPECT_EQ(ini.stats().resyncConfirmed, 1u);
}

} // namespace
} // namespace anic
