/**
 * @file
 * The storage-L5P kit: one implementation of everything NVMe-TCP and
 * iSCSI share, parameterised by a small per-protocol trait.
 *
 * Both protocols frame PDUs with an 8-byte prefix that yields the wire
 * length, followed by a sub-header that names the command (tag) and
 * the data's place in its buffer, an optional header digest, a data
 * region and a CRC32C data digest. The paper keeps framing and resync
 * generic and only the per-L5P computation protocol-specific (§3);
 * this kit applies the same split one level up:
 *
 *  - StorageRxEngine: NIC receive side. Verifies the data digest (and
 *    the header digest where the trait asks for it), and places data
 *    PDU payload straight into the block buffer registered for its tag
 *    (l5o_add_rr_state, Figure 9). Placement resumes mid-message once
 *    the sub-header of the same PDU has been seen; digests of partly
 *    covered PDUs are reported unchecked so software falls back.
 *  - StorageTxEngine: NIC transmit side. Fills the data digest of data
 *    PDUs from a running CRC (software sends dummy digests).
 *  - StoragePduAssembler: software reassembly of in-order segments
 *    into PDUs, keeping the NIC's per-packet verdicts and placements.
 *  - StorageSession: the session plumbing around the assembler, on
 *    the L5pSession core (l5p_session.hh): NIC offload install, the
 *    send queue feeding the tx message log, and PDU starts feeding
 *    the rx resync answerer.
 *
 * A trait T is a struct of constants and static functions:
 *
 *   using Wire;                         negotiated wire options
 *   static constexpr net::L5Kind kKind;
 *   static constexpr bool kNicVerifiesHdgst;
 *   static std::optional<uint64_t> wireLen(const Wire &, ByteView prefix);
 *   static PduLayout layout(const Wire &, ByteView prefix);
 *   static uint32_t tag(const uint8_t *subHdr);
 *   static uint32_t bufferOffset(const uint8_t *subHdr);
 *   static bool samePdu(const uint8_t *cachedPrefix, ByteView prefix);
 *
 * wireLen() is the magic-pattern check (nullopt = not a PDU header).
 * tag() and bufferOffset() read the sub-header (PDU bytes from offset
 * 8). samePdu() is the resume identity rule: given a valid prefix for
 * the message index the engine was working on, does it name the same
 * PDU whose sub-header the engine already holds?
 */

#ifndef ANIC_CORE_STORAGE_L5P_HH
#define ANIC_CORE_STORAGE_L5P_HH

#include <cstring>
#include <deque>
#include <optional>

#include "core/l5p_session.hh"
#include "crypto/crc32c.hh"
#include "host/storage.hh"
#include "nic/engine.hh"
#include "tcp/socket.hh"
#include "util/flat_map.hh"

namespace anic::core {

constexpr size_t kPduPrefixSize = 8;
constexpr size_t kPduDigestSize = 4;
/** Largest sub-header the engine holds: iSCSI BHS bytes [8, 48). */
constexpr size_t kMaxSubHdr = 40;
/** Largest PDU (NVMe plen, iSCSI data segment) the kit frames. */
constexpr size_t kMaxStoragePdu = 2 << 20;

/** Which offloads a storage session requests from the NIC. */
struct StorageOffloadConfig
{
    bool crcRx = false;
    bool copyRx = false;
    bool crcTx = false;
};

/**
 * Regions of one PDU, decoded by the trait from its prefix. Offsets
 * are PDU-relative: sub-header [8, subHdrEnd), header digest
 * [subHdrEnd, dataStart), data [dataStart, dataEnd), then the 4-byte
 * data digest when one is present.
 */
struct PduLayout
{
    uint32_t subHdrEnd = 0;
    uint32_t dataStart = 0;
    uint64_t dataEnd = 0;
    bool isData = false;     ///< data PDU: its payload is tag-placed
    bool dataDigest = false; ///< data PDU on a data-digest session
};

/** One reassembled PDU with the NIC's verdicts on its packets. */
struct StoragePdu
{
    Bytes bytes; ///< full wire bytes [0, wireLen)
    /** NIC-placed payload ranges, PDU-relative, in arrival order. */
    std::vector<net::PlacedRange> placed;
    /** Every packet of the PDU went through the offload and no digest
     *  completing in it was unchecked or failed (the "crc_ok bits of
     *  all SKBs" condition): software may skip its digest checks. */
    bool digestOffloaded = true;
};

/** Byte counts of one data region's software copy. */
struct CopyCounts
{
    uint64_t copied = 0;
    uint64_t placed = 0; ///< skipped: the NIC already placed them
};

/**
 * Copies the data region [dataStart, dataStart + dataLen) of @p pdu
 * into @p dst at @p bufferOffset, skipping the ranges the NIC placed.
 * Writes that would overflow @p dst (or a null @p dst) are dropped but
 * still counted as copied.
 */
CopyCounts copyUnplaced(const StoragePdu &pdu, uint64_t dataStart,
                        uint32_t dataLen, uint32_t bufferOffset,
                        host::BlockBuffer *dst);

/** Software check of the data digest that follows the data region. */
bool dataDigestOk(const StoragePdu &pdu, uint64_t dataStart,
                  uint32_t dataLen);

/** Appends segment bytes [off, off + take) to @p pdu at @p pduOff,
 *  folding in the packet's @p kind verdict and placements. */
void appendPduChunk(StoragePdu &pdu, size_t pduOff,
                    const tcp::RxSegment &seg, size_t off, size_t take,
                    net::L5Kind kind);

// ------------------------------------------------------------ engines

/** Framing shared by both directions. */
template <typename T>
class StorageEngineBase : public nic::L5Engine
{
  public:
    explicit StorageEngineBase(const typename T::Wire &wc) : wc_(wc) {}

    net::L5Kind kind() const override { return T::kKind; }
    size_t headerSize() const override { return kPduPrefixSize; }

    std::optional<nic::MsgInfo>
    parseHeader(ByteView hdr) const override
    {
        std::optional<uint64_t> len = T::wireLen(wc_, hdr);
        if (!len)
            return std::nullopt;
        return nic::MsgInfo{*len};
    }

  protected:
    typename T::Wire wc_;
    PduLayout pdu_; ///< the current PDU
};

/** Receive engine: digest verification + tag-keyed placement. */
template <typename T>
class StorageRxEngine final : public StorageEngineBase<T>
{
  public:
    using StorageEngineBase<T>::StorageEngineBase;

    /** l5o_add_rr_state: maps a pending command's tag to its buffer. */
    void
    addRrState(uint32_t tag, host::BlockBufferPtr buf)
    {
        rrState_.put(tag, std::move(buf));
    }

    /** l5o_del_rr_state. */
    void delRrState(uint32_t tag) { rrState_.erase(tag); }

    bool resumeMidMessage() const override { return true; }

    void
    onMsgStart(uint64_t msgIdx, ByteView hdr) override
    {
        beginPdu(hdr);
        curMsgIdx_ = msgIdx;
        haveMsgIdx_ = true;
        crcValid_ = true;
    }

    void
    onMsgResume(uint64_t msgIdx, ByteView hdr, uint64_t off) override
    {
        // Either resuming the same PDU after a gap (sub-header known,
        // placement continues) or adopting a different PDU mid-way.
        // Identity comes from the message index: every large data PDU
        // has the same header shape, so shape alone would attach the
        // previous PDU's buffer. But software seeds the index on
        // resync confirmation, so a restarted or buggy L5P can recycle
        // an index for another PDU: the prefix the FSM hands us must
        // also match the cached one before per-PDU state is trusted.
        bool same_pdu = haveMsgIdx_ && msgIdx == curMsgIdx_ &&
                        subHdrValid_ && T::wireLen(this->wc_, hdr) &&
                        T::samePdu(prefix_, hdr);
        if (!same_pdu) {
            beginPdu(hdr);
            if (off > kPduPrefixSize) {
                // Sub-header bytes before the resume point will never
                // be seen: no tag (placement impossible), no header
                // digest.
                subHdrDead_ = true;
                hdrCovered_ = false;
            }
            curMsgIdx_ = msgIdx;
            haveMsgIdx_ = true;
        }
        crcValid_ = false;
    }

    void onMsgData(uint64_t off, ByteSpan data, bool dryRun,
                   nic::PacketResult &res) override;
    void onMsgEnd(bool covered, nic::PacketResult &res) override;

    void onMsgAbort() override { crcValid_ = false; }

  private:
    /** The NIC checks the header digest of this flow. */
    bool
    hdgstOffloaded() const
    {
        return T::kNicVerifiesHdgst && this->wc_.headerDigest;
    }

    void
    beginPdu(ByteView hdr)
    {
        this->pdu_ = T::layout(this->wc_, hdr);
        ANIC_ASSERT(this->pdu_.subHdrEnd - kPduPrefixSize <= kMaxSubHdr &&
                    this->pdu_.dataStart - this->pdu_.subHdrEnd <=
                        kPduDigestSize);
        std::memcpy(prefix_, hdr.data(), kPduPrefixSize);
        subHdrHave_ = 0;
        subHdrValid_ = false;
        subHdrDead_ = false;
        placeTarget_ = nullptr;
        if (hdgstOffloaded()) {
            hdrCrc_.reset();
            hdrCrc_.update(ByteView(hdr.data(), kPduPrefixSize));
        }
        hdgstHave_ = 0;
        hdrCovered_ = true;
        dataCrc_.reset();
        ddgstHave_ = 0;
    }

    void
    parseSubHdr()
    {
        if (this->pdu_.isData) {
            bufferOffset_ = T::bufferOffset(subHdr_);
            host::BlockBufferPtr *buf = rrState_.find(T::tag(subHdr_));
            placeTarget_ = buf != nullptr ? *buf : nullptr;
        }
        subHdrValid_ = true;
    }

    util::FlatMap<uint32_t, host::BlockBufferPtr> rrState_;

    // Per-PDU dynamic state (constant size, as §3.2 requires).
    uint8_t prefix_[kPduPrefixSize] = {};
    uint8_t subHdr_[kMaxSubHdr] = {};
    size_t subHdrHave_ = 0;
    bool subHdrValid_ = false;
    bool subHdrDead_ = false; ///< resumed past the sub-header start
    uint32_t bufferOffset_ = 0;
    host::BlockBufferPtr placeTarget_; ///< shared: survives del_rr_state
    crypto::Crc32c hdrCrc_;            ///< over [0, subHdrEnd)
    uint8_t hdgst_[kPduDigestSize] = {};
    size_t hdgstHave_ = 0;
    bool hdrCovered_ = false; ///< saw the header from its first byte
    crypto::Crc32c dataCrc_;
    uint8_t ddgst_[kPduDigestSize] = {};
    size_t ddgstHave_ = 0;
    bool crcValid_ = false; ///< no gap since this PDU started
    uint64_t curMsgIdx_ = 0;
    bool haveMsgIdx_ = false;
};

template <typename T>
void
StorageRxEngine<T>::onMsgData(uint64_t off, ByteSpan data, bool dryRun,
                              nic::PacketResult &res)
{
    if (dryRun)
        return;
    const PduLayout &p = this->pdu_;

    size_t i = 0;
    while (i < data.size()) {
        const uint64_t pos = off + i;
        const size_t left = data.size() - i;
        if (pos < p.subHdrEnd) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(p.subHdrEnd - pos, left));
            std::memcpy(subHdr_ + (pos - kPduPrefixSize), data.data() + i, n);
            subHdrHave_ += n;
            if (hdgstOffloaded() && !subHdrDead_) {
                hdrCrc_.update(ByteView(data.data() + i, n));
                this->count(&nic::EngineStats::bytesChecked, n);
            }
            if (subHdrHave_ >= p.subHdrEnd - kPduPrefixSize && !subHdrValid_ &&
                !subHdrDead_) {
                parseSubHdr();
            }
            i += n;
        } else if (pos < p.dataStart) {
            size_t at = static_cast<size_t>(pos - p.subHdrEnd);
            size_t n = std::min<size_t>(p.dataStart - pos, left);
            std::memcpy(hdgst_ + at, data.data() + i, n);
            hdgstHave_ = at + n;
            i += n;
        } else if (pos < p.dataEnd) {
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(p.dataEnd - pos, left));
            ByteView chunk(data.data() + i, n);
            if (p.dataDigest) {
                dataCrc_.update(chunk);
                this->count(&nic::EngineStats::bytesChecked, n);
            }
            if (placeTarget_ && subHdrValid_) {
                // DMA-write straight into the block buffer (Figure 9).
                uint64_t dst = bufferOffset_ + (pos - p.dataStart);
                if (dst + n <= placeTarget_->data.size()) {
                    std::memcpy(placeTarget_->data.data() + dst, chunk.data(),
                                n);
                    res.placed.push_back(net::PlacedRange{
                        res.spanPktOff + static_cast<uint32_t>(i),
                        static_cast<uint32_t>(n)});
                    this->count(&nic::EngineStats::bytesPlaced, n);
                }
            }
            i += n;
        } else {
            // Data digest trailer. Bytes past it mean the cached header
            // disagrees with the FSM's framing (stale state across a
            // resume): ignore them and leave verification to software.
            size_t at = static_cast<size_t>(pos - p.dataEnd);
            if (at >= kPduDigestSize) {
                crcValid_ = false;
                break;
            }
            size_t n = std::min(kPduDigestSize - at, left);
            std::memcpy(ddgst_ + at, data.data() + i, n);
            ddgstHave_ = at + n;
            i += n;
        }
    }
}

template <typename T>
void
StorageRxEngine<T>::onMsgEnd(bool covered, nic::PacketResult &res)
{
    const bool hdgst = hdgstOffloaded();
    const bool ddgst =
        this->pdu_.dataDigest && this->pdu_.dataEnd > this->pdu_.dataStart;
    if (!hdgst && !ddgst)
        return; // nothing to verify on this PDU
    bool incomplete = !covered || !crcValid_ ||
                      (hdgst && (!hdrCovered_ || hdgstHave_ < kPduDigestSize)) ||
                      (ddgst && ddgstHave_ < kPduDigestSize);
    if (incomplete) {
        // Incomplete coverage: report unchecked so software verifies.
        res.setVerify(T::kKind, net::VerifyOutcome::Incomplete);
        return;
    }
    bool ok = (!hdgst || hdrCrc_.value() == getLe32(hdgst_)) &&
              (!ddgst || dataCrc_.value() == getLe32(ddgst_));
    res.setVerify(T::kKind,
                  ok ? net::VerifyOutcome::Ok : net::VerifyOutcome::Failed);
    this->count(ok ? &nic::EngineStats::verifiedOk
                   : &nic::EngineStats::verifyFailures);
}

/** Transmit engine: fills the data digest of outgoing data PDUs. */
template <typename T>
class StorageTxEngine final : public StorageEngineBase<T>
{
  public:
    using StorageEngineBase<T>::StorageEngineBase;

    bool resumeMidMessage() const override { return false; }

    void
    onMsgStart(uint64_t, ByteView hdr) override
    {
        this->pdu_ = T::layout(this->wc_, hdr);
        crc_.reset();
        ddgstReady_ = false;
    }

    void onMsgData(uint64_t off, ByteSpan data, bool dryRun,
                   nic::PacketResult &res) override;

    void onMsgEnd(bool, nic::PacketResult &) override {}

    void
    onMsgResume(uint64_t, ByteView, uint64_t) override
    {
        panic("storage tx contexts are recovered via driver resync");
    }

    void onMsgAbort() override {}

  private:
    crypto::Crc32c crc_;
    uint8_t ddgst_[kPduDigestSize] = {};
    bool ddgstReady_ = false;
};

template <typename T>
void
StorageTxEngine<T>::onMsgData(uint64_t off, ByteSpan data, bool dryRun,
                              nic::PacketResult &)
{
    const PduLayout &p = this->pdu_;
    if (dryRun || !p.dataDigest)
        return;

    size_t i = 0;
    while (i < data.size()) {
        const uint64_t pos = off + i;
        const size_t left = data.size() - i;
        if (pos < p.dataStart) {
            i += std::min<size_t>(p.dataStart - pos, left);
        } else if (pos < p.dataEnd) {
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(p.dataEnd - pos, left));
            crc_.update(ByteView(data.data() + i, n));
            this->count(&nic::EngineStats::bytesChecked, n);
            i += n;
        } else {
            // Replace the dummy digest with the computed CRC.
            if (!ddgstReady_) {
                putLe32(ddgst_, crc_.value());
                ddgstReady_ = true;
            }
            size_t at = static_cast<size_t>(pos - p.dataEnd);
            if (at >= kPduDigestSize)
                break; // framing disagreement; never write past the PDU
            size_t n = std::min(kPduDigestSize - at, left);
            std::memcpy(data.data() + i, ddgst_ + at, n);
            i += n;
        }
    }
}

/**
 * Static offload state for the unified l5o_create binding: the
 * negotiated wire options. Constructing one registers the kit's
 * engine factories for T::kKind, so the driver and the stream FSM need
 * no protocol-specific code.
 */
template <typename T>
class StorageStaticState final : public L5StaticState
{
  public:
    explicit StorageStaticState(const typename T::Wire &wc) : wc_(wc)
    {
        static const bool registered = [] {
            L5ProtocolOps ops;
            ops.makeRx = [](const L5StaticState &st)
                -> std::unique_ptr<nic::L5Engine> {
                return std::make_unique<StorageRxEngine<T>>(
                    static_cast<const StorageStaticState &>(st).wc_);
            };
            ops.makeTx = [](const L5StaticState &st)
                -> std::unique_ptr<nic::L5Engine> {
                return std::make_unique<StorageTxEngine<T>>(
                    static_cast<const StorageStaticState &>(st).wc_);
            };
            registerL5Protocol(T::kKind, ops);
            return true;
        }();
        (void)registered;
    }

    net::L5Kind kind() const override { return T::kKind; }

  private:
    typename T::Wire wc_;
};

// ---------------------------------------------------------- assembler

/**
 * Incremental PDU reassembler: feed in-order stream segments, get
 * complete PDUs with the NIC's per-packet results folded in. Mirrors
 * the in-kernel receive paths. Framing loss (an invalid prefix) sets
 * error() and stops the assembler.
 */
template <typename T>
class StoragePduAssembler
{
  public:
    explicit StoragePduAssembler(const typename T::Wire &wc) : wc_(wc) {}

    /** Feeds a segment; invokes @p onStart with the stream offset of
     *  each PDU's first byte before consuming it, and @p sink for each
     *  completed PDU. */
    template <typename Start, typename Sink>
    void
    ingest(const tcp::RxSegment &seg, Start &&onStart, Sink &&sink)
    {
        size_t off = 0;
        const size_t n = seg.data.size();
        while (off < n && !error_) {
            if (!prefixDone_) {
                if (have_ == 0) {
                    pduStartOff_ = seg.streamOff + off;
                    onStart(pduStartOff_);
                }
                size_t take = std::min(kPduPrefixSize - have_, n - off);
                std::memcpy(prefix_ + have_, seg.data.data() + off, take);
                off += take;
                have_ += take;
                consumed_ = seg.streamOff + off;
                if (have_ < kPduPrefixSize)
                    break;
                ByteView prefix(prefix_, kPduPrefixSize);
                std::optional<uint64_t> len = T::wireLen(wc_, prefix);
                if (!len) {
                    error_ = true;
                    return;
                }
                cur_.bytes.resize(static_cast<size_t>(*len));
                std::memcpy(cur_.bytes.data(), prefix_, kPduPrefixSize);
                prefixDone_ = true;
                continue;
            }

            size_t take = std::min(cur_.bytes.size() - have_, n - off);
            appendPduChunk(cur_, have_, seg, off, take, T::kKind);
            have_ += take;
            off += take;
            consumed_ = seg.streamOff + off;
            if (have_ == cur_.bytes.size()) {
                StoragePdu done = std::move(cur_);
                cur_ = StoragePdu{};
                prefixDone_ = false;
                have_ = 0;
                pduIdx_++;
                sink(std::move(done));
            }
        }
    }

    bool error() const { return error_; }

    /** Stream offset where the next (or current) PDU starts. */
    uint64_t curPduStartOff() const { return pduStartOff_; }

    /** Stream offset of the next unconsumed byte. */
    uint64_t streamConsumed() const { return consumed_; }

    /** True if mid-PDU (prefix or body partially collected). */
    bool midPdu() const { return have_ > 0; }

    /** Index of the next (or current) PDU: PDUs fully delivered so
     *  far. Echoed on resync confirmation so the NIC renumbers its
     *  messages consistently with software's count. */
    uint64_t pdusDelivered() const { return pduIdx_; }

  private:
    typename T::Wire wc_;
    StoragePdu cur_;
    uint8_t prefix_[kPduPrefixSize] = {};
    bool prefixDone_ = false;
    size_t have_ = 0;
    uint64_t pduStartOff_ = 0;
    uint64_t consumed_ = 0;
    uint64_t pduIdx_ = 0;
    bool error_ = false;
};

// ------------------------------------------------------- session core

/**
 * What every storage session endpoint shares: the assembler feeding
 * onPdu(), NIC offload install on a plain TcpConnection, and the send
 * queue that logs each PDU where its first byte lands in the stream.
 * The Listing 2 upcalls are the L5pSession core's; this class tells it
 * where PDUs start.
 */
template <typename T>
class StorageSession : public L5pSession
{
  public:
    /**
     * Installs NIC offload contexts on a plain TcpConnection transport
     * (l5o_create on the flow): rx digest verification + placement
     * and/or tx digest fill, as the session's offload config asks.
     */
    void
    enableOffload(OffloadDevice &dev, tcp::TcpConnection &conn)
    {
        StorageStaticState<T> st(wc_);
        unsigned dirs = ((ocfg_.crcRx || ocfg_.copyRx) ? kL5Rx : 0u) |
                        (ocfg_.crcTx ? kL5Tx : 0u);
        installOffload(dev, conn, st, dirs);
        if (dirs & kL5Rx)
            rxEngine_ = static_cast<StorageRxEngine<T> *>(l5o_->rxEngine());
    }

    /** True once PDU framing (or a header digest) was lost: a fatal
     *  transport error. The session went quiescent. */
    bool desynced() const { return dead_; }

  protected:
    StorageSession(tcp::StreamSocket &sock, const typename T::Wire &wc,
                   StorageOffloadConfig ocfg)
        : sock_(sock), wc_(wc), ocfg_(ocfg), assembler_(wc)
    {
        sock_.setOnReadable([this] { onReadable(); });
        sock_.setOnWritable([this] { flushSendQueue(); });
    }

    /** A complete PDU arrived. */
    virtual void onPdu(StoragePdu &&pdu) = 0;

    /** The assembler lost PDU framing (a corrupted prefix); dead_ is
     *  already set. Initiators fail their outstanding commands. */
    virtual void onFramingLost() {}

    /** Queues a PDU for the transport and sends what fits. */
    void
    enqueue(Bytes pdu)
    {
        sendq_.push_back(
            SendEntry{std::make_shared<const Bytes>(std::move(pdu)), false});
        flushSendQueue();
    }

    RxCursor
    rxCursor() const override
    {
        // Confirm with software's PDU count: the NIC renumbers its
        // messages from it, and mid-message resume identity rides on
        // that numbering matching what the engine saw before a gap.
        return RxCursor{assembler_.midPdu() ? assembler_.curPduStartOff()
                                            : assembler_.streamConsumed(),
                        assembler_.pdusDelivered()};
    }

    tcp::StreamSocket &sock_;
    typename T::Wire wc_;
    StorageOffloadConfig ocfg_;

    StorageRxEngine<T> *rxEngine_ = nullptr; ///< whoever owns it
    bool dead_ = false;

  private:
    struct SendEntry
    {
        SharedBytes bytes;   ///< the PDU; the tx log may share it
        bool logged = false; ///< registered in the tx log
    };

    void
    flushSendQueue()
    {
        while (!sendq_.empty()) {
            SendEntry &e = sendq_.front();
            // All stream messages must be logged while a tx context
            // exists, so framing recovery can cross any message. Log
            // where the first byte actually lands in the stream (now,
            // not at enqueue time).
            if (!e.logged)
                e.logged = logTxMsg(e.bytes);
            ByteView rest = ByteView(*e.bytes).subspan(sendqOff_);
            sendqOff_ += sock_.send(rest);
            if (sendqOff_ < e.bytes->size())
                return; // transport full; resume on writable
            sendq_.pop_front();
            sendqOff_ = 0;
        }
    }

    void
    onReadable()
    {
        while (sock_.readable()) {
            tcp::RxSegment seg = sock_.pop();
            if (dead_)
                continue; // drain and discard; the session is over
            assembler_.ingest(
                seg,
                [this](uint64_t start) {
                    rxMsgStart(start, assembler_.pdusDelivered());
                },
                [this](StoragePdu &&pdu) { onPdu(std::move(pdu)); });
            if (assembler_.error()) {
                // PDU framing lost: a fatal transport error. Go
                // quiescent instead of asserting, so impairment
                // fuzzing can corrupt streams.
                dead_ = true;
                onFramingLost();
            }
        }
    }

    std::deque<SendEntry> sendq_;
    size_t sendqOff_ = 0;
    StoragePduAssembler<T> assembler_;
};

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_L5P_HH
