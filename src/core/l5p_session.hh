/**
 * @file
 * The L5P session core: the software half of the paper's Listing 2,
 * written once for TLS, NVMe-TCP and iSCSI.
 *
 * l5o_get_tx_msgstate maps a TCP sequence number to the message that
 * holds it; l5o_resync_rx_req is answered once in-order processing
 * reaches the speculated header. Neither depends on the protocol beyond
 * where its messages start, so a protocol derives from L5pSession,
 * reports where its receive processing stands (rxCursor), calls
 * rxMsgStart() at each message's first byte and logTxMsg() before it
 * hands a message to TCP.
 */

#ifndef ANIC_CORE_L5P_SESSION_HH
#define ANIC_CORE_L5P_SESSION_HH

#include <optional>

#include "core/offload_device.hh"
#include "tcp/seq.hh"
#include "util/panic.hh"
#include "util/ring.hh"

namespace anic::core {

/** Messages sent while a tx context exists, in stream order, each
 *  referenced until fully acked: the NIC's context-recovery rebuild
 *  reads their bytes, which TCP releases as soon as they are acked. A
 *  message is one immutable buffer shared with the L5P's send path and
 *  any queued resync descriptor, so trimming never frees bytes the NIC
 *  has yet to read. */
class TxMsgLog
{
  public:
    /** Records a message; messages must be added in stream order. */
    void
    add(uint32_t startSeq, uint64_t msgIdx, SharedBytes bytes)
    {
        ANIC_ASSERT(msgs_.empty() || startSeq == msgs_.back().endSeq(),
                    "messages must be contiguous in sequence space");
        msgs_.push_back(Entry{startSeq, msgIdx, std::move(bytes)});
    }

    /** Drops messages fully acknowledged below @p una. */
    void
    trimAcked(uint32_t una)
    {
        while (!msgs_.empty() && tcp::seqLeq(msgs_.front().endSeq(), una))
            msgs_.pop_front();
    }

    /** l5o_get_tx_msgstate: the message holding @p tcpsn, with its
     *  bytes before @p tcpsn as the rebuild. */
    std::optional<TxMsgState>
    state(uint32_t tcpsn) const
    {
        for (size_t i = 0; i < msgs_.size(); i++) {
            const Entry &e = msgs_[i];
            if (tcp::seqLt(tcpsn, e.startSeq) ||
                tcp::seqGeq(tcpsn, e.endSeq()))
                continue;
            return TxMsgState{e.msgIdx, e.bytes, tcpsn - e.startSeq};
        }
        return std::nullopt;
    }

  private:
    struct Entry
    {
        uint32_t startSeq;
        uint64_t msgIdx;
        SharedBytes bytes;

        uint32_t
        endSeq() const
        {
            return startSeq + static_cast<uint32_t>(bytes->size());
        }
    };

    util::Ring<Entry> msgs_;
};

/**
 * One pending rx resync speculation and the rule that decides it, at
 * message starts: software knows where its messages begin only there.
 * check() gets the start of the current message (or the next, between
 * messages) once the speculation is located, then every later start:
 * equal confirms, a start past it refutes, one short of it waits.
 */
class RxResyncAnswerer
{
  public:
    /** A speculation arrived; @p token is echoed in the answer. Its
     *  offset follows via locate(). Replaces any earlier one. */
    void
    expect(uint64_t token)
    {
        pending_ = true;
        located_ = false;
        token_ = token;
    }

    /** Places the pending speculation at stream offset @p off. */
    void
    locate(uint64_t off)
    {
        off_ = off;
        located_ = true;
    }

    /** The verdict at a message starting at @p msgStart once decided
     *  (true: confirm), which clears the speculation; else nullopt. */
    std::optional<bool>
    check(uint64_t msgStart)
    {
        if (!pending_ || !located_ || msgStart < off_)
            return std::nullopt;
        pending_ = false;
        return msgStart == off_;
    }

    void clear() { pending_ = false; }
    bool unlocated() const { return pending_ && !located_; }
    uint64_t token() const { return token_; }

  private:
    bool pending_ = false;
    bool located_ = false;
    uint64_t token_ = 0;
    uint64_t off_ = 0;
};

/** The session plumbing every offloading L5P derives from. The
 *  driver's upcalls run on the connection's core. */
class L5pSession
{
  public:
    L5pSession(const L5pSession &) = delete;
    L5pSession &operator=(const L5pSession &) = delete;

    /** l5o_get_tx_msgstate for an unacknowledged @p tcpsn; nullopt if
     *  the message is gone (then the offload cannot recover). */
    std::optional<TxMsgState>
    getTxMsgState(uint32_t tcpsn)
    {
        countTxMsgStateUpcall();
        return txLog_.state(tcpsn);
    }

    /** l5o_resync_rx_req: the NIC speculates a message header at
     *  @p tcpsn; answered via L5Offload::resyncRxResp. */
    void
    resyncRxReq(uint32_t tcpsn)
    {
        ANIC_ASSERT(l5oConn_ != nullptr);
        expectResync(tcpsn);
        // Into stream offsets, relative to the current message start.
        uint64_t at = rxCursor().msgStart;
        locateResync(at + static_cast<int32_t>(
                              tcpsn - l5oConn_->seqOfRcvStreamOff(at)));
    }

    /** The offload handle (null until installOffload()). */
    L5Offload *offload() { return l5o_; }

    /** FSM stats of the NIC rx context, if any. */
    const nic::FsmStats *
    rxFsmStats() const
    {
        return l5o_ != nullptr ? l5o_->rxFsmStats() : nullptr;
    }

  protected:
    /** Where receive processing stands, in the L5P's stream offsets:
     *  the start of the current message (or of the next, between
     *  messages) and its index. */
    struct RxCursor
    {
        uint64_t msgStart = 0;
        uint64_t msgIdx = 0;
    };

    L5pSession() = default;
    virtual ~L5pSession()
    {
        if (l5o_ != nullptr)
            l5o_->destroy();
    }

    /** l5o_create on @p conn for @p dirs (kL5Rx/kL5Tx; none: no-op).
     *  With tx, the connection's packets carry the tx context and the
     *  tx log is trimmed as acks arrive. The indices seed the message
     *  counters. */
    void
    installOffload(OffloadDevice &dev, tcp::TcpConnection &conn,
                   const L5StaticState &st, unsigned dirs,
                   uint64_t rxMsgIdx = 0, uint64_t txMsgIdx = 0)
    {
        ANIC_ASSERT(l5o_ == nullptr, "offload already installed");
        if (dirs == 0)
            return;
        l5oConn_ = &conn;
        txMsgIdx_ = txMsgIdx;
        if (dirs & kL5Tx)
            conn.setOnAcked([this](uint32_t una) { txLog_.trimAcked(una); });
        l5o_ = dev.l5oCreate(conn, st, dirs, this, rxMsgIdx, txMsgIdx);
        if (dirs & kL5Tx)
            conn.setTxOffloadCtx(l5o_->txCtxId());
    }

    /** Logs a message whose first byte is the next one the connection
     *  sends, if a tx context exists (nobody else asks), by taking a
     *  reference to @p wire. Returns whether it was logged. */
    bool
    logTxMsg(SharedBytes wire)
    {
        if (l5o_ == nullptr || l5o_->txCtxId() == 0)
            return false;
        txLog_.add(l5oConn_->sndNextByteSeq(), txMsgIdx_++, std::move(wire));
        return true;
    }

    /** Processing reached the first byte of message @p msgIdx at
     *  stream offset @p off: answers a pending speculation there. */
    void
    rxMsgStart(uint64_t off, uint64_t msgIdx)
    {
        std::optional<bool> ok = resync_.check(off);
        if (!ok)
            return;
        if (*ok)
            countResync(true);
        answerResync(resync_.token(), *ok, msgIdx);
    }

    /** For speculations anchored other than by TCP sequence number
     *  (NVMe over TLS: record, offset): count one, place it once its
     *  offset is known (answering at once if processing is there), or
     *  refute it outright. */
    void
    expectResync(uint64_t token)
    {
        countResync(false);
        resync_.expect(token);
    }

    void
    locateResync(uint64_t off)
    {
        resync_.locate(off);
        RxCursor cur = rxCursor();
        rxMsgStart(cur.msgStart, cur.msgIdx);
    }

    void
    refuteResync()
    {
        resync_.clear();
        answerResync(resync_.token(), false, rxCursor().msgIdx);
    }

    bool resyncUnlocated() const { return resync_.unlocated(); }

    virtual RxCursor rxCursor() const = 0;

    /** Counts a resync request (@p confirmed false) or confirmation. */
    virtual void countResync(bool confirmed) = 0;

    virtual void countTxMsgStateUpcall() {}

    /** Sends the verdict: l5o_resync_rx_resp for the speculation's
     *  sequence number; @p msgIdx indexes the message at it. */
    virtual void
    answerResync(uint64_t token, bool ok, uint64_t msgIdx)
    {
        if (l5o_ != nullptr)
            l5o_->resyncRxResp(static_cast<uint32_t>(token), ok, msgIdx);
    }

    L5Offload *l5o_ = nullptr;

  private:
    tcp::TcpConnection *l5oConn_ = nullptr;
    TxMsgLog txLog_;
    uint64_t txMsgIdx_ = 0;
    RxResyncAnswerer resync_;
};

} // namespace anic::core

#endif // ANIC_CORE_L5P_SESSION_HH
