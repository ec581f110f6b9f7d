#include "core/offload_device.hh"

#include "core/l5p_session.hh"

#include "util/panic.hh"

namespace anic::core {

/** Driver-side record of one l5o offload instance. */
class OffloadDevice::OffloadImpl : public L5Offload
{
  public:
    OffloadImpl(OffloadDevice &dev, L5pSession *session, host::Core *core)
        : dev_(dev), session_(session), core_(core)
    {
    }

    void
    resyncRxResp(uint32_t tcpsn, bool ok, uint64_t msgIdx) override
    {
        if (rxCtx_ == 0 || pendingReqId_ == 0)
            return;
        // A response is only valid for the speculation that is still
        // outstanding: the NIC may have abandoned the one this answer
        // refers to and speculated anew (stale answers would confirm
        // the wrong message index).
        if (tcpsn != pendingSeq_)
            return;
        uint64_t req = pendingReqId_;
        pendingReqId_ = 0;
        dev_.nic_.rxResyncResponse(rxCtx_, req, ok, msgIdx);
    }

    void destroy() override { dev_.destroyOffload(*this); }

    nic::L5Engine *
    rxEngine() override
    {
        return rxCtx_ ? dev_.nic_.rxEngine(rxCtx_) : nullptr;
    }

    uint64_t txCtxId() const override { return txCtx_; }

    const nic::FsmStats *
    rxFsmStats() const override
    {
        return rxCtx_ ? dev_.nic_.rxFsmStats(rxCtx_) : nullptr;
    }

    OffloadDevice &dev_;
    L5pSession *session_;
    host::Core *core_;
    uint64_t rxCtx_ = 0;
    uint64_t txCtx_ = 0;
    uint64_t pendingReqId_ = 0;
    uint32_t pendingSeq_ = 0;
    /** Software shadow of the NIC tx context's expected sequence. */
    uint32_t txShadowSeq_ = 0;
};

OffloadDevice::OffloadDevice(sim::Simulator &sim, nic::Nic &nic,
                             net::IpAddr ip)
    : sim_(sim), nic_(nic), ip_(ip)
{
    nic_.setOnRxInterrupt([this](int queue, nic::Nic::RxBatch pkts) {
        onNicRxInterrupt(queue, std::move(pkts));
    });
    nic_.setOnResyncRequest(
        [this](uint64_t ctxId, uint64_t reqId, uint32_t seq) {
            onNicResyncRequest(ctxId, reqId, seq);
        });
}

OffloadDevice::~OffloadDevice()
{
    byTxCtx_.forEach([](uint64_t, OffloadImpl *off) { delete off; });
    byRxCtx_.forEach([](uint64_t, OffloadImpl *off) {
        if (off->txCtx_ == 0) // else already deleted through byTxCtx_
            delete off;
    });
}

void
OffloadDevice::attachStack(tcp::TcpStack *stack)
{
    stack_ = stack;
}

bool
OffloadDevice::transmit(net::PacketPtr pkt)
{
    if (host::Core *cur = host::Core::current())
        cur->charge(cur->model().driverTxPerPacket);

    if (pkt->txCtx != 0 && pkt->payloadSize() > 0) {
        const net::TcpHeader th = pkt->tcp();
        // The driver shadows the NIC context in software; the NIC's
        // own state only advances when ring entries drain.
        OffloadImpl **slot = byTxCtx_.find(pkt->txCtx);
        ANIC_ASSERT(slot != nullptr, "unknown tx offload ctx");
        OffloadImpl &off = **slot;
        if (th.seq != off.txShadowSeq_) {
            // §4.2 context recovery: ask the L5P for the enclosing
            // message's state, hand it to the NIC via a special
            // descriptor, then post the packet as usual.
            std::optional<TxMsgState> st =
                off.session_->getTxMsgState(th.seq);
            ANIC_ASSERT(st.has_value(),
                        "L5P lost tx message state for unacked seq %u",
                        th.seq);
            if (host::Core *cur = host::Core::current())
                cur->charge(cur->model().resyncUpcallCost);
            // The special descriptor must ride the same ring the data
            // packet will, or the resync could drain after the packet
            // it is meant to precede.
            nic_.postTxResync(pkt->txCtx, th.seq, st->msgIdx,
                              std::move(st->msg), st->rebuildLen,
                              nic_.txQueueFor(pkt->flow()));
        }
        off.txShadowSeq_ = th.seq + static_cast<uint32_t>(pkt->payloadSize());
    }
    return nic_.transmit(std::move(pkt));
}

void
OffloadDevice::setOnTxSpace(std::function<void()> cb)
{
    nic_.setOnTxSpace(std::move(cb));
}

void
OffloadDevice::onNicRxInterrupt(int queue, nic::Nic::RxBatch pkts)
{
    if (stack_ == nullptr) {
        nic_.recycleRxBatch(std::move(pkts));
        return;
    }
    // MSI-X affinity: queue N interrupts core N mod cores. RSS pinned
    // every flow in this batch to this queue, so the stack work runs
    // on the flow's steered core without a cross-core handoff.
    host::Core &core = stack_->coreForQueue(queue);
    core.post([this, pkts = std::move(pkts), &core]() mutable {
        core.charge(core.model().interruptCost);
        for (net::PacketPtr &p : pkts) {
            core.charge(core.model().driverRxPerPacket);
            stack_->input(p);
            p.reset();
        }
        nic_.recycleRxBatch(std::move(pkts));
    });
}

void
OffloadDevice::onNicResyncRequest(uint64_t ctxId, uint64_t reqId,
                                  uint32_t tcpSeq)
{
    OffloadImpl **slot = byRxCtx_.find(ctxId);
    if (slot == nullptr)
        return;
    OffloadImpl *off = *slot;
    off->pendingReqId_ = reqId;
    off->pendingSeq_ = tcpSeq;
    host::Core *core = off->core_;
    ANIC_ASSERT(core != nullptr);
    core->post([off, tcpSeq, core] {
        core->charge(core->model().resyncUpcallCost);
        off->session_->resyncRxReq(tcpSeq);
    });
}

L5Offload *
OffloadDevice::l5oCreate(tcp::TcpConnection &conn, const L5StaticState &st,
                         unsigned dirs, L5pSession *session,
                         uint64_t rxMsgIdx, uint64_t txMsgIdx)
{
    ANIC_ASSERT(dirs != 0 && session != nullptr);
    const L5ProtocolOps &ops = l5ProtocolOps(st.kind());
    auto *off = new OffloadImpl(*this, session, &conn.core());
    if (dirs & kL5Rx) {
        ANIC_ASSERT(ops.makeRx != nullptr,
                    "protocol registered no rx engine factory");
        off->rxCtx_ = nic_.createRxContext(conn.localFlow().reversed(),
                                           ops.makeRx(st), conn.rcvNxt(),
                                           rxMsgIdx);
        byRxCtx_.emplace(off->rxCtx_, off);
    }
    if (dirs & kL5Tx) {
        ANIC_ASSERT(ops.makeTx != nullptr,
                    "protocol registered no tx engine factory");
        off->txShadowSeq_ = conn.sndNextByteSeq();
        off->txCtx_ = nic_.createTxContext(ops.makeTx(st), off->txShadowSeq_,
                                           txMsgIdx);
        byTxCtx_.emplace(off->txCtx_, off);
    }
    return off;
}

void
OffloadDevice::destroyOffload(OffloadImpl &off)
{
    if (off.rxCtx_ != 0) {
        nic_.destroyRxContext(off.rxCtx_);
        byRxCtx_.erase(off.rxCtx_);
    }
    if (off.txCtx_ != 0) {
        nic_.destroyTxContext(off.txCtx_);
        byTxCtx_.erase(off.txCtx_);
    }
    delete &off;
}

} // namespace anic::core
