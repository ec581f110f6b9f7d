/**
 * @file
 * The NIC device model.
 *
 * Models the data-path properties the paper's evaluation depends on:
 *  - line-rate serialization (100 Gbps ConnectX6-Dx class),
 *  - a bounded transmit ring with BQL-style backpressure,
 *  - per-flow offload contexts living in a finite on-NIC cache
 *    (~4 MiB / 208 B per flow => ~20K flows) with exact LRU
 *    replacement and PCIe fetch/writeback costs on miss (Figure 19),
 *  - PCIe bandwidth accounting, including the context-recovery reads
 *    for transmit-side resynchronization (Figure 16b),
 *  - the receive-side autonomous offload pipeline (StreamFsm +
 *    engines) and the transmit-side in-sequence offload processing
 *    with driver-initiated recovery.
 *
 * Everything above layer 2 stays in software: the NIC never sees TCP
 * state beyond the per-context expected sequence number.
 */

#ifndef ANIC_NIC_NIC_HH
#define ANIC_NIC_NIC_HH

#include <memory>
#include <string>
#include <vector>

#include "net/link.hh"
#include "net/toeplitz.hh"
#include "nic/stream_fsm.hh"
#include "sim/registry.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "util/flat_map.hh"
#include "util/ring.hh"
#include "util/slab.hh"

namespace anic::nic {

/** PCIe byte counters by category (drives Figure 16b). */
struct PcieStats
{
    sim::Counter rxDataBytes;      ///< packet DMA writes to host
    sim::Counter txDataBytes;      ///< packet DMA reads from host
    sim::Counter descriptorBytes;  ///< descriptor traffic
    sim::Counter ctxFetchBytes;    ///< context cache misses
    sim::Counter ctxWritebackBytes;///< context evictions
    sim::Counter ctxRecoveryBytes; ///< tx resync re-reads of message data

    uint64_t
    total() const
    {
        return rxDataBytes + txDataBytes + descriptorBytes + ctxFetchBytes +
               ctxWritebackBytes + ctxRecoveryBytes;
    }
};

/** NIC-level counters (aggregate roll-up over every queue). */
struct NicStats
{
    sim::Counter pktsTx;
    sim::Counter pktsRx;
    sim::Counter bytesTx;
    sim::Counter bytesRx;
    sim::Counter ctxCacheHits;
    sim::Counter ctxCacheMisses;
    sim::Counter ctxCacheEvictions;
    sim::Counter rxOffloadedPkts;
    sim::Counter txOffloadedPkts;
    sim::Counter txResyncs;
    sim::Counter irqsFired;     ///< completion interrupts delivered
    sim::Counter coalescedPkts; ///< completions that rode an earlier irq
};

/** Per-queue counters, published as nic.qN.* with the NicStats
 *  aggregate as the roll-up. */
struct QueueStats
{
    sim::Counter txPkts;        ///< packets sent from this tx ring
    sim::Counter rxPkts;        ///< packets steered to this rx queue
    sim::Counter compIrqs;      ///< completion interrupts fired
    sim::Counter coalescedPkts; ///< completions beyond the first per irq
    sim::Counter ctxHits;       ///< context-cache hits on this queue
    sim::Counter ctxMisses;     ///< context-cache misses on this queue
    sim::Counter evictions;     ///< contexts this queue's misses pushed out
};

/**
 * One direction's offload context: the paper's per-flow HW state
 * (expected tcp sequence, message position/index, L5P state inside
 * the engine).
 */
class Nic;

class FlowContext
{
  public:
    /** @p rxNic gets the FSM's resync requests (null: tx context). */
    FlowContext(uint64_t id, std::unique_ptr<L5Engine> engine, Nic *rxNic);

    uint64_t id() const { return id_; }
    L5Engine &engine() { return *engine_; }
    StreamFsm &fsm() { return fsm_; }
    const StreamFsm &fsm() const { return fsm_; }

    /** Arms the context at TCP sequence @p tcpsn, message @p msgIdx. */
    void arm(uint32_t tcpsn, uint64_t msgIdx);

    /** Maps a TCP sequence number onto the 64-bit stream position. */
    uint64_t posOf(uint32_t seq) const;

    /** Translates a stream position back to a TCP sequence number. */
    uint32_t seqOf(uint64_t pos) const;

    /** Re-anchors the mapping as the stream advances. */
    void advanceTo(uint32_t seq);

  private:
    friend class Nic;

    uint64_t id_;
    std::unique_ptr<L5Engine> engine_;
    Nic *rxNic_;
    StreamFsm fsm_;
    uint32_t baseSeq_ = 0;
    uint64_t basePos_ = 0;

    // Context-cache residency: the Nic's LRU list is threaded through
    // the contexts themselves (front = most recently used).
    FlowContext *lruPrev_ = nullptr;
    FlowContext *lruNext_ = nullptr;
    bool resident_ = false;
};

/**
 * The NIC. Attaches to one link port; the driver (src/core) sits on
 * top and implements tcp::NetDevice with it.
 */
class Nic
{
  public:
    struct Config
    {
        double gbps = 100.0;
        size_t txRingSize = 4096; ///< per tx queue
        sim::Tick rxLatency = 1500 * sim::kNanosecond;
        sim::Tick txLatency = 1000 * sim::kNanosecond;

        /**
         * TX/RX queue pairs. 0 = auto: the driver (Node::attachPort)
         * resolves it to the host's core count so every core owns a
         * pair; bare Nic construction resolves 0 to 1. With one queue
         * the data path is identical to the pre-multi-queue NIC.
         */
        int numQueues = 0;
        /** RSS indirection table entries (filled round-robin). */
        size_t rssTableSize = 128;
        /**
         * Interrupt coalescing: fire the completion interrupt once
         * @p coalescePkts completions are pending, or @p coalesceDelay
         * after the first pending completion, whichever comes first.
         * The default (1 pkt, no delay) interrupts per packet, which
         * keeps the cycle-model calibration of the pre-coalescing
         * driver path (see CycleModel::interruptCost).
         */
        uint32_t coalescePkts = 1;
        sim::Tick coalesceDelay = 0;

        /** Flow-context cache: 4 MiB at 208 B/flow ~ 20K flows. */
        size_t ctxCacheCapacity = 20000;
        size_t ctxBytes = 208;
        sim::Tick ctxFetchLatency = 600 * sim::kNanosecond;

        /** PCIe gen3 x16 usable bandwidth (~126 Gbps). */
        double pcieGbps = 126.0;

        size_t descriptorBytes = 32;

        /** Stable instance name for the stats registry ("srv.nic0");
         *  empty -> a unique "nic", "nic2", ... is chosen. */
        std::string name;
        /** Registry to publish under; null -> StatsRegistry::global(). */
        sim::StatsRegistry *registry = nullptr;
        /** Trace ring for evict/resync events and per-flow FSM
         *  transitions; null -> TraceRing::global(). */
        sim::TraceRing *trace = nullptr;
        /** Optional invariant probe installed on every per-flow FSM
         *  (fuzz harness / tests); null -> no probing. */
        FsmProbe *fsmProbe = nullptr;
    };

    Nic(sim::Simulator &sim, net::Link &link, int port, Config cfg);

    // ------------------------------------------------ driver: data
    /** One interrupt's worth of rx completions. */
    using RxBatch = std::vector<net::PacketPtr>;

    /**
     * Queues a packet on the tx ring its flow hashes to (XPS-style:
     * the same Toeplitz hash as rx steering, so a flow's tx queue
     * pairs with its rx queue and per-flow descriptor order is
     * preserved across rings). Returns false if that ring is full.
     */
    bool transmit(net::PacketPtr pkt);

    /** Same, onto an explicit tx queue. */
    bool transmit(net::PacketPtr pkt, int queue);

    void setOnTxSpace(std::function<void()> cb) { onTxSpace_ = std::move(cb); }

    /**
     * Driver receive entry: one call per completion interrupt, with
     * every packet the interrupt covers (already includes NIC rx
     * processing). The driver should hand the emptied vector back via
     * recycleRxBatch() to keep the steady state allocation-free.
     */
    void setOnRxInterrupt(std::function<void(int queue, RxBatch pkts)> cb)
    {
        onRxInterrupt_ = std::move(cb);
    }

    /** Returns an emptied completion vector to the NIC's free list. */
    void
    recycleRxBatch(RxBatch &&v)
    {
        v.clear();
        rxVecFree_.push_back(std::move(v));
    }

    /** Number of TX/RX queue pairs (resolved, >= 1). */
    int queueCount() const { return static_cast<int>(queues_.size()); }

    /** RSS steering: the rx queue packets of @p wireFlow land on
     *  (flow as seen on arriving packets: src = remote peer). */
    int rxQueueFor(const net::FlowKey &wireFlow) const;

    /** Per-queue counters (nic.qN.* in the registry). */
    const QueueStats &queueStats(int queue) const
    {
        return queues_[static_cast<size_t>(queue)]->stats;
    }

    // ------------------------------------------- driver: contexts
    /**
     * Installs a receive-side offload context for @p flow (the flow
     * key as seen on arriving packets: src = remote peer). Returns
     * the context id used in descriptors and upcalls.
     */
    uint64_t createRxContext(const net::FlowKey &flow,
                             std::unique_ptr<L5Engine> engine,
                             uint32_t tcpsn, uint64_t msgIdx);

    /** Installs a transmit-side context, keyed by l5o context id that
     *  the stack tags outgoing packets with. */
    uint64_t createTxContext(std::unique_ptr<L5Engine> engine, uint32_t tcpsn,
                             uint64_t msgIdx);

    void destroyRxContext(uint64_t id);
    void destroyTxContext(uint64_t id);

    /** HW->SW: the NIC asks software to confirm a speculated header
     *  (l5o_resync_rx_req path). */
    void setOnResyncRequest(
        std::function<void(uint64_t ctxId, uint64_t reqId, uint32_t tcpSeq)> cb)
    {
        onResyncRequest_ = std::move(cb);
    }

    /** SW->HW: l5o_resync_rx_resp. @p msgIdx is the message index at
     *  the confirmed sequence number. */
    void rxResyncResponse(uint64_t ctxId, uint64_t reqId, bool ok,
                          uint64_t msgIdx);

    /**
     * SW->HW: transmit context recovery. Placed into the flow's send
     * ring as a special descriptor so it is processed in order with
     * the data descriptors around it ("offload-related commands are
     * passed to the NIC via special descriptors, which are placed
     * into the flow's usual send ring to ensure ordering"). The
     * descriptor references @p msg; when it drains, the NIC DMA-reads
     * the first @p rebuildLen bytes (the message from its start up to
     * @p tcpsn) to reconstruct the engine state, then expects the next
     * data descriptor at @p tcpsn.
     */
    void postTxResync(uint64_t ctxId, uint32_t tcpsn, uint64_t msgIdx,
                      SharedBytes msg, size_t rebuildLen, int queue = 0);

    /** The tx ring an outgoing packet of @p txFlow (src = us) rides:
     *  its rx queue's pair, so resync descriptors and data stay
     *  ordered per flow. */
    int
    txQueueFor(const net::FlowKey &txFlow) const
    {
        return queues_.size() == 1 ? 0 : rxQueueFor(txFlow.reversed());
    }

    /** Engine access for protocol-specific driver commands
     *  (l5o_add_rr_state: NVMe CID -> buffer map updates). */
    L5Engine *rxEngine(uint64_t ctxId);

    // ------------------------------------------------------ stats
    const NicStats &stats() const { return stats_; }
    const PcieStats &pcie() const { return pcie_; }
    const Config &config() const { return cfg_; }

    /** Contexts resident in the on-NIC cache (<= ctxCacheCapacity). */
    size_t ctxResidentCount() const { return ctxResident_; }

    /** Host heap behind the flow tables: context slab (LRU links
     *  included) + the three flat indexes (feeds bytes/flow in
     *  bench_flowscale). */
    size_t
    ctxTableHeapBytes() const
    {
        return ctxArena_.heapBytes() + rxByFlow_.heapBytes() +
               rxById_.heapBytes() + txById_.heapBytes();
    }

    const FsmStats *rxFsmStats(uint64_t ctxId) const;

    /** Roll-up of every per-flow FSM on this NIC (rx and tx). */
    const FsmStats &fsmStats() const { return fsmAgg_; }
    /** Roll-up of every engine's work counters on this NIC. */
    const EngineStatsBank &engineStats() const { return engineAgg_; }
    /** Per-state dwell time (ns per visit) across all flows. */
    const sim::Distribution &fsmDwellNs(FsmState s) const
    {
        return fsmDwellNs_[static_cast<int>(s)];
    }

    /** Registry instance name ("nic", "srv.nic0", ...). */
    const std::string &name() const { return name_; }

    /** PCIe utilization over [since, now] given byte delta. */
    double
    pcieUtilization(uint64_t bytesDelta, sim::Tick window) const
    {
        if (window == 0)
            return 0.0;
        double gbps = static_cast<double>(bytesDelta) * 8.0 /
                      sim::ticksToSeconds(window) / 1e9;
        return gbps / cfg_.pcieGbps;
    }

  private:
    friend class FlowContext;

    struct TxCtx
    {
        util::SlabHandle ctx;
        uint32_t expectedSeq = 0;
    };

    /** A context-recovery descriptor: it holds its message until the
     *  NIC drains it and reads the first rebuildLen bytes. */
    struct TxResyncCmd
    {
        SharedBytes msg;
        uint64_t ctxId = 0;
        uint64_t msgIdx = 0;
        uint32_t tcpsn = 0;
        uint32_t rebuildLen = 0;
    };

    /** Rx handoffs due at one tick, drained by one event. The queue
     *  index travels alongside each packet (parallel vectors) so the
     *  flush can route to per-queue completion queues without
     *  rehashing. */
    struct RxPending
    {
        sim::Tick due = 0;
        std::vector<net::PacketPtr> pkts;
        std::vector<int> queues;
    };

    /** One TX/RX queue pair with its MSI-X completion state. */
    struct QueueState
    {
        /** Descriptors in post order: a packet, or null where the
         *  next of txResyncs (the special descriptors) applies. */
        util::Ring<net::PacketPtr> txRing;
        util::Ring<TxResyncCmd> txResyncs;
        RxBatch comp;            ///< completions pending interrupt
        uint64_t irqGen = 0;     ///< invalidates stale coalesce timers
        bool timerArmed = false;
        QueueStats stats;
        sim::StatsScope scope;
    };

    void applyTxResync(const TxResyncCmd &cmd);
    void pumpTx();
    void drainOne();
    void onWire(net::PacketPtr pkt);
    void flushRx(sim::Tick due);
    void deliverToQueue(int queue, net::PacketPtr pkt);
    void fireIrq(int queue);
    void onIrqTimer(int queue, uint64_t gen);
    RxBatch takeFreeVec();
    sim::Tick touchContext(FlowContext &ctx, QueueStats *qs = nullptr);
    void lruPushFront(FlowContext &ctx);
    void lruUnlink(FlowContext &ctx);
    void freeContext(util::SlabHandle h);
    void processTxOffload(net::Packet &pkt, QueueStats &qs);
    void processRxOffload(net::Packet &pkt, FlowContext &ctx);
    void installFsmHooks(FlowContext &ctx);
    /** An rx context's FSM speculated a header at @p tcpSeq. */
    void requestRxResync(uint64_t ctxId, uint64_t reqId, uint32_t tcpSeq);
    void linkInstruments();

    sim::Simulator &sim_;
    net::Link &link_;
    int port_;
    Config cfg_;

    // Queue pairs: unique_ptr for stable addresses (StatsScope links
    // point into QueueStats).
    std::vector<std::unique_ptr<QueueState>> queues_;
    std::vector<uint16_t> rssTable_;
    const net::Toeplitz *rss_ = nullptr;
    int rrNext_ = 0;          ///< round-robin tx arbitration cursor
    size_t txPendingTotal_ = 0;
    bool txPumping_ = false;
    sim::Tick lineFreeAt_ = 0;

    std::vector<RxPending> rxPending_;
    std::vector<RxPending> rxPendingFree_;
    std::vector<RxBatch> rxVecFree_;
    Bytes txRebuild_; ///< a draining resync's DMA read, reused

    std::function<void()> onTxSpace_;
    std::function<void(int, RxBatch)> onRxInterrupt_;
    std::function<void(uint64_t, uint64_t, uint32_t)> onResyncRequest_;

    uint64_t nextCtxId_ = 1;
    // Flow contexts live in one slab arena (stable addresses — the
    // FSM closure captures its FlowContext) and every index stores
    // the 8-byte handle by value, so the flat tables stay pointer-
    // and allocation-free under churn.
    util::SlabArena<FlowContext> ctxArena_;
    util::FlatMap<net::FlowKey, util::SlabHandle, net::FlowKeyHash>
        rxByFlow_;
    // Reverse index carries the flow key so destroy is O(1) instead
    // of a scan over every installed flow.
    struct RxRef
    {
        util::SlabHandle ctx;
        net::FlowKey flow;
    };
    util::FlatMap<uint64_t, RxRef> rxById_;
    util::FlatMap<uint64_t, TxCtx> txById_;

    // Exact LRU over the resident contexts (rx and tx both).
    FlowContext *lruHead_ = nullptr; ///< most recently used
    FlowContext *lruTail_ = nullptr; ///< next to evict
    size_t ctxResident_ = 0;

    NicStats stats_;
    PcieStats pcie_;

    // Observability: per-flow FSMs roll up here so the registry stays
    // bounded at any flow count (the ROADMAP's millions-of-flows goal).
    std::string name_;
    sim::StatsScope scope_;
    sim::TraceRing *trace_ = nullptr;
    FsmStats fsmAgg_;
    EngineStatsBank engineAgg_;
    sim::Distribution fsmDwellNs_[kFsmStateCount];
    FsmHooks fsmHooks_; ///< shared by every per-flow FSM
};

} // namespace anic::nic

#endif // ANIC_NIC_NIC_HH
