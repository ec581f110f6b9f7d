/**
 * @file
 * TCP connection: a software TCP implementation sufficient to
 * exercise everything the paper's offloads depend on — segmentation,
 * cumulative ACKs, delayed ACKs, RTT estimation, RTO and fast
 * retransmit (Reno/NewReno), out-of-order reassembly that preserves
 * per-packet NIC offload metadata, receive-window flow control, and
 * 3-way handshake / FIN teardown.
 *
 * Deliberate simplifications (documented in DESIGN.md): no SACK, no
 * timestamps option (RTT sampled Karn-style), fixed header size, and
 * a configurable minimum RTO that defaults below Linux's 200 ms so
 * that millisecond-scale simulations recover from tail losses the
 * way long-running real benchmarks do.
 */

#ifndef ANIC_TCP_TCP_CONNECTION_HH
#define ANIC_TCP_TCP_CONNECTION_HH

#include <deque>
#include <map>
#include <memory>

#include "host/core.hh"
#include "net/packet.hh"
#include "sim/registry.hh"
#include "tcp/congestion.hh"
#include "tcp/seq.hh"
#include "tcp/socket.hh"
#include "util/slab.hh"

namespace anic::tcp {

class TcpStack;

/** Ring buffer holding unacknowledged send-stream bytes. */
class SendRing
{
  public:
    explicit SendRing(size_t capacity) : capacity_(capacity) {}

    size_t size() const { return size_; }
    size_t space() const { return capacity_ - size_; }

    /** Appends up to data.size() bytes; returns bytes accepted. */
    size_t push(ByteView data);

    /** Copies @p len bytes starting @p relOff bytes past the head. */
    void copyOut(size_t relOff, ByteSpan out) const;

    /** Drops @p n bytes from the head (they were acked). */
    void popFront(size_t n);

  private:
    size_t capacity_;
    Bytes buf_; // allocated on first use
    size_t head_ = 0;
    size_t size_ = 0;
};

/** Counters exposed for tests and benches. */
struct TcpStats
{
    sim::Counter dataPktsSent;
    sim::Counter dataPktsRcvd;
    sim::Counter acksSent;
    sim::Counter acksRcvd;
    sim::Counter retransmits;
    sim::Counter fastRetransmits;
    sim::Counter rtoFires;
    sim::Counter dupAcksRcvd;
    sim::Counter oooPktsRcvd;
    sim::Counter bytesSent;     ///< first transmissions only
    sim::Counter bytesDelivered;
    sim::Counter ecnCeRcvd;          ///< CE-marked data segments seen
    sim::Counter ecnEchoesRcvd;      ///< forward acks carrying ECE
    sim::Counter ecnCwndReductions;  ///< cwnd cuts from ECN feedback
};

/**
 * A TCP endpoint. Created via TcpStack::connect or a listener; runs
 * all processing on one pinned core (ARFS-style steering).
 */
class TcpConnection : public StreamSocket
{
  public:
    struct Config
    {
        uint32_t mss = 1460;
        size_t sndBufSize = 1 << 20;
        size_t rcvBufSize = 1 << 20;
        uint32_t initialCwndSegs = 10;
        uint32_t maxCwndSegs = 2048;
        sim::Tick minRto = 10 * sim::kMillisecond;
        sim::Tick maxRto = 2 * sim::kSecond;
        sim::Tick initialRto = 20 * sim::kMillisecond;
        sim::Tick delayedAckTimeout = 1 * sim::kMillisecond;
        /** Congestion control; Auto resolves through ANIC_TCP_CC and
         *  falls back to reno (the historical behavior). */
        CcAlgo cc = CcAlgo::Auto;
        /** Request ECN on the handshake. Implied by dctcp; with other
         *  algorithms ECE triggers the classic RFC 3168 halving. */
        bool ecn = false;
    };

    enum class State
    {
        Closed,
        SynSent,
        SynRcvd,
        Established,
        FinWait1,
        FinWait2,
        CloseWait,
        LastAck,
        Closing,
    };

    TcpConnection(TcpStack &stack, host::Core &core, const Config &cfg,
                  net::FlowKey local, uint32_t iss);
    ~TcpConnection() override = default;

    // ------------------------------------------------ StreamSocket
    size_t send(ByteView data) override;
    size_t sendSpace() const override { return sndRing_.space(); }
    void setOnWritable(std::function<void()> cb) override { onWritable_ = std::move(cb); }
    bool readable() const override { return !rxQueue_.empty(); }
    RxSegment pop() override;
    void setOnReadable(std::function<void()> cb) override { onReadable_ = std::move(cb); }
    void setOnPeerClosed(std::function<void()> cb) override { onPeerClosed_ = std::move(cb); }
    void close() override;
    host::Core &core() override { return core_; }

    // ------------------------------------------------ L5P hooks
    /** Absolute TCP sequence number the next send() byte will get. */
    uint32_t sndNextByteSeq() const { return iss_ + 1 + static_cast<uint32_t>(bytesAccepted_); }

    /** Registers a cumulative-ACK observer (kTLS trims record state). */
    void setOnAcked(std::function<void(uint32_t sndUna)> cb) { onAcked_ = std::move(cb); }

    /** TCP sequence number of receive-stream offset @p off (used to
     *  translate NIC resync anchors, which are sequence numbers). */
    uint32_t
    seqOfRcvStreamOff(uint64_t off) const
    {
        return irs_ + 1 + static_cast<uint32_t>(off);
    }

    /** Tags outgoing packets with an l5o context id (0 = none). */
    void setTxOffloadCtx(uint64_t ctx) { txOffloadCtx_ = ctx; }

    // ------------------------------------------------ stack-facing
    /** Handles one received packet; runs in a core work item. */
    void onPacket(const net::PacketPtr &pkt);

    /** Starts the active-open handshake. */
    void startConnect();

    /** Responds to a received SYN (passive open). @p synFlags is the
     *  SYN's TCP flags byte: ECN is negotiated from its ECE|CWR. */
    void startAccept(uint32_t irs, uint8_t synFlags);

    void setOnConnected(std::function<void()> cb) { onConnected_ = std::move(cb); }

    /** Retries transmission after the device reported free tx space. */
    void onDeviceWritable();

    // ------------------------------------------------ introspection
    State state() const { return state_; }
    const TcpStats &stats() const { return stats_; }
    const net::FlowKey &localFlow() const { return local_; }
    uint32_t cwndBytes() const { return cc_->cwnd(); }
    uint32_t ssthreshBytes() const { return cc_->ssthresh(); }
    CcAlgo ccAlgo() const { return cc_->algo(); }
    bool ecnEnabled() const { return ecnEnabled_; }
    uint32_t sndUna() const { return sndUna_; }
    uint32_t rcvNxt() const { return rcvNxt_; }
    size_t rxQueuedBytes() const { return rxQueuedBytes_; }
    const Config &config() const { return cfg_; }

  private:
    // Transmit machinery.
    void trySend();
    bool sendSegment(uint32_t seq, uint32_t len, bool retransmission);
    void sendFlagsPacket(uint8_t flags, uint32_t seq, bool withAck);
    void sendAck();
    void scheduleDelayedAck();
    void armRto();
    void cancelRto();
    /** Invalidates every outstanding timer closure (RTO, delayed
     *  ack) so none can act on this connection after the stack frees
     *  its slot — destroy() may run while timers are armed. */
    void
    cancelTimers()
    {
        cancelRto();
        delAckGeneration_++;
        delayedAckScheduled_ = false;
    }
    void onRtoFire(uint64_t generation);

    /** Wraps timer work @p fn(conn) into a simulator event that posts
     *  it to this connection's core, unless the connection was
     *  destroyed first (see the definition). */
    template <typename Fn>
    sim::Simulator::Callback timerEvent(Fn fn);

    uint32_t flightSize() const { return sndNxt_ - sndUna_; }
    uint32_t sndLimit() const;

    // Receive machinery.
    void processAck(const net::TcpHeader &h);
    void processData(const net::PacketPtr &pkt, const net::TcpHeader &h);
    void deliverSegment(uint32_t seq, SegmentBuffer data,
                        net::RxOffloadMeta meta, bool fin);
    void drainOoo();
    void enterEstablished();
    void handleFin();

    void enterFastRecovery();
    void rttSample(sim::Tick sample);
    /** TCP flags for our (re)transmitted SYN / SYN-ACK, carrying the
     *  RFC 3168 ECN-setup bits when appropriate. */
    uint8_t synFlags() const;
    uint8_t synAckFlags() const;
    /** ECE/CWR bits to put on an ack-bearing packet right now. */
    uint8_t ecnAckFlags(bool dataSegment) const;
    /** Bookkeeping after an ack-bearing packet actually went out. */
    void ecnEchoSent(bool dataSegment);
    /** Records an ECN-driven cwnd reduction (stats + distributions). */
    void noteCwndReduction();

    /** Bumps a stat on this connection and on the stack aggregate. */
    void count(sim::Counter TcpStats::*m, uint64_t n = 1);

    TcpStack &stack_;
    host::Core &core_;
    util::SlabHandle handle_; ///< this connection's slot in the stack
    Config cfg_;
    net::FlowKey local_; // srcIp/Port = this endpoint
    State state_ = State::Closed;

    // --- send state
    SendRing sndRing_;
    uint32_t iss_ = 0;
    uint32_t sndUna_ = 0;
    uint32_t sndNxt_ = 0;
    uint64_t bytesAccepted_ = 0;
    uint32_t peerWnd_ = 0;
    std::unique_ptr<CongestionControl> cc_;
    uint32_t dupAcks_ = 0;
    bool inRecovery_ = false;
    uint32_t recover_ = 0;
    // RTO loss-episode marker: ssthresh is recomputed only on the
    // first fire of an episode; repeat backoffs keep it (the episode
    // ends when the cumulative ack passes rtoRecover_).
    bool rtoEpisode_ = false;
    uint32_t rtoRecover_ = 0;
    // --- ECN state
    bool ecnWanted_ = false;   ///< config requested (or dctcp implies)
    bool ecnEnabled_ = false;  ///< negotiated on the handshake
    bool ecnEceLatched_ = false; ///< rx: echo ECE until peer's CWR
    bool ecnCeSinceAck_ = false; ///< rx: CE seen since last ack (dctcp)
    bool cwrPending_ = false;    ///< tx: announce reduction on next data
    bool ecnRespValid_ = false;  ///< tx: once-per-RTT classic reaction
    uint32_t ecnRespSeq_ = 0;
    bool finQueued_ = false;
    bool finSent_ = false;
    bool writableSignaled_ = true; ///< edge trigger for onWritable
    uint64_t txOffloadCtx_ = 0;
    bool devBlocked_ = false;
    bool inBlockedQueue_ = false; ///< linked on TcpStack::blocked_[dev]

    // --- RTT/RTO
    sim::Tick srtt_ = 0;
    sim::Tick rttvar_ = 0;
    sim::Tick rto_;
    uint64_t rtoGeneration_ = 0;
    bool rtoArmed_ = false;
    sim::Tick rtoDeadline_ = 0; ///< lazy re-arm: see armRto()
    int rtoBackoff_ = 0;
    uint32_t rttSeq_ = 0;
    sim::Tick rttSentAt_ = 0;
    bool rttPending_ = false;

    // --- receive state
    uint32_t irs_ = 0;
    uint32_t rcvNxt_ = 0;
    uint64_t rcvStreamOff_ = 0;
    std::deque<RxSegment> rxQueue_;
    size_t rxQueuedBytes_ = 0;
    struct OooSegment
    {
        Bytes data;
        net::RxOffloadMeta meta;
        bool fin = false;
    };
    std::map<uint64_t, OooSegment> ooo_; // keyed by 64-bit stream position
    size_t oooBytes_ = 0;
    uint32_t lastAdvertisedWnd_ = 0;
    int unackedDataPkts_ = 0;
    bool delayedAckScheduled_ = false;
    uint64_t delAckGeneration_ = 0;
    bool peerFinSeen_ = false;

    // --- callbacks
    std::function<void()> onWritable_;
    std::function<void()> onReadable_;
    std::function<void()> onPeerClosed_;
    std::function<void()> onConnected_;
    std::function<void(uint32_t)> onAcked_;

    TcpStats stats_;

    friend class TcpStack;
};

} // namespace anic::tcp

#endif // ANIC_TCP_TCP_CONNECTION_HH
