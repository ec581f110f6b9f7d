/**
 * @file
 * Kernel-TLS-style software record layer (the paper's §5.2 software
 * side). A TlsSocket wraps a TcpConnection and presents the same
 * StreamSocket interface carrying *plaintext*, so applications (and
 * the NVMe-TCP L5P, for the NVMe-TLS composition) are oblivious to
 * whether crypto runs in software or on the NIC.
 *
 * Offload behaviour implemented from the paper:
 *  - tx: records are framed with dummy ICVs and passed down in
 *    plaintext; the NIC encrypts in place. The session core's tx log
 *    keeps each record until it is acked and answers
 *    l5o_get_tx_msgstate for retransmissions.
 *  - rx: a record whose packets all carry the NIC's `decrypted` bit
 *    skips software crypto entirely; a partially-offloaded record is
 *    recovered by re-encrypting the NIC-decrypted ranges (CTR) and
 *    then running the normal software decrypt+authenticate path —
 *    which is why partial decryption is costlier than none (§6.4).
 *  - rx resync: the session core answers the NIC's header
 *    speculation at record starts.
 *  - sendfile: software mode allocates a per-record encryption
 *    buffer; offload mode still allocates+copies; offload+zc hands
 *    page-cache bytes straight to the NIC (user must not modify).
 */

#ifndef ANIC_TLS_KTLS_HH
#define ANIC_TLS_KTLS_HH

#include <deque>

#include "core/l5p_session.hh"
#include "sim/registry.hh"
#include "tcp/tcp_connection.hh"
#include "tls/record.hh"
#include "tls/tls_engine.hh"

namespace anic::tls {

/** Socket-level statistics (drives Figures 11, 13, 16-18). */
struct TlsStats
{
    sim::Counter recordsTx;
    sim::Counter recordsRx;
    sim::Counter rxFullyOffloaded;
    sim::Counter rxPartiallyOffloaded;
    sim::Counter rxNotOffloaded;
    sim::Counter tagFailures;
    sim::Counter txMsgStateUpcalls;
    sim::Counter rxResyncRequests;
    sim::Counter rxResyncConfirmed;
    sim::Counter plaintextBytesTx;
    sim::Counter plaintextBytesRx;
};

/** Links every TlsStats counter under @p scope as "<stem>.<field>". */
void linkTlsStats(sim::StatsScope &scope, const std::string &stem,
                  const TlsStats &s);

/** Per-socket TLS configuration. */
struct TlsConfig
{
    size_t recordSize = kMaxPlaintext; ///< max plaintext per record
    bool txOffload = false;
    bool rxOffload = false;
    bool zerocopySendfile = false; ///< only meaningful with txOffload

    /** Owner-level aggregate every count also lands in; sockets come
     *  and go per connection, the aggregate is what the registry
     *  publishes (per-socket stats stay available via stats()). */
    TlsStats *aggregate = nullptr;
};

/** How transmitted bytes are sourced (send vs sendfile variants). */
enum class TxMode
{
    Copy,     ///< send(): user buffer copied into the record
    Sendfile, ///< sendfile(): page-cache source, no user copy
};

class TlsSocket : public tcp::StreamSocket, public core::L5pSession
{
  public:
    /**
     * Wraps an *established* connection. Keys mirror the peer's (use
     * SessionKeys::derive with the same secret on both sides).
     */
    TlsSocket(tcp::TcpConnection &conn, const SessionKeys &keys,
              TlsConfig cfg);

    /**
     * Installs NIC offload contexts (l5o_create) per the config's
     * txOffload/rxOffload flags. Must be called before any data moves
     * (i.e. right after the handshake).
     */
    void enableOffload(core::OffloadDevice &dev);

    // ------------------------------------------------ StreamSocket
    size_t send(ByteView data) override;
    size_t sendSpace() const override;
    void setOnWritable(std::function<void()> cb) override { onWritable_ = std::move(cb); }
    bool readable() const override { return !rxOut_.empty(); }
    tcp::RxSegment pop() override;
    void setOnReadable(std::function<void()> cb) override { onReadable_ = std::move(cb); }
    void setOnPeerClosed(std::function<void()> cb) override;
    void close() override { conn_.close(); }
    host::Core &core() override { return conn_.core(); }

    /**
     * sendfile-style transmit: @p len bytes of file content
     * (deterministically generated from @p seed at @p fileOff, i.e.
     * the page cache holds it). Returns bytes accepted.
     */
    size_t sendFile(uint64_t seed, uint64_t fileOff, size_t len);

    const TlsStats &stats() const { return stats_; }

    /**
     * Observer invoked as each rx record completes, with its index
     * and the plaintext offset where its payload starts. The NVMe-TLS
     * composition uses this to translate the NIC's inner-layer resync
     * anchors (record index, offset) into plaintext positions.
     */
    void
    setRecordObserver(std::function<void(uint64_t recIdx, uint64_t plainOff)> cb)
    {
        recordObserver_ = std::move(cb);
    }

    /** Index the next received record will get. */
    uint64_t nextRxRecordSeq() const { return rxRecSeq_; }

    /** Framed record bytes TCP has not yet accepted. Zero together
     *  with an all-acked connection means no in-flight record depends
     *  on this socket's keys or NIC contexts — the safe point for a
     *  key-rotation style socket swap. */
    size_t
    txBacklog() const
    {
        return staging_ != nullptr ? staging_->size() - stagingOff_ : 0;
    }

  private:
    // ------------------------------------------------------- tx
    bool emitRecord(ByteView plaintext, TxMode mode);
    void flushStaging();
    void chargeTxRecord(size_t plainLen, TxMode mode);

    // ------------------------------------------------------- rx
    void onTcpReadable();
    void ingestSegment(tcp::RxSegment seg);
    void finishRecord();

    // ----------------------------------------------- L5pSession
    RxCursor
    rxCursor() const override
    {
        bool mid_record = rxHdrComplete_ || !rxHdrBuf_.empty();
        return {mid_record ? rxRecStartOff_ : rxStreamConsumed_, rxRecSeq_};
    }

    void
    countResync(bool confirmed) override
    {
        count(confirmed ? &TlsStats::rxResyncConfirmed
                        : &TlsStats::rxResyncRequests);
    }

    void
    countTxMsgStateUpcall() override
    {
        count(&TlsStats::txMsgStateUpcalls);
    }

    /** Counts into the socket stats and the configured aggregate. */
    void
    count(sim::Counter TlsStats::*m, uint64_t n = 1)
    {
        (stats_.*m) += n;
        if (cfg_.aggregate != nullptr)
            (cfg_.aggregate->*m) += n;
    }

    tcp::TcpConnection &conn_;
    TlsConfig cfg_;
    SessionKeys keys_;
    crypto::AesGcm txGcm_;
    crypto::AesGcm rxGcm_;
    crypto::Aes128 rxCtrAes_; ///< for partial-offload re-encryption

    // --- tx state
    uint64_t txRecSeq_ = 0;
    SharedBytes staging_; ///< a record TCP has not yet taken all of
    size_t stagingOff_ = 0; ///< bytes of it TCP took
    std::function<void()> onWritable_;

    // --- rx state
    struct Slice
    {
        size_t recOff = 0;
        Bytes data;
        net::RxOffloadMeta meta;
        bool decrypted = false;
    };
    RecordHeader rxHdr_;
    Bytes rxHdrBuf_;
    bool rxHdrComplete_ = false;
    std::vector<Slice> rxSlices_;
    size_t rxHave_ = 0; ///< record bytes collected (incl. header)
    uint64_t rxRecStartOff_ = 0;
    uint64_t rxStreamConsumed_ = 0; ///< next unconsumed TCP stream offset
    uint64_t rxRecSeq_ = 0;
    uint64_t rxPlainOff_ = 0;
    std::deque<tcp::RxSegment> rxOut_;
    bool rxError_ = false;

    std::function<void()> onReadable_;
    std::function<void(uint64_t, uint64_t)> recordObserver_;
    TlsStats stats_;
};

} // namespace anic::tls

#endif // ANIC_TLS_KTLS_HH
