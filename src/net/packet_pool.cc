#include "net/packet_pool.hh"

namespace anic::net {

PacketPool::~PacketPool()
{
    ANIC_ASSERT(liveCount_ == 0,
                "PacketPool destroyed with %llu live packets; declare the "
                "pool before the Simulator and components that hold packets",
                static_cast<unsigned long long>(liveCount_));
    Packet *p = free_;
    while (p != nullptr) {
        Packet *next = p->nextFree_;
        delete p;
        p = next;
    }
}

Packet *
PacketPool::take(size_t size)
{
    Packet *p;
    if (free_ != nullptr) {
        p = free_;
        free_ = p->nextFree_;
        p->nextFree_ = nullptr;
        freeCount_--;
        hits_++;
        if (p->bytes.capacity() < size)
            grows_++;
    } else {
        p = new Packet;
        p->pool_ = this;
        misses_++;
    }
    p->refs_ = 1;
    p->bytes.resize(size);
    liveCount_++;
    live_.set(static_cast<double>(liveCount_));
    if (static_cast<double>(liveCount_) > hwm_) {
        hwm_ = static_cast<double>(liveCount_);
        hwmLive_.set(hwm_);
    }
    return p;
}

void
PacketPool::recycle(Packet *p)
{
    ANIC_ASSERT(liveCount_ > 0);
    liveCount_--;
    live_.set(static_cast<double>(liveCount_));
    recycled_++;
    p->rx.kind = L5Kind::None;
    p->rx.offloaded = false;
    for (VerifyOutcome &v : p->rx.verify)
        v = VerifyOutcome::None;
    p->rx.placed.clear(); // keeps vector capacity
    p->txCtx = 0;
    p->hdrValid_ = false;
    // bytes keep their size and content: the next take() resizes, so
    // only growth past the old size is zero-filled, and every builder
    // overwrites every byte it hands out (see alloc()).
    p->nextFree_ = free_;
    free_ = p;
    freeCount_++;
}

PacketPtr
PacketPool::alloc(size_t size)
{
    return PacketPtr::adopt(take(size));
}

PacketPtr
PacketPool::makeTcp(const Ipv4Header &ip, const TcpHeader &tcp,
                    size_t payloadLen)
{
    PacketPtr p = alloc(Packet::kHeaderSize + payloadLen);
    Ipv4Header iph = ip;
    iph.totalLen = static_cast<uint16_t>(p->bytes.size());
    iph.encode(p->bytes.data());
    tcp.encode(p->bytes.data() + Ipv4Header::kSize);
    p->setHeaders(iph, tcp);
    return p;
}

PacketPtr
PacketPool::make(const Ipv4Header &ip, const TcpHeader &tcp, ByteView payload)
{
    PacketPtr p = makeTcp(ip, tcp, payload.size());
    if (!payload.empty())
        std::memcpy(p->payloadMut().data(), payload.data(), payload.size());
    return p;
}

PacketPtr
PacketPool::copy(const Packet &src)
{
    PacketPtr p = alloc(src.bytes.size());
    std::memcpy(p->bytes.data(), src.bytes.data(), src.bytes.size());
    p->rx = src.rx;
    p->txCtx = src.txCtx;
    return p;
}

void
PacketPool::linkStats(sim::StatsScope scope)
{
    scope_ = std::move(scope);
    scope_.link("poolHits", hits_);
    scope_.link("poolMisses", misses_);
    scope_.link("poolGrows", grows_);
    scope_.link("poolRecycled", recycled_);
    scope_.link("livePackets", live_);
    scope_.link("livePacketsHwm", hwmLive_);
    scope_.link("cbHeapFallbacks", cbHeapFallbacks_);
}

PacketPool &
PacketPool::threadDefault()
{
    // One arena per thread: JobRunner workers each simulate a private
    // world, so no locking is needed.
    static thread_local PacketPool pool;
    return pool;
}

} // namespace anic::net
