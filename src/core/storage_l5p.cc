#include "core/storage_l5p.hh"

#include <algorithm>

namespace anic::core {

CopyCounts
copyUnplaced(const StoragePdu &pdu, uint64_t dataStart, uint32_t dataLen,
             uint32_t bufferOffset, host::BlockBuffer *dst)
{
    std::vector<net::PlacedRange> placed = pdu.placed;
    std::sort(placed.begin(), placed.end(),
              [](const net::PlacedRange &a, const net::PlacedRange &b) {
                  return a.payloadOff < b.payloadOff;
              });

    const uint64_t dataEnd = dataStart + dataLen;
    CopyCounts c;
    auto copyRange = [&](uint64_t from, uint64_t to) {
        if (from >= to)
            return;
        uint64_t at = bufferOffset + (from - dataStart);
        if (dst != nullptr && at + (to - from) <= dst->data.size()) {
            std::memcpy(dst->data.data() + at, pdu.bytes.data() + from,
                        to - from);
        }
        c.copied += to - from;
    };
    uint64_t cursor = dataStart;
    for (const net::PlacedRange &r : placed) {
        uint64_t ps = std::max<uint64_t>(r.payloadOff, dataStart);
        uint64_t pe = std::min<uint64_t>(r.payloadOff + r.len, dataEnd);
        if (ps >= pe)
            continue;
        copyRange(cursor, ps);
        c.placed += pe - ps;
        cursor = std::max(cursor, pe);
    }
    copyRange(cursor, dataEnd);
    return c;
}

bool
dataDigestOk(const StoragePdu &pdu, uint64_t dataStart, uint32_t dataLen)
{
    ByteView data = ByteView(pdu.bytes).subspan(dataStart, dataLen);
    uint32_t wire = getLe32(pdu.bytes.data() + dataStart + dataLen);
    return crypto::Crc32c::compute(data) == wire;
}

void
appendPduChunk(StoragePdu &pdu, size_t pduOff, const tcp::RxSegment &seg,
               size_t off, size_t take, net::L5Kind kind)
{
    std::memcpy(pdu.bytes.data() + pduOff, seg.data.data() + off, take);
    // A chunk's digest counts as NIC-checked when the packet went
    // through the offload path and no digest that completed in it was
    // left uncovered; it passed unless a completed check mismatched.
    // Chunks with no completed digest are vacuously OK (the verdict
    // rides on the chunk holding the trailer).
    net::VerifyOutcome v = seg.meta.verifyOf(kind);
    if (!seg.meta.offloaded || v == net::VerifyOutcome::Incomplete ||
        v == net::VerifyOutcome::Failed)
        pdu.digestOffloaded = false;
    for (const net::PlacedRange &r : seg.meta.placed) {
        // Convert segment-relative placement to PDU-relative.
        uint64_t s = std::max<uint64_t>(r.payloadOff, off);
        uint64_t e = std::min<uint64_t>(r.payloadOff + r.len, off + take);
        if (s < e) {
            pdu.placed.push_back(net::PlacedRange{
                static_cast<uint32_t>(pduOff + (s - off)),
                static_cast<uint32_t>(e - s)});
        }
    }
}

} // namespace anic::core
