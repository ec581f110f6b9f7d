#include "util/bytes.hh"

#include <algorithm>
#include <bit>

#include "util/panic.hh"

namespace anic {

std::string
toHex(ByteView data)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 2);
    for (uint8_t b : data) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

namespace {

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/**
 * Mixes a 64-bit value (splitmix64 finalizer); used to derive one
 * content word per 8-byte block of a deterministic object.
 */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// Byte (offset) of an object is byte (offset % 8), little-endian, of
// content word (offset / 8); on a little-endian host a run of words
// is therefore the content itself, byte for byte.
static_assert(std::endian::native == std::endian::little,
              "content words are laid out as little-endian bytes");

/** Words per generated block: 512 bytes, a few cache lines. */
constexpr size_t kBlockWords = 64;
constexpr size_t kBlockBytes = kBlockWords * 8;

/**
 * Content words [blk, blk + n) of object @p seed. The words are
 * independent, so the loop vectorizes; on GCC/x86-64 it is compiled
 * once per ISA level and the loader picks the best the host supports.
 */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
void
contentWords(uint64_t *w, uint64_t seed, uint64_t blk, size_t n)
{
    for (size_t k = 0; k < n; k++)
        w[k] = mix64(seed ^ mix64(blk + k));
}

/**
 * Walks content bytes [offset, offset + len) a block at a time,
 * handing @p visit each block's slice (destination index, bytes,
 * length). Stops early, returning false, when @p visit does.
 */
template <typename Visit>
bool
forEachBlock(size_t len, uint64_t seed, uint64_t offset, Visit visit)
{
    uint64_t w[kBlockWords];
    uint64_t blk = offset / 8;
    size_t skip = offset % 8;
    for (size_t i = 0; i < len;) {
        size_t n = std::min(kBlockBytes - skip, len - i);
        size_t words = (skip + n + 7) / 8;
        contentWords(w, seed, blk, words);
        if (!visit(i, reinterpret_cast<const uint8_t *>(w) + skip, n))
            return false;
        i += n;
        blk += words;
        skip = 0;
    }
    return true;
}

} // namespace

Bytes
fromHex(const std::string &hex)
{
    ANIC_ASSERT(hex.size() % 2 == 0, "odd-length hex string");
    Bytes out(hex.size() / 2);
    for (size_t i = 0; i < out.size(); i++) {
        int hi = hexNibble(hex[2 * i]);
        int lo = hexNibble(hex[2 * i + 1]);
        ANIC_ASSERT(hi >= 0 && lo >= 0, "bad hex digit");
        out[i] = static_cast<uint8_t>((hi << 4) | lo);
    }
    return out;
}

uint8_t
deterministicByte(uint64_t seed, uint64_t off)
{
    uint64_t word = mix64(seed ^ mix64(off / 8));
    return static_cast<uint8_t>(word >> (8 * (off % 8)));
}

void
fillDeterministic(ByteSpan out, uint64_t seed, uint64_t offset)
{
    forEachBlock(out.size(), seed, offset,
                 [&](size_t i, const uint8_t *content, size_t n) {
                     std::memcpy(out.data() + i, content, n);
                     return true;
                 });
}

bool
checkDeterministic(ByteView data, uint64_t seed, uint64_t offset)
{
    return forEachBlock(data.size(), seed, offset,
                        [&](size_t i, const uint8_t *content, size_t n) {
                            return std::memcmp(data.data() + i, content,
                                               n) == 0;
                        });
}

} // namespace anic
