/**
 * @file
 * Byte-manipulation helpers: big-endian codecs, hex formatting, and a
 * deterministic payload generator used by workloads and tests.
 */

#ifndef ANIC_UTIL_BYTES_HH
#define ANIC_UTIL_BYTES_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace anic {

using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;
using ByteSpan = std::span<uint8_t>;
/** An immutable buffer with shared owners (a logged tx message). */
using SharedBytes = std::shared_ptr<const Bytes>;

/** Writes a big-endian integer of @p n bytes (n <= 8) at @p dst. */
inline void
putBe(uint8_t *dst, uint64_t v, size_t n)
{
    for (size_t i = 0; i < n; i++)
        dst[i] = static_cast<uint8_t>(v >> (8 * (n - 1 - i)));
}

/** Reads a big-endian integer of @p n bytes (n <= 8) from @p src. */
inline uint64_t
getBe(const uint8_t *src, size_t n)
{
    uint64_t v = 0;
    for (size_t i = 0; i < n; i++)
        v = (v << 8) | src[i];
    return v;
}

inline void putBe16(uint8_t *dst, uint16_t v) { putBe(dst, v, 2); }
inline void putBe32(uint8_t *dst, uint32_t v) { putBe(dst, v, 4); }
inline void putBe64(uint8_t *dst, uint64_t v) { putBe(dst, v, 8); }
inline uint16_t getBe16(const uint8_t *s) { return getBe(s, 2); }
inline uint32_t getBe32(const uint8_t *s) { return getBe(s, 4); }
inline uint64_t getBe64(const uint8_t *s) { return getBe(s, 8); }

/** Writes a little-endian integer of @p n bytes (n <= 8) at @p dst. */
inline void
putLe(uint8_t *dst, uint64_t v, size_t n)
{
    for (size_t i = 0; i < n; i++)
        dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Reads a little-endian integer of @p n bytes (n <= 8) from @p src. */
inline uint64_t
getLe(const uint8_t *src, size_t n)
{
    uint64_t v = 0;
    for (size_t i = 0; i < n; i++)
        v |= static_cast<uint64_t>(src[i]) << (8 * i);
    return v;
}

inline void putLe16(uint8_t *dst, uint16_t v) { putLe(dst, v, 2); }
inline void putLe32(uint8_t *dst, uint32_t v) { putLe(dst, v, 4); }
inline uint16_t getLe16(const uint8_t *s) { return getLe(s, 2); }
inline uint32_t getLe32(const uint8_t *s) { return getLe(s, 4); }

/** Hex-encodes a byte range ("deadbeef"). */
std::string toHex(ByteView data);

/** Decodes a hex string; panics on malformed input (test helper). */
Bytes fromHex(const std::string &hex);

/**
 * The deterministic content function, one byte at a time: byte
 * @p off of object @p seed. fillDeterministic and checkDeterministic
 * produce exactly these bytes, a block of words at a time.
 */
uint8_t deterministicByte(uint64_t seed, uint64_t off);

/**
 * Deterministic content generator. Fills @p out with bytes that are a
 * pure function of (seed, absolute offset), so any sub-range of an
 * object's content can be generated or verified independently.
 */
void fillDeterministic(ByteSpan out, uint64_t seed, uint64_t offset);

/** Verifies that @p data matches fillDeterministic(seed, offset). */
bool checkDeterministic(ByteView data, uint64_t seed, uint64_t offset);

} // namespace anic

#endif // ANIC_UTIL_BYTES_HH
