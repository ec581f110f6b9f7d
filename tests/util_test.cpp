/**
 * @file
 * Unit tests for util: byte codecs, hex, deterministic fill, RNG,
 * slab arena handles, and the flat hash map (including a differential
 * check against std::unordered_map and a regression for sequential-id
 * clustering).
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <unordered_map>

#include "util/bytes.hh"
#include "util/flat_map.hh"
#include "util/panic.hh"
#include "util/rand.hh"
#include "util/ring.hh"
#include "util/slab.hh"

namespace anic {
namespace {

TEST(Bytes, BigEndianRoundTrip)
{
    uint8_t buf[8];
    putBe16(buf, 0xbeef);
    EXPECT_EQ(getBe16(buf), 0xbeef);
    putBe32(buf, 0xdeadbeefu);
    EXPECT_EQ(getBe32(buf), 0xdeadbeefu);
    putBe64(buf, 0x0123456789abcdefull);
    EXPECT_EQ(getBe64(buf), 0x0123456789abcdefull);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(buf[7], 0xef);
}

TEST(Bytes, LittleEndianRoundTrip)
{
    uint8_t buf[4];
    putLe32(buf, 0xdeadbeefu);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[3], 0xde);
    EXPECT_EQ(getLe32(buf), 0xdeadbeefu);
    putLe16(buf, 0x1234);
    EXPECT_EQ(getLe16(buf), 0x1234);
}

TEST(Bytes, VariableWidthBigEndian)
{
    uint8_t buf[3];
    putBe(buf, 0x123456, 3);
    EXPECT_EQ(buf[0], 0x12);
    EXPECT_EQ(buf[1], 0x34);
    EXPECT_EQ(buf[2], 0x56);
    EXPECT_EQ(getBe(buf, 3), 0x123456u);
}

TEST(Bytes, HexRoundTrip)
{
    Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
    EXPECT_EQ(toHex(data), "deadbeef0001");
    EXPECT_EQ(fromHex("deadbeef0001"), data);
    EXPECT_EQ(fromHex("DEADBEEF0001"), data);
    EXPECT_TRUE(fromHex("").empty());
}

TEST(Bytes, DeterministicFillIsOffsetStable)
{
    // A sub-range generated at its own offset must match the same
    // range within a larger fill; this property underlies zero-copy
    // placement verification.
    Bytes whole(4096);
    fillDeterministic(whole, 42, 0);
    Bytes part(100);
    fillDeterministic(part, 42, 1000);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin() + 1000));
    EXPECT_TRUE(checkDeterministic(part, 42, 1000));
    EXPECT_FALSE(checkDeterministic(part, 42, 1001));
    EXPECT_FALSE(checkDeterministic(part, 43, 1000));
}

TEST(Bytes, DeterministicFillDiffersAcrossSeeds)
{
    Bytes a(256);
    Bytes b(256);
    fillDeterministic(a, 1, 0);
    fillDeterministic(b, 2, 0);
    EXPECT_NE(a, b);
}

/** Byte-at-a-time reference for fill/check. */
Bytes
referenceContent(uint64_t seed, uint64_t offset, size_t len)
{
    Bytes out(len);
    for (size_t i = 0; i < len; i++)
        out[i] = deterministicByte(seed, offset + i);
    return out;
}

TEST(Bytes, DeterministicFillMatchesByteReference)
{
    // Every start phase within a word, every length up to 1100 (two
    // 512-byte block edges), and lengths straddling later block edges.
    std::vector<size_t> lens;
    for (size_t len = 0; len <= 1100; len++)
        lens.push_back(len);
    for (size_t edge : {1536u, 2048u, 4096u})
        for (size_t len = edge - 9; len <= edge + 9; len++)
            lens.push_back(len);
    for (uint64_t base : {0ull, 4096ull, (1ull << 40) + 504})
        for (uint64_t phase = 0; phase < 8; phase++)
            for (size_t len : lens) {
                uint64_t off = base + phase;
                Bytes ref = referenceContent(7, off, len);
                Bytes got(len, 0xa5);
                fillDeterministic(got, 7, off);
                ASSERT_EQ(got, ref) << "offset " << off << " len " << len;
                ASSERT_TRUE(checkDeterministic(ref, 7, off))
                    << "offset " << off << " len " << len;
            }
}

TEST(Bytes, DeterministicCheckCatchesEveryBitFlip)
{
    for (uint64_t off : {0ull, 3ull}) {
        Bytes data = referenceContent(99, off, 1100);
        for (size_t i = 0; i < data.size(); i++) {
            data[i] ^= static_cast<uint8_t>(1u << (i % 8));
            ASSERT_FALSE(checkDeterministic(data, 99, off))
                << "offset " << off << " flip at " << i;
            data[i] ^= static_cast<uint8_t>(1u << (i % 8));
        }
        EXPECT_TRUE(checkDeterministic(data, 99, off));
    }
}

TEST(Bytes, DeterministicContentKnownAnswers)
{
    // Pinned output of the content function: every workload's wire
    // bytes and every verifier depend on it, so a change must be loud.
    struct Kat
    {
        uint64_t offset;
        Bytes bytes;
    };
    const Kat kats[] = {
        {0, {0x1b, 0x6b, 0xcf, 0xc9, 0x1e, 0x3f, 0x9b, 0x4d}},
        {7, {0x4d, 0x29, 0xfc, 0x9e, 0xac, 0x94, 0xb3, 0xb3}},
        {4096, {0xff, 0x51, 0x11, 0x4d, 0x72, 0xc4, 0xea, 0x20}},
    };
    for (const Kat &k : kats) {
        Bytes got(k.bytes.size());
        fillDeterministic(got, 42, k.offset);
        EXPECT_EQ(toHex(got), toHex(k.bytes)) << "offset " << k.offset;
        EXPECT_EQ(referenceContent(42, k.offset, k.bytes.size()), k.bytes);
    }
}

TEST(Rng, DeterministicAcrossReseeds)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
    a.reseed(8);
    b.reseed(7);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(123);
    for (int i = 0; i < 10000; i++) {
        uint64_t v = r.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(11);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        hits += r.chance(0.03) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.03, 0.005);
}

TEST(Strprintf, Formats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strprintf("%s", ""), "");
}

// ------------------------------------------------------------ slab arena

/** Counts constructions/destructions to observe slot lifecycle. */
struct Tracked
{
    static int liveInstances;
    int value;

    explicit Tracked(int v) : value(v) { liveInstances++; }
    ~Tracked() { liveInstances--; }
};

int Tracked::liveInstances = 0;

TEST(SlabArena, AllocGetFreeLifecycle)
{
    Tracked::liveInstances = 0;
    {
        util::SlabArena<Tracked> arena;
        util::SlabHandle a = arena.alloc(1);
        util::SlabHandle b = arena.alloc(2);
        EXPECT_EQ(arena.liveCount(), 2u);
        EXPECT_EQ(Tracked::liveInstances, 2);
        ASSERT_NE(arena.get(a), nullptr);
        EXPECT_EQ(arena.get(a)->value, 1);
        EXPECT_EQ(arena.at(b).value, 2);

        arena.free(a);
        EXPECT_EQ(arena.liveCount(), 1u);
        EXPECT_EQ(Tracked::liveInstances, 1);
        EXPECT_EQ(arena.get(a), nullptr); // stale handle resolves null
        arena.free(b);
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

TEST(SlabArena, GenerationGuardsRecycledSlot)
{
    util::SlabArena<Tracked> arena;
    util::SlabHandle a = arena.alloc(1);
    arena.free(a);
    // The freelist hands the same slot back; the stale handle must not
    // alias the new occupant.
    util::SlabHandle b = arena.alloc(2);
    EXPECT_EQ(b.index, a.index);
    EXPECT_NE(b.gen, a.gen);
    EXPECT_EQ(arena.get(a), nullptr);
    ASSERT_NE(arena.get(b), nullptr);
    EXPECT_EQ(arena.get(b)->value, 2);
    arena.free(b);
}

TEST(SlabArena, AddressesStableAcrossGrowth)
{
    util::SlabArena<Tracked> arena;
    std::vector<util::SlabHandle> handles;
    std::vector<Tracked *> addrs;
    // Span several slabs so growth happens mid-test.
    const int n = 3 * util::SlabArena<Tracked>::kSlabObjects + 7;
    for (int i = 0; i < n; i++) {
        handles.push_back(arena.alloc(i));
        addrs.push_back(arena.get(handles.back()));
    }
    for (int i = 0; i < n; i++) {
        EXPECT_EQ(arena.get(handles[i]), addrs[i]);
        EXPECT_EQ(addrs[i]->value, i);
    }
    EXPECT_GT(arena.heapBytes(), n * sizeof(Tracked));
    for (auto h : handles)
        arena.free(h);
    EXPECT_EQ(arena.liveCount(), 0u);
}

TEST(SlabArena, DestructorDestroysStragglers)
{
    Tracked::liveInstances = 0;
    {
        util::SlabArena<Tracked> arena;
        arena.alloc(1);
        arena.alloc(2);
        arena.alloc(3);
        // Owner "forgets" to free: the arena destructor must run the
        // destructors (worlds tear down whole stacks at once).
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

TEST(SlabArena, ForEachVisitsOnlyLive)
{
    util::SlabArena<Tracked> arena;
    util::SlabHandle a = arena.alloc(1);
    util::SlabHandle b = arena.alloc(2);
    util::SlabHandle c = arena.alloc(3);
    arena.free(b);
    int sum = 0;
    arena.forEach([&](Tracked &t) { sum += t.value; });
    EXPECT_EQ(sum, 4);
    arena.free(a);
    arena.free(c);
}

// -------------------------------------------------------------- flat map

TEST(FlatMap, BasicInsertFindErase)
{
    util::FlatMap<uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));

    m.emplace(7, 70);
    m.emplace(8, 80);
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_TRUE(m.contains(8));
    EXPECT_FALSE(m.contains(9));

    m.put(7, 71); // overwrite
    EXPECT_EQ(*m.find(7), 71);
    m.put(9, 90); // insert through put
    EXPECT_EQ(m.size(), 3u);

    EXPECT_TRUE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.size(), 2u);

    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, ForEachVisitsEveryEntry)
{
    util::FlatMap<uint64_t, uint64_t> m;
    uint64_t want = 0;
    for (uint64_t k = 0; k < 100; k++) {
        m.emplace(k, k * 3);
        want += k * 3;
    }
    uint64_t sum = 0;
    size_t count = 0;
    m.forEach([&](const uint64_t &k, uint64_t &v) {
        EXPECT_EQ(v, k * 3);
        sum += v;
        count++;
    });
    EXPECT_EQ(count, 100u);
    EXPECT_EQ(sum, want);
}

TEST(FlatMap, MoveTransfersOwnership)
{
    util::FlatMap<uint64_t, int> a;
    a.emplace(1, 10);
    a.emplace(2, 20);
    util::FlatMap<uint64_t, int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(*b.find(1), 10);

    util::FlatMap<uint64_t, int> c;
    c.emplace(9, 99);
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.find(9), nullptr);
    EXPECT_EQ(*c.find(2), 20);
}

/** Degenerate hash: collapses keys into few home slots to exercise
 *  robin-hood displacement and backward-shift deletion directly. */
struct CoarseHash
{
    size_t operator()(const uint64_t &k) const { return k / 16; }
};

TEST(FlatMap, CollidingKeysProbeAndBackwardShift)
{
    util::FlatMap<uint64_t, uint64_t, CoarseHash> m;
    // 48 keys over 3 home slots: long probe chains, heavy displacement.
    for (uint64_t k = 0; k < 48; k++)
        m.emplace(k, k + 1000);
    for (uint64_t k = 0; k < 48; k++) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), k + 1000);
    }
    // Erase from the middle of chains; survivors must stay findable
    // (backward shift repairs the chain instead of tombstoning).
    for (uint64_t k = 0; k < 48; k += 3)
        EXPECT_TRUE(m.erase(k));
    for (uint64_t k = 0; k < 48; k++) {
        if (k % 3 == 0) {
            EXPECT_EQ(m.find(k), nullptr) << k;
        } else {
            ASSERT_NE(m.find(k), nullptr) << k;
            EXPECT_EQ(*m.find(k), k + 1000);
        }
    }
}

TEST(FlatMap, ReserveAvoidsGrowthAndKeepsEntries)
{
    util::FlatMap<uint64_t, uint64_t> m;
    m.reserve(1000);
    size_t bytes = m.heapBytes();
    for (uint64_t k = 0; k < 1000; k++)
        m.emplace(k, k);
    EXPECT_EQ(m.heapBytes(), bytes); // no rehash happened
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(*m.find(999), 999u);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap)
{
    // Random insert/overwrite/erase/lookup mix, checked against the
    // reference container after every phase. Keys are drawn from a
    // small space so operations collide with earlier ones often.
    util::FlatMap<uint64_t, uint64_t> m;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(2024);
    for (int op = 0; op < 60000; op++) {
        uint64_t k = rng.below(4096);
        switch (rng.below(4)) {
          case 0:
          case 1: { // put (insert or overwrite)
            uint64_t v = rng.next();
            m.put(k, v);
            ref[k] = v;
            break;
          }
          case 2: { // erase
            bool a = m.erase(k);
            bool b = ref.erase(k) > 0;
            ASSERT_EQ(a, b);
            break;
          }
          case 3: { // lookup
            uint64_t *v = m.find(k);
            auto it = ref.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                ASSERT_EQ(*v, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    // Full sweep at the end: every surviving entry matches.
    size_t visited = 0;
    m.forEach([&](const uint64_t &k, uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(v, it->second);
        visited++;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, SequentialIdChurnStaysShallow)
{
    // Regression: context ids are sequential, and libstdc++'s
    // std::hash<uint64_t> is the identity. Before FlatHash, a sliding
    // window of sequential ids formed one contiguous run of occupied
    // slots, and every insert of an older "hot" id whose home slot
    // fell inside the run shifted the whole suffix, ratcheting probe
    // distances past the uint8 cap (panic at ~255). Replays that
    // pattern at the bench's scale: a 20000-entry resident window
    // sliding over 200000 sequential ids, with scattered hot survivors
    // re-inserted behind the window.
    util::FlatMap<uint64_t, uint64_t> m;
    std::vector<uint64_t> resident;
    Rng rng(7);
    uint64_t next = 0;
    const size_t kWindow = 20000;
    while (next < 200000) {
        uint64_t id = next++;
        m.put(id, id);
        resident.push_back(id);
        if (resident.size() > kWindow) {
            // Evict a mostly-oldest victim, but keep ~1% as "hot"
            // survivors and periodically re-insert an old id (a hot
            // flow fetched back into the cache).
            size_t victim = rng.below(100) == 0
                                ? rng.below(resident.size())
                                : 0;
            uint64_t ev = resident[victim];
            resident.erase(resident.begin() +
                           static_cast<ptrdiff_t>(victim));
            EXPECT_TRUE(m.erase(ev));
            if (rng.below(50) == 0 && ev > 0) {
                uint64_t hot = rng.below(ev);
                if (m.find(hot) == nullptr) {
                    m.put(hot, hot);
                    resident.push_back(hot);
                }
            }
        }
    }
    EXPECT_EQ(m.size(), resident.size());
    for (uint64_t id : resident)
        ASSERT_NE(m.find(id), nullptr) << id;
}

// ------------------------------------------------------------------ Ring

TEST(Ring, FifoOrderAcrossWrapAndGrowth)
{
    util::Ring<int> r;
    std::deque<int> ref;
    Rng rng(0x7269);
    int next = 0;
    // Random pushes and pops keep the head moving, so growth happens
    // with the live entries wrapped around the array's end.
    for (int i = 0; i < 20000; i++) {
        if (ref.empty() || rng.below(3) != 0) {
            r.push_back(next);
            ref.push_back(next++);
        } else {
            ASSERT_EQ(r.front(), ref.front());
            r.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(r.size(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_EQ(r.front(), ref.front());
        r.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, PopReleasesTheSlot)
{
    util::Ring<std::shared_ptr<int>> r;
    auto p = std::make_shared<int>(7);
    r.push_back(p);
    EXPECT_EQ(p.use_count(), 2);
    r.pop_front();
    EXPECT_EQ(p.use_count(), 1);
}

} // namespace
} // namespace anic
