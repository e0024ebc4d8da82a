/**
 * @file test_cache_array.cc
 * Tests for the set-associative cache array: geometry, LRU replacement,
 * dirty tracking, eviction reporting, the in-place overwrite rules,
 * and a differential test of the split tag/dirty/payload layout
 * against the array-of-structs reference in cache_array_reference.hh
 * under every replacement policy.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "cache_array_reference.hh"
#include "core/line.hh"
#include "sim/cache_array.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

using IntCache = CacheArray<int>;

TEST(CacheArrayGeometry, SetsAndWays)
{
    IntCache c(32 * 1024, 8);
    EXPECT_EQ(c.ways(), 8u);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_THROW(IntCache(0, 8), std::invalid_argument);
    EXPECT_THROW(IntCache(32 * 1024, 0), std::invalid_argument);
    EXPECT_THROW(IntCache(100, 3), std::invalid_argument);
}

TEST(CacheArray, MissThenHit)
{
    IntCache c(4096, 4);
    EXPECT_EQ(c.access(0, false), nullptr);
    EXPECT_EQ(c.stats().misses, 1u);
    c.insert(0, 42, false);
    int *v = c.access(0, false);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    // 2-way cache; three lines mapping to the same set.
    IntCache c(2 * 64, 2); // 1 set, 2 ways
    c.insert(0 * 64, 10, false);
    c.insert(1 * 64, 11, false);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_NE(c.access(0, false), nullptr);
    const auto ev = c.insert(2 * 64, 12, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 1u * 64);
    EXPECT_EQ(ev.line, 11);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_NE(c.peek(2 * 64), nullptr);
    EXPECT_EQ(c.peek(1 * 64), nullptr);
}

TEST(CacheArray, DirtyEvictionReported)
{
    IntCache c(2 * 64, 2);
    c.insert(0, 1, true);
    c.insert(64, 2, false);
    const auto ev = c.insert(128, 3, false); // evicts line 0 (LRU, dirty)
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(CacheArray, InPlaceOverwriteMergesDirty)
{
    IntCache c(4096, 4);
    c.insert(0, 1, true);
    const auto ev = c.insert(0, 2, false); // overwrite, clean insert
    EXPECT_FALSE(ev.valid);               // nothing evicted
    c.insert(64, 9, false);
    int out;
    bool dirty;
    ASSERT_TRUE(c.extract(0, out, dirty));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(dirty); // dirty bit survives the clean overwrite
}

TEST(CacheArray, MarkDirty)
{
    IntCache c(4096, 4);
    c.insert(0, 5, false);
    c.markDirty(0);
    int out;
    bool dirty;
    ASSERT_TRUE(c.extract(0, out, dirty));
    EXPECT_TRUE(dirty);
}

TEST(CacheArray, ExtractRemovesLine)
{
    IntCache c(4096, 4);
    c.insert(0, 5, false);
    int out;
    bool dirty;
    EXPECT_TRUE(c.extract(0, out, dirty));
    EXPECT_EQ(c.peek(0), nullptr);
    EXPECT_FALSE(c.extract(0, out, dirty));
}

TEST(CacheArray, PeekDoesNotTouchStatsOrLru)
{
    IntCache c(2 * 64, 2);
    c.insert(0, 1, false);
    c.insert(64, 2, false);
    // Peek line 0 (would refresh LRU if it were an access).
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.stats().hits, 0u);
    // Line 0 is still LRU, so it gets evicted.
    const auto ev = c.insert(128, 3, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u);
}

TEST(CacheArray, ForEachLineVisitsAllValid)
{
    IntCache c(4096, 4);
    c.insert(0, 1, false);
    c.insert(64, 2, true);
    c.insert(4096, 3, false);
    int visited = 0;
    int dirty_count = 0;
    c.forEachLine([&](Addr, int &, bool dirty) {
        ++visited;
        dirty_count += dirty;
    });
    EXPECT_EQ(visited, 3);
    EXPECT_EQ(dirty_count, 1);
}

TEST(CacheArray, ResetDropsEverything)
{
    IntCache c(4096, 4);
    c.insert(0, 1, true);
    c.reset();
    EXPECT_EQ(c.peek(0), nullptr);
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    IntCache c(4 * 64, 2); // 2 sets
    // Lines 0 and 64 map to different sets; fill both sets fully.
    c.insert(0 * 64, 0, false);
    c.insert(2 * 64, 2, false);
    c.insert(1 * 64, 1, false);
    c.insert(3 * 64, 3, false);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_NE(c.peek(64), nullptr);
    EXPECT_NE(c.peek(128), nullptr);
    EXPECT_NE(c.peek(192), nullptr);
}

TEST(CacheArray, HoldsLinePayloads)
{
    CacheArray<BitVectorLine> c(4096, 4);
    BitVectorLine line;
    line.mask = 0xf0;
    line.data[0] = 7;
    c.insert(0x40, line, true);
    const BitVectorLine *got = c.peek(0x40);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->mask, 0xf0u);
    EXPECT_EQ(got->data[0], 7);
}

TEST(CacheArray, InsertExposesTheFilledSlot)
{
    CacheArray<int> c(2 * 64, 2); // one set, two ways
    int *slot = nullptr;
    c.insert(0, 1, false, &slot);
    EXPECT_EQ(slot, c.peek(0));
    c.insert(64, 2, false);
    // An in-place overwrite and an eviction refill both report the
    // slot now holding the line.
    c.insert(0, 3, false, &slot);
    EXPECT_EQ(slot, c.peek(0));
    EXPECT_EQ(*slot, 3);
    const auto ev = c.insert(128, 4, false, &slot);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(slot, c.peek(128));
    EXPECT_EQ(*slot, 4);
}

struct Geometry
{
    std::size_t sizeBytes;
    unsigned ways;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.sizeBytes << " bytes x " << g.ways << " ways";
}

using DiffParam = std::tuple<ReplPolicy, Geometry>;

class CacheArrayDiff : public ::testing::TestWithParam<DiffParam>
{
};

SentinelLine
randomLine(Rng &rng)
{
    SentinelLine line;
    const std::uint64_t word = rng.next();
    for (unsigned i = 0; i < 8; ++i)
        line.raw[i * 8] = static_cast<std::uint8_t>(word >> (8 * i));
    line.califormed = rng.chance(0.3);
    return line;
}

void
expectSameStats(const CacheStats &got, const CacheStats &want, int step)
{
    EXPECT_EQ(got.hits, want.hits) << "step " << step;
    EXPECT_EQ(got.misses, want.misses) << "step " << step;
    EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
    EXPECT_EQ(got.dirtyEvictions, want.dirtyEvictions) << "step " << step;
    EXPECT_EQ(got.cformEvictions, want.cformEvictions) << "step " << step;
}

struct Visit
{
    Addr lineAddr;
    SentinelLine line;
    bool dirty;

    bool operator==(const Visit &) const = default;
};

template <typename Array>
std::vector<Visit>
visits(Array &array)
{
    std::vector<Visit> out;
    array.forEachLine([&](Addr la, SentinelLine &line, bool dirty) {
        out.push_back({la, line, dirty});
    });
    return out;
}

TEST_P(CacheArrayDiff, MatchesArrayOfStructsReference)
{
    const auto [policy, geometry] = GetParam();
    const auto [size, ways] = geometry;
    CacheArray<SentinelLine> got(size, ways, policy);
    test::ReferenceCacheArray<SentinelLine> want(size, ways, policy);
    Rng rng(static_cast<std::uint64_t>(size) * 131 + ways * 7 +
            static_cast<std::uint64_t>(policy));

    // Three times the capacity, so sets overflow and lines return
    // after eviction.
    const std::size_t footprint = 3 * size / lineBytes;
    for (int step = 0; step < 20000; ++step) {
        const Addr la = lineBytes * rng.nextBelow(footprint);
        const std::uint64_t roll = rng.nextBelow(100);
        if (roll < 30) {
            const bool make_dirty = rng.chance(0.3);
            SentinelLine *g = got.access(la, make_dirty);
            SentinelLine *w = want.access(la, make_dirty);
            ASSERT_EQ(g != nullptr, w != nullptr) << "step " << step;
            if (g) {
                EXPECT_EQ(*g, *w) << "step " << step;
                if (rng.chance(0.5)) { // write through the hit
                    const SentinelLine line = randomLine(rng);
                    *g = line;
                    *w = line;
                }
            }
        } else if (roll < 55) {
            const SentinelLine line = randomLine(rng);
            const bool dirty = rng.chance(0.4);
            SentinelLine *slot = nullptr;
            const auto g = got.insert(la, line, dirty, &slot);
            const auto w = want.insert(la, line, dirty);
            ASSERT_EQ(g.valid, w.valid) << "step " << step;
            EXPECT_EQ(g.dirty, w.dirty) << "step " << step;
            EXPECT_EQ(g.lineAddr, w.lineAddr) << "step " << step;
            EXPECT_EQ(g.line, w.line) << "step " << step;
            ASSERT_EQ(slot, got.peek(la)) << "step " << step;
            EXPECT_EQ(*slot, line) << "step " << step;
        } else if (roll < 62) {
            const SentinelLine *g = got.peek(la);
            const SentinelLine *w = want.peek(la);
            ASSERT_EQ(g != nullptr, w != nullptr) << "step " << step;
            if (g) {
                EXPECT_EQ(*g, *w) << "step " << step;
            }
        } else if (roll < 80) {
            SentinelLine gl, wl;
            bool gd = false, wd = false;
            ASSERT_EQ(got.extract(la, gl, gd), want.extract(la, wl, wd))
                << "step " << step;
            EXPECT_EQ(gl, wl) << "step " << step;
            EXPECT_EQ(gd, wd) << "step " << step;
        } else if (roll < 85) {
            got.markDirty(la);
            want.markDirty(la);
        } else if (roll < 90) {
            got.markClean(la);
            want.markClean(la);
        } else if (roll < 97) {
            EXPECT_EQ(got.dirtyAt(la), want.dirtyAt(la)) << "step " << step;
        } else if (roll < 99) {
            ASSERT_EQ(visits(got), visits(want)) << "step " << step;
        } else if (rng.chance(0.1)) {
            got.reset();
            want.reset();
        }
        expectSameStats(got.stats(), want.stats(), step);
    }
    EXPECT_EQ(visits(got), visits(want));
    EXPECT_GT(got.stats().evictions, 0u);
    EXPECT_GT(got.stats().cformEvictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndGeometries, CacheArrayDiff,
    ::testing::Combine(
        ::testing::Values(ReplPolicy::Lru, ReplPolicy::Random,
                          ReplPolicy::Dip, ReplPolicy::Drrip,
                          ReplPolicy::Ship),
        // One set of 4, 8 and 16 ways; set counts that are and are
        // not powers of two.
        ::testing::Values(Geometry{1 * 4 * 64, 4}, Geometry{1 * 8 * 64, 8},
                          Geometry{1 * 16 * 64, 16}, Geometry{6 * 2 * 64, 2},
                          Geometry{16 * 8 * 64, 8},
                          Geometry{12 * 16 * 64, 16})),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        const Geometry g = std::get<1>(info.param);
        return std::string(replPolicyName(std::get<0>(info.param))) +
               "_" + std::to_string(g.sizeBytes / (lineBytes * g.ways)) +
               "sets_" + std::to_string(g.ways) + "ways";
    });

TEST(CacheStatsTest, MissRate)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
    s.hits = 3;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.25);
}

} // namespace
} // namespace califorms
