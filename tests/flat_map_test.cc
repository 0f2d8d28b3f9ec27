/**
 * @file
 * FlatMap/FlatSet unit tests: randomized differential testing
 * against std::map, the sorted-iteration contract the deterministic
 * simulation relies on, tombstone reuse, and growth behaviour (the
 * latter mostly for ASan to chew on).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

using namespace flextm;

/** Randomized op mix checked move-for-move against std::map. */
TEST(FlatMap, FuzzAgainstStdMap)
{
    Rng rng(0xf1a7);
    FlatMap<std::uint64_t, std::uint64_t> fm;
    std::map<std::uint64_t, std::uint64_t> ref;

    // Keys cluster like simulated line addresses: small multiples of
    // 64, so hash quality on aligned keys is part of what's tested.
    auto randKey = [&] { return rng.nextInt(512) * 64; };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t k = randKey();
        switch (rng.nextInt(5)) {
          case 0:
          case 1: { // insert-or-assign via operator[]
            const std::uint64_t v = rng.next();
            fm[k] = v;
            ref[k] = v;
            break;
          }
          case 2: { // emplace: must not overwrite an existing value
            const auto [it, inserted] = fm.emplace(k, step);
            const auto r = ref.emplace(k, step);
            ASSERT_EQ(inserted, r.second);
            ASSERT_EQ(it->first, r.first->first);
            ASSERT_EQ(it->second, r.first->second);
            break;
          }
          case 3: // erase
            ASSERT_EQ(fm.erase(k), ref.erase(k));
            break;
          default: { // lookup
            const auto it = fm.find(k);
            const auto rit = ref.find(k);
            ASSERT_EQ(it != fm.end(), rit != ref.end());
            if (rit != ref.end()) {
                ASSERT_EQ(it->second, rit->second);
            }
            ASSERT_EQ(fm.contains(k), ref.count(k) == 1);
            break;
          }
        }
        ASSERT_EQ(fm.size(), ref.size());

        if (step % 4096 == 4095) {
            // Full-content audit, then start a fresh epoch.
            for (const auto &[rk, rv] : ref) {
                const auto it = fm.find(rk);
                ASSERT_NE(it, fm.end());
                ASSERT_EQ(it->second, rv);
            }
            fm.clear();
            ref.clear();
            ASSERT_TRUE(fm.empty());
        }
    }
}

/** forEachSorted must visit keys ascending - the iteration order of
 *  the std::map containers it replaced - regardless of insertion
 *  order, erasures, or table history. */
TEST(FlatMap, SortedIterationMatchesStdMap)
{
    Rng rng(0xbeef);
    FlatMap<std::uint64_t, int> fm;
    std::map<std::uint64_t, int> ref;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t k = rng.nextInt(4096) * 8;
        fm[k] = i;
        ref[k] = i;
        if (i % 3 == 0) {
            const std::uint64_t victim = rng.nextInt(4096) * 8;
            fm.erase(victim);
            ref.erase(victim);
        }
    }

    std::vector<std::pair<std::uint64_t, int>> got, expect;
    fm.forEachSorted([&](std::uint64_t k, const int &v) {
        got.emplace_back(k, v);
    });
    for (const auto &[k, v] : ref)
        expect.emplace_back(k, v);
    EXPECT_EQ(got, expect);
}

/** Erase + reinsert cycles must reuse tombstoned slots rather than
 *  growing the table: a bounded working set keeps bounded capacity
 *  (observed through iterator indexes staying in range). */
TEST(FlatMap, TombstoneReuseKeepsTableBounded)
{
    FlatMap<std::uint64_t, std::uint64_t> fm;
    // A working set of 8 keys, far below the 16-slot minimum table:
    // churning it hard must never trigger growth, which we observe
    // via end().index() (== capacity) staying at the minimum.
    for (int round = 0; round < 10000; ++round) {
        const std::uint64_t k = (round % 8) * 64;
        fm[k] = round;
        fm.erase(k);
    }
    EXPECT_TRUE(fm.empty());
    EXPECT_EQ(fm.end().index(), 16u);

    // And the slots are genuinely reusable afterwards.
    for (std::uint64_t k = 0; k < 8; ++k)
        fm[k * 64] = k;
    EXPECT_EQ(fm.size(), 8u);
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(fm[k * 64], k);
}

/** Growth across many doublings preserves content (and gives ASan a
 *  workout over the rehash move path). */
TEST(FlatMap, GrowthPreservesContent)
{
    FlatMap<std::uint64_t, std::uint64_t> fm;
    constexpr std::uint64_t n = 50000;
    for (std::uint64_t k = 0; k < n; ++k)
        fm[k * 8] = k ^ 0x5a5a;
    ASSERT_EQ(fm.size(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
        const auto it = fm.find(k * 8);
        ASSERT_NE(it, fm.end());
        ASSERT_EQ(it->second, k ^ 0x5a5a);
    }

    // reserve() up front must produce the same content with no
    // intermediate rehashes.
    FlatMap<std::uint64_t, std::uint64_t> pre;
    pre.reserve(n);
    const std::size_t cap = pre.end().index();
    for (std::uint64_t k = 0; k < n; ++k)
        pre[k * 8] = k;
    EXPECT_EQ(pre.end().index(), cap);
    EXPECT_EQ(pre.size(), n);
}

TEST(FlatSet, BasicAndSorted)
{
    FlatSet<std::uint64_t> fs;
    EXPECT_TRUE(fs.insert(192));
    EXPECT_TRUE(fs.insert(64));
    EXPECT_FALSE(fs.insert(192));
    EXPECT_TRUE(fs.contains(64));
    EXPECT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs.erase(64), 1u);
    EXPECT_EQ(fs.erase(64), 0u);
    fs.insert(128);
    fs.insert(0);

    std::vector<std::uint64_t> got;
    fs.forEachSorted([&](std::uint64_t k) { got.push_back(k); });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 128, 192}));
}

/** Range-for over the map visits every element exactly once (table
 *  order, unordered) and the arrow proxy works. */
TEST(FlatMap, UnorderedIterationCoverage)
{
    FlatMap<std::uint64_t, int> fm;
    std::map<std::uint64_t, int> seen;
    for (std::uint64_t k = 0; k < 100; ++k)
        fm[k * 64] = static_cast<int>(k);
    for (auto it = fm.begin(); it != fm.end(); ++it)
        ASSERT_TRUE(seen.emplace(it->first, it->second).second);
    EXPECT_EQ(seen.size(), 100u);
    for (const auto &[k, v] : seen)
        EXPECT_EQ(v, static_cast<int>(k / 64));
}
