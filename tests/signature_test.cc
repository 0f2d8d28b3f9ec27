/**
 * @file
 * Bloom-signature unit and property tests (Section 3.1): no false
 * negatives ever, bounded false positives at workload-like
 * occupancies, union semantics for OS summary signatures, and the
 * FlexWatcher hash-readback instruction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/signature.hh"
#include "sim/rng.hh"

namespace flextm
{
namespace
{

TEST(SignatureTest, EmptyContainsNothing)
{
    Signature sig(2048, 4);
    EXPECT_TRUE(sig.empty());
    for (Addr a = 0; a < 100 * lineBytes; a += lineBytes)
        EXPECT_FALSE(sig.mayContain(a));
}

TEST(SignatureTest, InsertedAddressesAlwaysHit)
{
    Signature sig(2048, 4);
    Rng rng(11);
    std::vector<Addr> inserted;
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.nextInt(1u << 28);
        sig.insert(a);
        inserted.push_back(a);
    }
    for (Addr a : inserted)
        EXPECT_TRUE(sig.mayContain(a));  // no false negatives
}

TEST(SignatureTest, SubLineAddressesAlias)
{
    Signature sig(2048, 4);
    sig.insert(0x1000);
    EXPECT_TRUE(sig.mayContain(0x1008));
    EXPECT_TRUE(sig.mayContain(0x103f));
}

TEST(SignatureTest, ClearErasesEverything)
{
    Signature sig(2048, 4);
    for (Addr a = 0; a < 50 * lineBytes; a += lineBytes)
        sig.insert(a);
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_DOUBLE_EQ(sig.fillRatio(), 0.0);
    for (Addr a = 0; a < 50 * lineBytes; a += lineBytes)
        EXPECT_FALSE(sig.mayContain(a));
}

TEST(SignatureTest, UnionIsSuperset)
{
    Signature a(2048, 4), b(2048, 4);
    Rng rng(3);
    std::vector<Addr> in_a, in_b;
    for (int i = 0; i < 100; ++i) {
        in_a.push_back(rng.nextInt(1u << 26));
        in_b.push_back(rng.nextInt(1u << 26));
        a.insert(in_a.back());
        b.insert(in_b.back());
    }
    a.unionWith(b);
    for (Addr x : in_a)
        EXPECT_TRUE(a.mayContain(x));
    for (Addr x : in_b)
        EXPECT_TRUE(a.mayContain(x));
}

/** False-positive rate stays small at paper-like occupancies. */
class SignatureFpRate : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SignatureFpRate, BoundedAtOccupancy)
{
    const unsigned occupancy = GetParam();
    Signature sig(2048, 4);
    Rng rng(17 + occupancy);
    std::set<Addr> members;
    while (members.size() < occupancy) {
        const Addr line = rng.nextInt(1u << 22);
        members.insert(line);
        sig.insert(line << lineShift);
    }
    unsigned fp = 0;
    const unsigned probes = 4000;
    for (unsigned i = 0; i < probes; ++i) {
        const Addr line = (1u << 22) + rng.nextInt(1u << 22);
        if (sig.mayContain(line << lineShift))
            ++fp;
    }
    const double rate = static_cast<double>(fp) / probes;
    // Theoretical Bloom bound for k=4, m=2048 (banked): with n
    // insertions the per-bank fill is 1-exp(-n/512).
    const double fill = 1.0 - std::exp(-static_cast<double>(occupancy) /
                                       512.0);
    const double expect = std::pow(fill, 4.0);
    EXPECT_LT(rate, expect * 2.0 + 0.01) << "occupancy " << occupancy;
}

INSTANTIATE_TEST_SUITE_P(Occupancies, SignatureFpRate,
                         ::testing::Values(16u, 64u, 128u, 256u,
                                           512u));

TEST(SignatureTest, GeometriesIndependent)
{
    // Same inserts, different widths: the wider filter must not be
    // denser.
    Signature narrow(256, 4), wide(8192, 4);
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.nextInt(1u << 24);
        narrow.insert(a);
        wide.insert(a);
    }
    EXPECT_GT(narrow.fillRatio(), wide.fillRatio());
}

TEST(SignatureTest, ReadHashStableAndBankSeparated)
{
    Signature sig(2048, 4);
    const std::uint64_t h1 = sig.readHash(0x4000);
    const std::uint64_t h2 = sig.readHash(0x4000);
    EXPECT_EQ(h1, h2);
    // Four packed 16-bit indices; each must be in its own bank.
    for (unsigned k = 0; k < 4; ++k) {
        const unsigned idx = (h1 >> (16 * k)) & 0xffff;
        const unsigned bank = 3 - k;
        EXPECT_GE(idx, bank * 512u);
        EXPECT_LT(idx, (bank + 1) * 512u);
    }
}

TEST(SignatureTest, EqualityIsBitwise)
{
    Signature a(2048, 4), b(2048, 4);
    a.insert(0x1234000);
    EXPECT_FALSE(a == b);
    b.insert(0x1234000);
    EXPECT_TRUE(a == b);
}

TEST(SignatureDeathTest, RejectsBadGeometry)
{
    EXPECT_DEATH(Signature(100, 4), "power of two");
    EXPECT_DEATH(Signature(2048, 100), "hash count");
}

} // anonymous namespace
} // namespace flextm
