#include "core/signature.hh"

#include <bit>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace flextm
{

namespace
{

/** Per-bank multiplicative mixing constants (odd, well spread). */
constexpr std::uint64_t hashConsts[] = {
    0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
    0x165667b19e3779f9ULL, 0x27d4eb2f165667c5ULL,
    0x85ebca6b2e4f3d31ULL, 0xd6e8feb86659fd93ULL,
    0xa0761d6478bd642fULL, 0xe7037ed1a0b428dbULL,
};

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // anonymous namespace

Signature::Signature(unsigned bits, unsigned hashes)
    : bits_(bits), hashes_(hashes)
{
    sim_assert(bits >= 64 && (bits & (bits - 1)) == 0,
               "signature width must be a power of two >= 64");
    sim_assert(hashes >= 1 &&
                   hashes <= sizeof(hashConsts) / sizeof(hashConsts[0]),
               "unsupported hash count");
    sim_assert(bits % hashes == 0, "banks must divide evenly");
    bankBits_ = bits / hashes;
    sim_assert((bankBits_ & (bankBits_ - 1)) == 0,
               "per-bank width must be a power of two");
    words_.assign(bits / 64, 0);
}

unsigned
Signature::bitIndex(Addr line, unsigned hash) const
{
    const std::uint64_t h = mix64(line * hashConsts[hash]);
    return hash * bankBits_ + static_cast<unsigned>(h & (bankBits_ - 1));
}

void
Signature::insertLine(Addr line)
{
    for (unsigned h = 0; h < hashes_; ++h) {
        const unsigned idx = bitIndex(line, h);
        words_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    }
}

void
Signature::insert(Addr addr)
{
    insertLine(lineNumber(addr));
    ++population_;
    // Fault injection: additionally hash in a random unrelated line.
    // Membership tests for that alias now report false positives -
    // consistently, until clear(), exactly like a real Bloom
    // collision (per-query coin flips would be an unsound model).
    if (FaultPlan *fp = FaultPlan::active();
        fp && fp->fire(FaultKind::SigFalsePositive)) {
        insertLine(fp->rng().next());
    }
}

bool
Signature::mayContain(Addr addr) const
{
    if (population_ == 0)
        return false;
    const Addr line = lineNumber(addr);
    for (unsigned h = 0; h < hashes_; ++h) {
        const unsigned idx = bitIndex(line, h);
        if (!(words_[idx / 64] & (std::uint64_t{1} << (idx % 64))))
            return false;
    }
    return true;
}

void
Signature::clear()
{
    words_.assign(words_.size(), 0);
    population_ = 0;
}

void
Signature::unionWith(const Signature &other)
{
    sim_assert(bits_ == other.bits_ && hashes_ == other.hashes_,
               "signature geometry mismatch in union");
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
    population_ += other.population_;
}

double
Signature::fillRatio() const
{
    std::uint64_t set = 0;
    for (auto w : words_)
        set += std::popcount(w);
    return static_cast<double>(set) / static_cast<double>(bits_);
}

std::uint64_t
Signature::readHash(Addr addr) const
{
    const Addr line = lineNumber(addr);
    std::uint64_t packed = 0;
    for (unsigned h = 0; h < hashes_; ++h)
        packed = (packed << 16) | (bitIndex(line, h) & 0xffff);
    return packed;
}

bool
Signature::operator==(const Signature &other) const
{
    return bits_ == other.bits_ && hashes_ == other.hashes_ &&
           words_ == other.words_;
}

} // namespace flextm
