/**
 * @file
 * Bloom-filter access signatures (Section 3.1).
 *
 * Each FlexTM core carries a read signature (Rsig) and a write
 * signature (Wsig) summarizing the current transaction's access sets:
 * conservative (false positives possible, never false negatives).
 * The default geometry follows Table 3a / Bulk's S14 configuration:
 * 2048 bits, 4 banks, one independent hash per bank.
 *
 * Signatures are first-class, software-visible objects: they can be
 * read, saved, restored, unioned (for OS summary signatures), and used
 * for non-transactional purposes (FlexWatcher, Section 8).
 */

#ifndef FLEXTM_CORE_SIGNATURE_HH
#define FLEXTM_CORE_SIGNATURE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace flextm
{

/** A banked Bloom filter over cache-line addresses. */
class Signature
{
  public:
    /**
     * @param bits   total width in bits (power of two)
     * @param hashes number of banks / independent hash functions
     */
    explicit Signature(unsigned bits = 2048, unsigned hashes = 4);

    /** Add the line containing @p addr. */
    void insert(Addr addr);

    /** Conservative membership test for the line containing @p addr. */
    bool mayContain(Addr addr) const;

    /** Zero out the filter (the `clear Sig` instruction). */
    void clear();

    /** True when no line has ever been inserted since clear(). */
    bool empty() const { return population_ == 0; }

    /** OR another signature into this one (OS summary signatures). */
    void unionWith(const Signature &other);

    /** Fraction of filter bits that are set (for diagnostics). */
    double fillRatio() const;

    /**
     * The `read-hash` instruction of the FlexWatcher API (Table 4a):
     * returns the packed bit indices this address hashes to.
     */
    std::uint64_t readHash(Addr addr) const;

    unsigned bits() const { return bits_; }
    unsigned hashes() const { return hashes_; }

    bool operator==(const Signature &other) const;

  private:
    unsigned bits_;
    unsigned hashes_;
    unsigned bankBits_;      //!< bits per bank
    std::vector<std::uint64_t> words_;
    std::uint64_t population_ = 0;

    unsigned bitIndex(Addr line, unsigned hash) const;
    void insertLine(Addr line);
};

} // namespace flextm

#endif // FLEXTM_CORE_SIGNATURE_HH
