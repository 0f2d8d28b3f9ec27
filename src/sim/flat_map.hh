/**
 * @file
 * Open-addressed hash map for simulator hot paths.
 *
 * The per-transaction bookkeeping sets (TL2/RSTM write sets, RTM-F
 * header maps, the overflow table, the oracle's replay shadow) are
 * built and torn down millions of times per experiment.  std::map's
 * node allocation and pointer-chasing dominated those paths; this
 * container keeps keys and values in two flat arrays (slots + a
 * one-byte state per slot) with linear probing, so lookups are a
 * mixed hash plus a short contiguous scan and clearing is a memset.
 *
 * Semantics notes:
 *  - Unordered: range-for visits slots in table order, which depends
 *    on insertion history.  Any loop whose side effects feed the
 *    deterministic simulation (lock acquisition order, write-back
 *    traffic) must use forEachSorted(), which visits keys ascending
 *    exactly like the std::map iteration it replaces.
 *  - Values must be default-constructible and copy/move-assignable;
 *    erase() marks the slot as a tombstone and leaves the old value
 *    in place until the slot is reused (fine for the POD payloads
 *    this simulator stores).
 *  - Tombstones are reused by insertions and dropped wholesale on
 *    rehash; the table grows when occupied + tombstone slots exceed
 *    7/8 of capacity.
 */

#ifndef FLEXTM_SIM_FLAT_MAP_HH
#define FLEXTM_SIM_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace flextm
{

/** Mixes entropy into all bits; simulated addresses are line- or
 *  word-aligned so their low bits are constant (splitmix64 final). */
struct FlatHash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }
};

template <typename K, typename V, typename Hash = FlatHash>
class FlatMap
{
    enum class State : std::uint8_t { Empty = 0, Full, Tomb };

    struct Slot
    {
        K key;
        V value;
    };

  public:
    using value_type = std::pair<const K &, V &>;

    /** Forward iterator over occupied slots (table order). */
    template <bool Const>
    class Iter
    {
        using MapPtr =
            std::conditional_t<Const, const FlatMap *, FlatMap *>;
        using Ref = std::conditional_t<Const, std::pair<const K &, const V &>,
                                       std::pair<const K &, V &>>;

      public:
        Iter() = default;
        Iter(MapPtr m, std::size_t i) : m_(m), i_(i) { skip(); }

        Ref operator*() const
        {
            return Ref{m_->slots_[i_].key, m_->slots_[i_].value};
        }

        /** Arrow proxy so it->first / it->second work. */
        struct ArrowProxy
        {
            Ref pair;
            Ref *operator->() { return &pair; }
        };
        ArrowProxy operator->() const { return ArrowProxy{**this}; }

        Iter &operator++()
        {
            ++i_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

        std::size_t index() const { return i_; }

      private:
        void skip()
        {
            while (i_ < m_->states_.size() &&
                   m_->states_[i_] != State::Full)
                ++i_;
        }

        MapPtr m_ = nullptr;
        std::size_t i_ = 0;

        friend class FlatMap;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        if (size_ == 0 && tombs_ == 0)
            return;
        std::memset(states_.data(), 0, states_.size());
        size_ = 0;
        tombs_ = 0;
    }

    void
    reserve(std::size_t n)
    {
        std::size_t cap = capacity();
        while (n * 8 > cap * 7)
            cap = cap == 0 ? kMinCapacity : cap * 2;
        if (cap != capacity())
            rehash(cap);
    }

    iterator
    find(const K &k)
    {
        const std::size_t i = findIndex(k);
        return i == npos ? end() : iterator(this, i);
    }
    const_iterator
    find(const K &k) const
    {
        const std::size_t i = findIndex(k);
        return i == npos ? end() : const_iterator(this, i);
    }

    std::size_t count(const K &k) const { return findIndex(k) != npos; }
    bool contains(const K &k) const { return findIndex(k) != npos; }

    V &
    operator[](const K &k)
    {
        return *slotFor(k).first;
    }

    /** Insert (k, v) if absent; returns {iterator, inserted}. */
    template <typename... Args>
    std::pair<iterator, bool>
    emplace(const K &k, Args &&...args)
    {
        auto [vp, inserted, idx] = slotForIdx(k);
        if (inserted)
            *vp = V(std::forward<Args>(args)...);
        return {iterator(this, idx), inserted};
    }

    std::size_t
    erase(const K &k)
    {
        const std::size_t i = findIndex(k);
        if (i == npos)
            return 0;
        states_[i] = State::Tomb;
        --size_;
        ++tombs_;
        return 1;
    }

    void
    erase(iterator it)
    {
        states_[it.index()] = State::Tomb;
        --size_;
        ++tombs_;
    }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, states_.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, states_.size()); }

    /**
     * Visit entries in ascending key order - the iteration the
     * std::map predecessors provided.  Use this for any loop whose
     * effects reach the simulation (memory traffic, lock order).
     */
    template <typename F>
    void
    forEachSorted(F &&fn) const
    {
        std::vector<std::size_t> idx;
        idx.reserve(size_);
        for (std::size_t i = 0; i < states_.size(); ++i)
            if (states_[i] == State::Full)
                idx.push_back(i);
        std::sort(idx.begin(), idx.end(),
                  [this](std::size_t a, std::size_t b) {
                      return slots_[a].key < slots_[b].key;
                  });
        for (std::size_t i : idx)
            fn(slots_[i].key, slots_[i].value);
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t capacity() const { return states_.size(); }

    std::size_t
    findIndex(const K &k) const
    {
        if (states_.empty())
            return npos;
        const std::size_t mask = capacity() - 1;
        std::size_t i = Hash{}(k)&mask;
        for (;;) {
            if (states_[i] == State::Empty)
                return npos;
            if (states_[i] == State::Full && slots_[i].key == k)
                return i;
            i = (i + 1) & mask;
        }
    }

    /** Find or create the slot for @p k: {&value, created}. */
    std::pair<V *, bool>
    slotFor(const K &k)
    {
        auto [vp, inserted, idx] = slotForIdx(k);
        if (inserted)
            *vp = V{};
        return {vp, inserted};
    }

    struct SlotRef
    {
        V *value;
        bool inserted;
        std::size_t index;
    };

    SlotRef
    slotForIdx(const K &k)
    {
        if ((size_ + tombs_ + 1) * 8 > capacity() * 7)
            rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
        const std::size_t mask = capacity() - 1;
        std::size_t i = Hash{}(k)&mask;
        std::size_t first_tomb = npos;
        for (;;) {
            if (states_[i] == State::Empty) {
                const std::size_t at =
                    first_tomb != npos ? first_tomb : i;
                if (first_tomb != npos)
                    --tombs_;
                states_[at] = State::Full;
                slots_[at].key = k;
                ++size_;
                return {&slots_[at].value, true, at};
            }
            if (states_[i] == State::Tomb) {
                if (first_tomb == npos)
                    first_tomb = i;
            } else if (slots_[i].key == k) {
                return {&slots_[i].value, false, i};
            }
            i = (i + 1) & mask;
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<State> old_states = std::move(states_);
        slots_.assign(new_cap, Slot{});
        states_.assign(new_cap, State::Empty);
        const std::size_t old_size = size_;
        size_ = 0;
        tombs_ = 0;
        const std::size_t mask = new_cap - 1;
        for (std::size_t i = 0; i < old_states.size(); ++i) {
            if (old_states[i] != State::Full)
                continue;
            std::size_t j = Hash{}(old_slots[i].key) & mask;
            while (states_[j] == State::Full)
                j = (j + 1) & mask;
            states_[j] = State::Full;
            slots_[j] = std::move(old_slots[i]);
            ++size_;
        }
        (void)old_size;
    }

    std::vector<Slot> slots_;
    std::vector<State> states_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

/** Flat hash set: FlatMap with an empty payload. */
template <typename K, typename Hash = FlatHash>
class FlatSet
{
    struct Nothing
    {
    };

  public:
    std::size_t size() const { return m_.size(); }
    bool empty() const { return m_.empty(); }
    void clear() { m_.clear(); }
    void reserve(std::size_t n) { m_.reserve(n); }
    bool insert(const K &k) { return m_.emplace(k).second; }
    std::size_t count(const K &k) const { return m_.count(k); }
    bool contains(const K &k) const { return m_.contains(k); }
    std::size_t erase(const K &k) { return m_.erase(k); }

    /** Visit members in ascending order. */
    template <typename F>
    void
    forEachSorted(F &&fn) const
    {
        m_.forEachSorted([&fn](const K &k, const Nothing &) { fn(k); });
    }

  private:
    FlatMap<K, Nothing, Hash> m_;
};

} // namespace flextm

#endif // FLEXTM_SIM_FLAT_MAP_HH
