/**
 * @file
 * Fixed-universe set of small indices, kept as a bitset.
 *
 * The event core visits only the components that have work: the
 * Network keeps one ActiveSet of routers and one of NIs, and System
 * keeps one per component group for its dirty wake-cache slots.
 * Insert, erase and membership are O(1); next() walks members in
 * ascending index, reading the live words, so a member inserted
 * ahead of an ongoing walk is still visited by it.
 */

#ifndef OCOR_COMMON_ACTIVE_SET_HH
#define OCOR_COMMON_ACTIVE_SET_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace ocor
{

class ActiveSet
{
  public:
    /** next() past the last member. */
    static constexpr unsigned npos = ~0u;

    /** A handle that inserts one fixed index into one set (a link's
     * flit or credit consumer); a default handle is inert. */
    struct Member
    {
        ActiveSet *set = nullptr;
        unsigned index = 0;

        void
        mark() const
        {
            if (set)
                set->insert(index);
        }
    };

    /** Empty set over the universe [0, @p size). */
    explicit ActiveSet(unsigned size = 0) : words_((size + 63) / 64) {}

    void insert(unsigned i) { words_[i >> 6] |= bit(i); }
    void erase(unsigned i) { words_[i >> 6] &= ~bit(i); }
    bool contains(unsigned i) const
    {
        return (words_[i >> 6] & bit(i)) != 0;
    }

    bool
    empty() const
    {
        for (std::uint64_t w : words_)
            if (w)
                return false;
        return true;
    }

    /** Smallest member >= @p from, or npos. */
    unsigned
    next(unsigned from) const
    {
        std::size_t w = from >> 6;
        if (w >= words_.size())
            return npos;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == words_.size())
                return npos;
            bits = words_[w];
        }
        return static_cast<unsigned>(w * 64) +
               static_cast<unsigned>(std::countr_zero(bits));
    }

  private:
    static std::uint64_t bit(unsigned i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace ocor

#endif // OCOR_COMMON_ACTIVE_SET_HH
