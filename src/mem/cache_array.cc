#include "mem/cache_array.hh"

#include "common/log.hh"

namespace ocor
{

const char *
coherStateName(CoherState s)
{
    switch (s) {
      case CoherState::I: return "I";
      case CoherState::S: return "S";
      case CoherState::E: return "E";
      case CoherState::O: return "O";
      case CoherState::M: return "M";
      default: return "?";
    }
}

CacheArray::CacheArray(unsigned sets, unsigned ways,
                       unsigned line_bytes)
    : sets_(sets), ways_(ways), lineBytes_(line_bytes),
      rows_(sets)
{
    if (sets == 0 || (sets & (sets - 1)) != 0)
        ocor_fatal("CacheArray: sets must be a power of two");
    if (ways == 0)
        ocor_fatal("CacheArray: ways must be > 0");
}

unsigned
CacheArray::setOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr / lineBytes_)
                                 & (sets_ - 1));
}

CacheLine *
CacheArray::find(Addr line_addr)
{
    CacheLine *row = rows_[setOf(line_addr)].get();
    if (!row)
        return nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = row[w];
        if (l.valid && l.addr == line_addr)
            return &l;
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

CacheLine *
CacheArray::victimFor(Addr line_addr)
{
    std::unique_ptr<CacheLine[]> &slot = rows_[setOf(line_addr)];
    if (!slot) {
        slot = std::make_unique<CacheLine[]>(ways_);
        ++rowsAllocated_;
        return &slot[0];
    }
    CacheLine *row = slot.get();
    CacheLine *lru = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = row[w];
        if (!l.valid)
            return &l;
        if (!lru || l.lastUse < lru->lastUse)
            lru = &l;
    }
    return lru;
}

void
CacheArray::fill(CacheLine *slot, Addr line_addr, CoherState state,
                 std::uint64_t use_tick)
{
    slot->addr = line_addr;
    slot->state = state;
    slot->lastUse = use_tick;
    slot->valid = true;
}

void
CacheArray::touch(CacheLine *line, std::uint64_t use_tick)
{
    line->lastUse = use_tick;
}

unsigned
CacheArray::validCount() const
{
    unsigned n = 0;
    for (const auto &row : rows_) {
        if (!row)
            continue;
        for (unsigned w = 0; w < ways_; ++w)
            n += row[w].valid ? 1 : 0;
    }
    return n;
}

} // namespace ocor
