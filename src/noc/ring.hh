/**
 * @file
 * Fixed-capacity FIFO over caller-owned slots.
 *
 * The NoC's buffers have hard bounds: an input VC holds at most
 * vcDepth flits, and a link carries at most as many flits (or
 * credits) as its downstream buffers have slots, because a sender
 * only transmits against a credit. So every buffer is a ring over
 * storage sized once at construction. A push beyond the bound is a
 * flow-control bug and panics instead of growing.
 */

#ifndef OCOR_NOC_RING_HH
#define OCOR_NOC_RING_HH

#include <cstdint>
#include <span>
#include <utility>

#include "common/log.hh"

namespace ocor
{

/** FIFO view over a span of slots; the owner keeps them alive. */
template <class T>
class Ring
{
  public:
    Ring() = default;
    explicit Ring(std::span<T> slots)
        : slots_(slots.data()),
          capacity_(static_cast<std::uint32_t>(slots.size()))
    {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }
    unsigned size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    /** Element @p i positions behind the front (0 == front). */
    T &operator[](unsigned i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](unsigned i) const
    {
        return slots_[wrap(head_ + i)];
    }

    void
    push(T &&v)
    {
        if (size_ == capacity_)
            ocor_panic("Ring: overflow (capacity %u)", capacity_);
        slots_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    /** Remove the front element and hand it out by move. */
    T
    pop()
    {
        if (size_ == 0)
            ocor_panic("Ring: pop from empty ring");
        T v = std::move(slots_[head_]);
        head_ = wrap(head_ + 1);
        --size_;
        return v;
    }

  private:
    /** @p i < 2 * capacity_ always holds, so one subtraction wraps. */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    T *slots_ = nullptr;
    std::uint32_t capacity_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace ocor

#endif // OCOR_NOC_RING_HH
