/**
 * @file
 * FIFO ring with inline storage for its first N elements.
 *
 * The simulator's per-session queues (free and queued buffer slots,
 * frames waiting for a pipeline stage, outstanding display-time
 * promises, callbacks waiting for an edge) hold a handful of entries,
 * bounded by the buffer-queue depth or the pre-render limit. N covers
 * that bound, so a session fills and drains them without touching the
 * allocator. A deeper queue than N (a stress configuration, a composed
 * display with many surfaces) moves to heap storage of twice the
 * capacity and keeps it; nothing is ever dropped.
 *
 * Elements are default-constructed in place and moved in and out, so T
 * must be default-constructible and move-assignable. The ring holds a
 * pointer into itself and is neither copyable nor movable.
 */

#ifndef DVS_SIM_INLINE_RING_H
#define DVS_SIM_INLINE_RING_H

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace dvs {

template <class T, std::size_t N>
class InlineRing
{
    static_assert(N > 0, "an InlineRing needs inline capacity");

  public:
    InlineRing() = default;
    InlineRing(const InlineRing &) = delete;
    InlineRing &operator=(const InlineRing &) = delete;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void push_back(const T &v) { slot_for_push() = v; }
    void push_back(T &&v) { slot_for_push() = std::move(v); }

    /** Remove and return the front element. @pre !empty() */
    T
    pop_front()
    {
        assert(size_ > 0);
        T v = take(buf_[head_]);
        head_ = wrap(head_ + 1);
        --size_;
        return v;
    }

    /** Remove and return the back element. @pre !empty() */
    T
    pop_back()
    {
        assert(size_ > 0);
        T v = take(back());
        --size_;
        return v;
    }

    void
    clear()
    {
        while (!empty())
            pop_front();
        head_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const { return i >= cap_ ? i - cap_ : i; }

    T &
    slot_for_push()
    {
        if (size_ == cap_)
            grow();
        return buf_[wrap(head_ + size_++)];
    }

    /** Move out of @p slot, leaving it holding nothing. */
    static T
    take(T &slot)
    {
        T v = std::move(slot);
        if constexpr (!std::is_trivially_destructible_v<T>)
            slot = T();
        return v;
    }

    void
    grow()
    {
        auto bigger = std::make_unique<T[]>(2 * cap_);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        heap_ = std::move(bigger);
        buf_ = heap_.get();
        cap_ *= 2;
        head_ = 0;
    }

    T inline_[N]{};
    std::unique_ptr<T[]> heap_;
    T *buf_ = inline_;
    std::size_t cap_ = N;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dvs

#endif // DVS_SIM_INLINE_RING_H
