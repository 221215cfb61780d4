/**
 * @file
 * Move-only `void()` callable stored inline, with no heap fallback.
 *
 * The event queue keeps one of these in every slot. Almost every event
 * captures `[this]` or `[this, id]`, so a fixed buffer holds every
 * callback the simulator schedules and `schedule()` never allocates. A
 * capture that does not fit is rejected at compile time rather than
 * spilled to the heap: there is one storage path and no size knob.
 *
 * A trivially copyable capture (`[this]`, `[this, id]`: nearly every
 * event) is relocated with a memcpy of the buffer and needs no
 * destructor call, so moving one out of its slot at dispatch and
 * dropping it afterwards cost no indirect calls. Other captures keep
 * type-erased relocate and destroy functions.
 */

#ifndef DVS_SIM_INLINE_CALLBACK_H
#define DVS_SIM_INLINE_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dvs {

/** A move-only `void()` callable held in 64 bytes of inline storage. */
class InlineCallback
{
  public:
    /** Bytes of capture storage; a larger callable does not compile. */
    static constexpr std::size_t kCapacity = 64;

    InlineCallback() noexcept = default;

    /** Store @p fn by value (moved or copied in, never heap-allocated). */
    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                       std::is_invocable_r_v<void, D &>>>
    InlineCallback(F &&fn)
    {
        emplace<D>(std::forward<F>(fn));
    }

    InlineCallback(InlineCallback &&o) noexcept { take(o); }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    /** Replace the stored callable, building @p fn in place. */
    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                       std::is_invocable_r_v<void, D &>>>
    InlineCallback &
    operator=(F &&fn)
    {
        reset();
        emplace<D>(std::forward<F>(fn));
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /** Invoke the stored callable. @pre it holds one. */
    void operator()() { ops_->invoke(buf_); }

    /** Destroy the stored callable (its captures), leaving this empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /**
     * Type-erased operations. `relocate` and `destroy` are null for a
     * trivially copyable capture: it relocates as bytes and has nothing
     * to destroy.
     */
    struct Ops {
        void (*invoke)(void *);
        /** Move-construct into dst and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <class D>
    static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;

    template <class D>
    static constexpr Ops kOps = {
        [](void *p) { (*static_cast<D *>(p))(); },
        kTrivial<D> ? nullptr
                    : +[](void *dst, void *src) noexcept {
                          ::new (dst) D(std::move(*static_cast<D *>(src)));
                          static_cast<D *>(src)->~D();
                      },
        kTrivial<D> ? nullptr
                    : +[](void *p) noexcept { static_cast<D *>(p)->~D(); },
    };

    template <class D, class F>
    void
    emplace(F &&fn)
    {
        static_assert(sizeof(D) <= kCapacity,
                      "event callback capture exceeds the 64-byte inline "
                      "storage; capture a pointer to the state instead");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "event callback capture is over-aligned");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event callbacks must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
        ops_ = &kOps<D>;
    }

    void
    take(InlineCallback &o) noexcept
    {
        if (o.ops_) {
            if (o.ops_->relocate)
                o.ops_->relocate(buf_, o.buf_);
            else
                std::memcpy(buf_, o.buf_, kCapacity);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kCapacity];
    const Ops *ops_ = nullptr;
};

} // namespace dvs

#endif // DVS_SIM_INLINE_CALLBACK_H
