/**
 * @file
 * Move-only callable stored inline, with no heap fallback.
 *
 * The event queue keeps an `InlineCallback` (a `void()` one) in every
 * slot, and the vsync distributor an `InlineFunction<void(const SwVsync
 * &), 32>` for every request. Almost every callback captures `[this]` or
 * `[this, id]`, so a fixed buffer holds every callable the simulator
 * stores and storing one never allocates. A capture that does not fit is
 * rejected at compile time rather than spilled to the heap: there is one
 * storage path and no size knob.
 *
 * A trivially copyable capture (`[this]`, `[this, id]`: nearly every
 * callback) is relocated with a memcpy of the buffer and needs no
 * destructor call, so moving one out of its slot and dropping it
 * afterwards cost no indirect calls. Other captures keep type-erased
 * relocate and destroy functions.
 */

#ifndef DVS_SIM_INLINE_CALLBACK_H
#define DVS_SIM_INLINE_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dvs {

template <class Signature, std::size_t Cap>
class InlineFunction;

/** A move-only `R(A...)` callable held in @p Cap bytes of inline storage. */
template <class R, class... A, std::size_t Cap>
class InlineFunction<R(A...), Cap>
{
    template <class F, class D = std::decay_t<F>>
    static constexpr bool kAccepts =
        !std::is_same_v<D, InlineFunction> &&
        std::is_invocable_r_v<R, D &, A...>;

  public:
    /** Bytes of capture storage; a larger callable does not compile. */
    static constexpr std::size_t kCapacity = Cap;

    InlineFunction() noexcept = default;

    /** Store @p fn by value (moved or copied in, never heap-allocated). */
    template <class F, class = std::enable_if_t<kAccepts<F>>>
    InlineFunction(F &&fn)
    {
        emplace<std::decay_t<F>>(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&o) noexcept { take(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    /** Replace the stored callable, building @p fn in place. */
    template <class F, class = std::enable_if_t<kAccepts<F>>>
    InlineFunction &
    operator=(F &&fn)
    {
        reset();
        emplace<std::decay_t<F>>(std::forward<F>(fn));
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Whether a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable. @pre it holds one. */
    R
    operator()(A... args)
    {
        return ops_->invoke(buf_, std::forward<A>(args)...);
    }

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
        R (*invoke)(void *, A...);
        /** Move-construct into dst and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <class D>
    static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;

    template <class D>
    static constexpr Ops kOps = {
        [](void *p, A... args) -> R {
            return (*static_cast<D *>(p))(std::forward<A>(args)...);
        },
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
                      "callback capture exceeds its inline storage; "
                      "capture a pointer to the state instead");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "callback capture is over-aligned");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "callbacks must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
        ops_ = &kOps<D>;
    }

    void
    take(InlineFunction &o) noexcept
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

/** The event queue's callback: a `void()` in 64 bytes. */
using InlineCallback = InlineFunction<void(), 64>;

} // namespace dvs

#endif // DVS_SIM_INLINE_CALLBACK_H
