/**
 * @file
 * InlineCallback: a move-only, type-erased `void()` callable that
 * stores its target inside the object — never on the heap.
 *
 * std::function is the wrong tool for the event hot path: libstdc++'s
 * small-buffer is 16 bytes, so any capture holding a Message (~80
 * bytes) heap-allocates on schedule() and frees on execute — two
 * malloc-lock round trips per simulated hop. InlineCallback trades
 * generality for a hard guarantee: the capture either fits the inline
 * buffer or the callsite fails to compile (static_assert), so the
 * per-event allocation count is provably zero.
 *
 * Design: a single ops-table pointer (invoke / relocate / destroy)
 * plus an aligned byte buffer. Relocate is a move-construct + destroy
 * pair, so moving an InlineCallback moves the capture by value —
 * cheap for the POD-ish captures the simulator uses. The capture type
 * must be nothrow-move-constructible so queue growth can never throw
 * mid-rebalance.
 */

#ifndef MACROSIM_SIM_INLINE_CALLBACK_HH
#define MACROSIM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace macrosim
{

class InlineCallback
{
  public:
    /** Inline capture budget. Sized for the fattest in-tree capture:
     *  two_phase's [this, Message, Tick, Tick] slot callback (104
     *  bytes), with one pointer of headroom. Grow it if a callsite's
     *  static_assert fires — but measure first; every cell of the
     *  plain-event arena carries this many bytes. */
    static constexpr std::size_t inlineCapacity = 112;
    static constexpr std::size_t inlineAlign = alignof(std::max_align_t);

    constexpr InlineCallback() noexcept = default;
    constexpr InlineCallback(std::nullptr_t) noexcept {}

    /** Wrap any callable whose state fits the inline buffer. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                  InlineCallback> &&
                  std::is_invocable_r_v<void,
                                        std::remove_reference_t<F> &>>>
    InlineCallback(F &&fn) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::remove_cv_t<std::remove_reference_t<F>>;
        static_assert(sizeof(Fn) <= inlineCapacity,
                      "capture too large for InlineCallback's inline "
                      "buffer; shrink the capture (index/pointer "
                      "instead of by-value state) or, as a last "
                      "resort, grow inlineCapacity");
        static_assert(alignof(Fn) <= inlineAlign,
                      "capture over-aligned for InlineCallback");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "capture must be nothrow-move-constructible");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        /*invoke=*/[](void *self) { (*static_cast<Fn *>(self))(); },
        /*relocate=*/
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        /*destroy=*/
        [](void *self) noexcept { static_cast<Fn *>(self)->~Fn(); },
    };

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(inlineAlign) std::byte buf_[inlineCapacity];
    const Ops *ops_ = nullptr;
};

} // namespace macrosim

#endif // MACROSIM_SIM_INLINE_CALLBACK_HH
