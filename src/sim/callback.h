// Small-buffer-optimized, move-only callables for the DES kernel and the
// layers that hand completions to it.
//
// Every timed action in the system is a `void()` closure pushed through the
// engine, and every fabric message ends in one `void(bool delivered)`
// completion.  With std::function the common capture sizes (two or three
// ids plus a pointer or a wrapped continuation — up to ~48 bytes across the
// sim, net, cache, and raid call sites) exceed libstdc++'s 16-byte inline
// buffer and heap-allocate on every Schedule.  sim::Function<Sig> is a
// move-only callable with 48 bytes of inline storage, so those captures
// never touch the heap; larger closures fall back to a single heap cell,
// which is still no worse than std::function.  sim::Callback is its
// `void()` case, the type every engine event carries.
//
// Intentional differences from std::function<Sig>:
//   - move-only (events and completions run exactly once; copyability is
//     what forces std::function to heap-allocate and what forces callers to
//     share move-only state through shared_ptr)
//   - wrapping an *empty* std::function or a null function pointer yields an
//     empty Function, so `if (cb)` tests keep their meaning across the
//     conversion boundary
//   - invoking an empty Function is undefined (the engine never does).
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace nlss::sim {

namespace detail {
template <typename T>
struct IsStdFunction : std::false_type {};
template <typename Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type {};
}  // namespace detail

template <typename Sig>
class Function;

template <typename R, typename... Args>
class Function<R(Args...)> {
 public:
  /// Largest capture stored inline (no heap).  Measured over the hot
  /// schedulers: cache flush/waiter wakeups, net transit hops, raid stripe
  /// completions all fit.
  static constexpr std::size_t kInlineBytes = 48;

  Function() noexcept = default;
  Function(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Function> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  Function(F&& f) {  // NOLINT(google-explicit-constructor)
    // An empty std::function or null function pointer converts to an empty
    // Function, not a callable that throws/crashes when invoked.
    if constexpr (detail::IsStdFunction<Fn>::value) {
      if (!f) return;
    } else if constexpr (std::is_pointer_v<Fn> || std::is_member_pointer_v<Fn>) {
      if (f == nullptr) return;
    }
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Boxed<Fn>(new Fn(std::forward<F>(f)));
      ops_ = &kOps<Boxed<Fn>, /*kInline=*/false>;
    }
  }

  Function(Function&& other) noexcept { MoveFrom(other); }
  Function& operator=(Function&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Function& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;
  ~Function() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

  /// True when the wrapped callable lives in the inline buffer (empty
  /// callables count as inline).  Exposed for tests and allocation audits.
  bool is_inline() const noexcept { return ops_ == nullptr || ops_->inline_storage; }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*relocate)(unsigned char* from, unsigned char* to);  // destructive
    void (*destroy)(unsigned char*);
    bool inline_storage;
  };

  /// A closure too large (or too throwy to move) for the buffer lives in one
  /// heap cell; the buffer holds this owning pointer to it.
  template <typename Fn>
  struct Boxed {
    Fn* fn;
    explicit Boxed(Fn* f) : fn(f) {}
    Boxed(Boxed&& other) noexcept : fn(std::exchange(other.fn, nullptr)) {}
    ~Boxed() { delete fn; }
    decltype(auto) operator()(Args&&... args) {
      return std::invoke(*fn, std::forward<Args>(args)...);
    }
  };

  template <typename Fn>
  static Fn* Get(unsigned char* b) {
    return std::launder(reinterpret_cast<Fn*>(b));
  }

  // static_cast<R>: a `void` signature discards what the callable returns.
  template <typename Fn, bool kInline = true>
  static constexpr Ops kOps = {
      [](unsigned char* b, Args&&... args) -> R {
        return static_cast<R>(
            std::invoke(*Get<Fn>(b), std::forward<Args>(args)...));
      },
      [](unsigned char* from, unsigned char* to) {
        ::new (static_cast<void*>(to)) Fn(std::move(*Get<Fn>(from)));
        Get<Fn>(from)->~Fn();
      },
      [](unsigned char* b) { Get<Fn>(b)->~Fn(); },
      /*inline_storage=*/kInline,
  };

  void MoveFrom(Function& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Pointer-aligned, not max_align_t: closure captures are ids, pointers,
  // and nested Functions, and 8-byte alignment keeps sizeof(Function) at 56
  // so Event can fit it plus a link in one cache line.  An over-aligned
  // capture (none exist today) would fall back to the heap cell.
  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The engine's event type: one timed `void()` action.
using Callback = Function<void()>;
static_assert(sizeof(Callback) == 56, "one cache line minus a link pointer");

}  // namespace nlss::sim
