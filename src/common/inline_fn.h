// InlineFunction<R(Args...)>: a copyable functor with inline storage, and
// InlineFn, its `void()` form.
//
// Drop-in replacement for `std::function` on the simulator hot path.
// Closures that satisfy kFitsInline (at most kInlineBytes, no stricter
// alignment than max_align_t, nothrow-movable) live inside the object — no
// heap allocation on construct, move, or copy. Other closures fall back to a
// single heap cell, exactly like std::function. Note that an InlineFn is
// itself larger than kInlineBytes, so a closure that captures one always
// spills: hot-path code keeps such state in pooled slots and captures only an
// index (see sim::Resource and net::Transport, which static_assert
// kFitsInline on their closures).
//
// Semantics mirror std::function:
//   * copyable (the transport's chaos duplicate path copies delivery
//     closures), movable, empty-testable;
//   * operator() is const but invokes the target as non-const, so `mutable`
//     lambdas work.
#ifndef URSA_COMMON_INLINE_FN_H_
#define URSA_COMMON_INLINE_FN_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ursa {

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Sized for the simulator's small hot-path closures (event delivery,
  // resource completions, RPC timeouts): a few pointers and scalars.
  static constexpr size_t kInlineBytes = 64;

  // Whether a closure of type F is stored inline (no heap cell). A
  // `const` capture (a by-copy capture of a const reference) has no nothrow
  // move when its type's copy can throw, and so does not fit.
  template <typename F, typename D = std::decay_t<F>>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(std::move(other)); }
  InlineFunction(const InlineFunction& other) { CopyFrom(other); }

  // Replaces the target with `f`, built in place: no temporary InlineFunction
  // and so no relocation of the closure.
  template <typename F, typename D = std::decay_t<F>>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<D, InlineFunction>) {
      *this = std::forward<F>(f);
    } else if constexpr (std::is_same_v<D, std::nullptr_t>) {
      Reset();
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  InlineFunction& operator=(const InlineFunction& other) {
    if (this != &other) {
      InlineFunction tmp(other);  // copy may throw; build aside first
      Reset();
      MoveFrom(std::move(tmp));
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  ~InlineFunction() { Reset(); }

  // Matches std::function: const call operator, non-const target invocation.
  R operator()(Args... args) const {
    return ops_->invoke(storage_.bytes, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  union Storage {
    alignas(std::max_align_t) mutable unsigned char bytes[kInlineBytes];
  };

  struct Ops {
    R (*invoke)(unsigned char* s, Args&&... args);
    // Move-constructs dst from src and destroys src.
    void (*relocate)(unsigned char* dst, unsigned char* src);
    void (*copy)(unsigned char* dst, const unsigned char* src);
    void (*destroy)(unsigned char* s);
  };

  template <typename D>
  static D* Target(unsigned char* s) {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static const D* Target(const unsigned char* s) {
    return std::launder(reinterpret_cast<const D*>(s));
  }

  template <typename D>
  struct InlineOps {
    static R Invoke(unsigned char* s, Args&&... args) {
      return (*Target<D>(s))(std::forward<Args>(args)...);
    }
    static void Relocate(unsigned char* dst, unsigned char* src) {
      ::new (dst) D(std::move(*Target<D>(src)));
      Target<D>(src)->~D();
    }
    static void Copy(unsigned char* dst, const unsigned char* src) {
      ::new (dst) D(*Target<D>(src));
    }
    static void Destroy(unsigned char* s) { Target<D>(s)->~D(); }
    static constexpr Ops ops{&Invoke, &Relocate, &Copy, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    using P = D*;
    static R Invoke(unsigned char* s, Args&&... args) {
      return (**Target<P>(s))(std::forward<Args>(args)...);
    }
    static void Relocate(unsigned char* dst, unsigned char* src) {
      ::new (dst) P(*Target<P>(src));
      Target<P>(src)->~P();
    }
    static void Copy(unsigned char* dst, const unsigned char* src) {
      ::new (dst) P(new D(**Target<P>(src)));
    }
    static void Destroy(unsigned char* s) {
      delete *Target<P>(s);
      Target<P>(s)->~P();
    }
    static constexpr Ops ops{&Invoke, &Relocate, &Copy, &Destroy};
  };

  template <typename F, typename D = std::decay_t<F>>
  void Construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (storage_.bytes) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (storage_.bytes) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void MoveFrom(InlineFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_.bytes, other.storage_.bytes);
      other.ops_ = nullptr;
    }
  }
  void CopyFrom(const InlineFunction& other) {
    if (other.ops_ != nullptr) {
      other.ops_->copy(storage_.bytes, other.storage_.bytes);
      ops_ = other.ops_;
    }
  }
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_.bytes);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  Storage storage_;
};

using InlineFn = InlineFunction<void()>;

}  // namespace ursa

#endif  // URSA_COMMON_INLINE_FN_H_
