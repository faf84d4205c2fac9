// SimCallback: the move-only `void()` callable the simulator stores per
// event. Captures up to kInlineSize bytes live inside the object, so the
// common callbacks (a `this` pointer plus a few ids or a generation) cost
// no heap allocation; larger captures fall back to one allocation, like
// std::function. Move-only captures (unique_ptr, moved buffers) are
// accepted, which std::function cannot hold.
#ifndef GRAPHTIDES_SIM_CALLBACK_H_
#define GRAPHTIDES_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace graphtides {

class SimCallback {
 public:
  /// Captures up to this size (and max_align_t alignment) are stored
  /// inline; 48 bytes keep the whole object at 64.
  static constexpr size_t kInlineSize = 48;

  SimCallback() noexcept = default;
  SimCallback(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  /// Wraps any `void()` callable. A callable that converts to false (an
  /// empty std::function, a null function pointer) yields an empty
  /// callback.
  template <typename F,
            typename T = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<T, SimCallback> &&
                                        std::is_invocable_r_v<void, T&>>>
  SimCallback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (std::is_constructible_v<bool, const T&>) {
      if (!static_cast<bool>(f)) return;
    }
    if constexpr (kStoredInline<T>) {
      ::new (static_cast<void*>(storage_)) T(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) T*(new T(std::forward<F>(f)));
    }
    ops_ = &kOps<T>;
  }

  SimCallback(SimCallback&& other) noexcept { MoveFrom(other); }
  SimCallback& operator=(SimCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  SimCallback(const SimCallback&) = delete;
  SimCallback& operator=(const SimCallback&) = delete;
  ~SimCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Calls the target; the callback must not be empty.
  void operator()() const { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the target into `to` and destroys it in `from`.
    void (*relocate)(void* to, void* from);
    void (*destroy)(void* storage);
  };

  template <typename T>
  static constexpr bool kStoredInline =
      sizeof(T) <= kInlineSize && alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static T& Target(void* storage) {
    if constexpr (kStoredInline<T>) {
      return *std::launder(static_cast<T*>(storage));
    } else {
      return **std::launder(static_cast<T**>(storage));
    }
  }

  template <typename T>
  static constexpr Ops kOps = {
      [](void* s) { Target<T>(s)(); },
      [](void* to, void* from) {
        if constexpr (kStoredInline<T>) {
          T& source = Target<T>(from);
          ::new (to) T(std::move(source));
          source.~T();
        } else {
          ::new (to) T*(&Target<T>(from));
        }
      },
      [](void* s) {
        if constexpr (kStoredInline<T>) {
          Target<T>(s).~T();
        } else {
          delete &Target<T>(s);
        }
      },
  };

  void MoveFrom(SimCallback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }
  void Reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) mutable unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_CALLBACK_H_
