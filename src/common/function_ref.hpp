// A non-owning reference to a callable, for per-call callbacks on hot paths.
//
// FunctionRef<R(Args...)> holds a pointer to the callable (or the function
// pointer itself) and a pointer to a thunk that invokes it: binding one never
// allocates and calling one is a single indirect call, where std::function
// may allocate and adds its own dispatch. The callable must outlive the
// reference, which suits a parameter bound to a lambda at the call site.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace rltherm {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Binds a callable object (a lambda, a functor).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             !std::is_function_v<std::remove_reference_t<F>> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept
      : target_{.object = const_cast<void*>(static_cast<const void*>(std::addressof(f)))},
        call_([](Target t, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<std::remove_reference_t<F>>>(t.object))(
              std::forward<Args>(args)...);
        }) {}

  /// Binds a plain function.
  FunctionRef(R (*function)(Args...)) noexcept
      : target_{.function = function},
        call_([](Target t, Args... args) -> R { return t.function(std::forward<Args>(args)...); }) {}

  R operator()(Args... args) const { return call_(target_, std::forward<Args>(args)...); }

 private:
  union Target {
    void* object;
    R (*function)(Args...);
  };
  Target target_;
  R (*call_)(Target, Args...);
};

}  // namespace rltherm
