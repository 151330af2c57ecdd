#include "common/isa.hpp"

namespace rltherm {

bool hostHasAvx2() noexcept {
#if defined(__x86_64__)
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return kHas;
#else
  return false;
#endif
}

bool hostHasAvx512() noexcept {
#if defined(__x86_64__)
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return kHas;
#else
  return false;
#endif
}

}  // namespace rltherm
