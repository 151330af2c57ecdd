// Host instruction-set probe for the runtime-dispatched kernels: the RC
// step kernel (thermal/rc_network.cpp) and the dense row kernels
// (common/matrix.cpp). Each of those files compiles its wide entry points
// with a `target` attribute and calls one only when the probe says the host
// can run it; the baseline entry point runs everywhere.
#pragma once

namespace rltherm {

/// True when the host runs AVX2 code. Probed on the first call, once per
/// process (a function-local static, so a caller in a static initializer of
/// another translation unit gets the real answer too); false off x86-64.
[[nodiscard]] bool hostHasAvx2() noexcept;

/// True when the host runs AVX-512F code; same probe rules as hostHasAvx2().
[[nodiscard]] bool hostHasAvx512() noexcept;

}  // namespace rltherm
