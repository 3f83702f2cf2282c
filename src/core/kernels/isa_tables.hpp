// Internal: per-ISA kernel-table factories. Each lives in its own
// translation unit so CMake can attach the matching -m flags; a variant
// whose ISA the compiler cannot target returns a null-filled table and the
// dispatcher (simd.cpp) clamps past it.
#pragma once

#include "core/kernels/simd.hpp"

namespace knor::kernels::detail {

Ops scalar_ops();
Ops sse2_ops();
Ops avx2_ops();
Ops avx512_ops();

}  // namespace knor::kernels::detail
