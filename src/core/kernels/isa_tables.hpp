// Internal: per-ISA kernel-table factories. Each lives in its own
// translation unit so CMake can attach the matching -m flags; a variant
// whose ISA the compiler cannot target returns a null-filled table and the
// dispatcher (simd.cpp) clamps past it. Also holds the one piece of kernel
// logic every ISA shares verbatim: the subset kernel's winner rule.
#pragma once

#include "core/kernels/simd.hpp"

namespace knor::kernels::detail {

Ops scalar_ops();
Ops sse2_ops();
Ops avx2_ops();
Ops avx512_ops();

/// Winner rule of every ISA's Ops::nearest_subset: the smaller squared
/// distance wins; the incumbent `keep` wins every tie; among listed
/// candidates the lower id wins a tie, whatever the list order.
inline void offer_subset(value_t dist, cluster_t id, cluster_t keep,
                         cluster_t& best, value_t& best_sq) {
  // The leading `<=` is the only test on the common (losing) path, so the
  // hot loop costs what nearest_blocked's plain `<` does.
  if (dist <= best_sq &&
      (dist < best_sq || (best != keep && id < best))) {
    best_sq = dist;
    best = id;
  }
}

}  // namespace knor::kernels::detail
