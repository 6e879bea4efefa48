#pragma once

/// \file simd_tiers.hpp
/// Runs a test body once per SIMD kernel tier, for the suites that check
/// every tier against a scalar oracle.

#include <gtest/gtest.h>

#include "compress/kernels.hpp"
#include "compress/simd.hpp"

namespace dlcomp {

/// Runs `body` once per SIMD tier this host can actually execute,
/// restoring the environment-resolved dispatch afterwards. Tiers the
/// host or build lacks are skipped, not failed: the scalar tier always
/// runs, so the differential coverage never silently vanishes.
template <typename Body>
void for_each_available_isa(const Body& body) {
  const simd::Isa original = kernels::dispatched_isa();
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!kernels::force_isa_for_testing(isa)) continue;
    SCOPED_TRACE(simd::isa_name(isa));
    body(isa);
  }
  ASSERT_TRUE(kernels::force_isa_for_testing(original));
}

}  // namespace dlcomp
