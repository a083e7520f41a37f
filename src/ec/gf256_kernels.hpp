// Internal GF(2^8) region-kernel interface shared by the tier dispatcher
// (gf256.cpp) and the per-ISA translation units (gf256_kernels_*.cpp).
//
// Each SIMD tier lives in its own TU compiled with exactly the -m flags it
// needs (src/ec/CMakeLists.txt), so the rest of the build keeps the default
// architecture and the binary stays portable: a tier's code is only ever
// *executed* after a runtime CPUID check in the dispatcher.
//
// All kernels share one signature. The per-coefficient context carries both
// representations a tier might want:
//   - lo/hi: the two 16-entry half-byte split tables (ISA-L scheme), used by
//     SSSE3/AVX2 (pshufb/vpshufb nibble lookups);
//   - affine: the 8x8 GF(2) bit-matrix of "multiply by c" packed for
//     gf2p8affineqb (row i of the matrix in byte 7-i), used by the GFNI tier.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nadfs::ec::kernels {

struct CoeffCtx {
  const std::uint8_t* lo;  // lo[n] = c * n           (n in 0..15)
  const std::uint8_t* hi;  // hi[n] = c * (n << 4)
  std::uint64_t affine;    // gf2p8affineqb matrix for y = c * x
};

/// dst[i] ^= c * src[i] (add) or dst[i] = c * src[i] (into), n bytes.
using RegionFn = void (*)(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t n);

/// c * b through the split tables, one byte: the SSSE3 and AVX2 tiers
/// finish a region shorter than one vector with it.
inline std::uint8_t split_mul(const CoeffCtx& c, std::uint8_t b) {
  return static_cast<std::uint8_t>(c.lo[b & 0xF] ^ c.hi[b >> 4]);
}

// --------------------------------------------------- per-ISA tier kernels
//
// Declared unconditionally; defined only when the matching TU is compiled
// in (NADFS_GF_BUILD_* from CMake). The dispatcher references them behind
// the same #ifdefs, so a missing definition can never be linked.

#ifdef NADFS_GF_BUILD_SSSE3
void mul_add_ssse3(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
void mul_into_ssse3(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
#endif

#ifdef NADFS_GF_BUILD_AVX2
void mul_add_avx2(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
void mul_into_avx2(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
#endif

#ifdef NADFS_GF_BUILD_GFNI
void mul_add_gfni(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
void mul_into_gfni(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
#endif

}  // namespace nadfs::ec::kernels
