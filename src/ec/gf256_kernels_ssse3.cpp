// SSSE3 GF(2^8) region kernels (ISA-L scheme): both 16-entry split tables
// fit in one xmm register each, and pshufb performs 16 nibble lookups per
// instruction. This TU is compiled with -mssse3 (src/ec/CMakeLists.txt) and
// only entered after the dispatcher's CPUID check.
#include "ec/gf256_kernels.hpp"

#include <immintrin.h>

namespace nadfs::ec::kernels {

void mul_add_ssse3(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n) {
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i l = _mm_and_si128(v, mask);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tlo, l), _mm_shuffle_epi8(thi, h));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  for (; i < n; ++i) dst[i] ^= split_mul(c, src[i]);
}

void mul_into_ssse3(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) {
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i l = _mm_and_si128(v, mask);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tlo, l), _mm_shuffle_epi8(thi, h));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  for (; i < n; ++i) dst[i] = split_mul(c, src[i]);
}

}  // namespace nadfs::ec::kernels
