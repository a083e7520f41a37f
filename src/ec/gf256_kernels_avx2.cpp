// AVX2 GF(2^8) region kernels: the SSSE3 split-table scheme widened to
// 32-byte lanes. vpshufb shuffles within each 128-bit lane independently,
// so broadcasting the 16-entry table to both lanes gives 32 nibble lookups
// per instruction with no cross-lane fixup. Compiled with -mavx2; only
// entered after the dispatcher's CPUID check.
#include "ec/gf256_kernels.hpp"

#include <immintrin.h>

namespace nadfs::ec::kernels {

namespace {

inline __m256i broadcast_table(const std::uint8_t* t) {
  const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t));
  return _mm256_broadcastsi128_si256(x);
}

}  // namespace

void mul_add_avx2(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t n) {
  const __m256i tlo = broadcast_table(c.lo);
  const __m256i thi = broadcast_table(c.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i l = _mm256_and_si256(v, mask);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    const __m256i p =
        _mm256_xor_si256(_mm256_shuffle_epi8(tlo, l), _mm256_shuffle_epi8(thi, h));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, p));
  }
  for (; i < n; ++i) dst[i] ^= split_mul(c, src[i]);
}

void mul_into_avx2(const CoeffCtx& c, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n) {
  const __m256i tlo = broadcast_table(c.lo);
  const __m256i thi = broadcast_table(c.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i l = _mm256_and_si256(v, mask);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    const __m256i p =
        _mm256_xor_si256(_mm256_shuffle_epi8(tlo, l), _mm256_shuffle_epi8(thi, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  for (; i < n; ++i) dst[i] = split_mul(c, src[i]);
}

}  // namespace nadfs::ec::kernels
