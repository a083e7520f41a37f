#include "ec/gf256.hpp"

#include <cstdio>
#include <cstring>

namespace nadfs::ec {

namespace {

constexpr unsigned kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

// __builtin_cpu_supports requires a string literal argument.
#if defined(__x86_64__) || defined(__i386__)
#define NADFS_CPU_HAS(feature) (__builtin_cpu_supports(feature) != 0)
#else
#define NADFS_CPU_HAS(feature) false
#endif

}  // namespace

bool Gf256::kernel_supported(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return true;
    case Kernel::kSsse3:
#ifdef NADFS_GF_BUILD_SSSE3
      return NADFS_CPU_HAS("ssse3");
#else
      return false;
#endif
    case Kernel::kAvx2:
#ifdef NADFS_GF_BUILD_AVX2
      return NADFS_CPU_HAS("avx2");
#else
      return false;
#endif
    case Kernel::kGfni:
#ifdef NADFS_GF_BUILD_GFNI
      return NADFS_CPU_HAS("gfni") && NADFS_CPU_HAS("avx512f") && NADFS_CPU_HAS("avx512bw");
#else
      return false;
#endif
  }
  return false;
}

const char* Gf256::kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kGfni:
      return "gfni";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kSsse3:
      return "ssse3";
    case Kernel::kScalar:
      return "scalar";
  }
  return "scalar";
}

Gf256::Gf256(Kernel forced) {
  build_tables();
  select_kernel(forced);
}

void Gf256::build_tables() {
  // Build exp/log tables from the generator 2 (primitive for 0x11D).
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  log_[0] = 0;  // undefined; never consulted for zero operands

  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        mul_[a][b] = 0;
      } else {
        mul_[a][b] = exp_[(log_[a] + log_[b]) % 255];
      }
    }
  }

  inv_[0] = 0;
  for (unsigned a = 1; a < 256; ++a) {
    inv_[a] = exp_[(255 - log_[a]) % 255];
  }

  // Half-byte split tables for every coefficient, derived from the full
  // table so they are bit-exact with it by construction.
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned n = 0; n < 16; ++n) {
      split_lo_[c][n] = mul_[c][n];
      split_hi_[c][n] = mul_[c][n << 4];
    }
  }

  // gf2p8affineqb matrices: y = c * x is GF(2)-linear in the bits of x, so
  // matrix column j is the field element c * x^j (taken straight from the
  // verified mul table); gf2p8affineqb expects row i in byte 7-i, with row
  // bit j selecting source bit j.
  for (unsigned c = 0; c < 256; ++c) {
    std::uint64_t m = 0;
    for (unsigned j = 0; j < 8; ++j) {
      const std::uint8_t col = mul_[c][1u << j];
      for (unsigned i = 0; i < 8; ++i) {
        if (col & (1u << i)) m |= std::uint64_t{1} << ((7 - i) * 8 + j);
      }
    }
    affine_[c] = m;
  }
}

void Gf256::select_kernel(Kernel forced) {
  // Candidate ladder, best tier first, from the forced tier down; a tier
  // that is unsupported (or fails its self-check) falls through to the next
  // supported one, so the instance is always usable and kernel() reports
  // what actually runs.
  const Kernel ladder[] = {Kernel::kGfni, Kernel::kAvx2, Kernel::kSsse3, Kernel::kScalar};
  for (const Kernel k : ladder) {
    if (k > forced || !kernel_supported(k)) continue;
    kernel_ = k;
    switch (k) {
#ifdef NADFS_GF_BUILD_GFNI
      case Kernel::kGfni:
        mul_add_fn_ = kernels::mul_add_gfni;
        mul_into_fn_ = kernels::mul_into_gfni;
        break;
#endif
#ifdef NADFS_GF_BUILD_AVX2
      case Kernel::kAvx2:
        mul_add_fn_ = kernels::mul_add_avx2;
        mul_into_fn_ = kernels::mul_into_avx2;
        break;
#endif
#ifdef NADFS_GF_BUILD_SSSE3
      case Kernel::kSsse3:
        mul_add_fn_ = kernels::mul_add_ssse3;
        mul_into_fn_ = kernels::mul_into_ssse3;
        break;
#endif
      default:
        kernel_ = Kernel::kScalar;
        mul_add_fn_ = nullptr;
        mul_into_fn_ = nullptr;
        return;  // scalar needs no self-check: it IS the reference
    }
    // Paranoia pays once at startup: a tier that disagrees with the scalar
    // table path on the probe sweep is skipped and the ladder continues.
    if (kernel_matches_scalar()) return;
    std::fprintf(stderr, "gf256: %s kernel failed self-check, stepping down\n",
                 kernel_name(k));
  }
  kernel_ = Kernel::kScalar;
  mul_add_fn_ = nullptr;
  mul_into_fn_ = nullptr;
}

bool Gf256::kernel_matches_scalar() const {
  // Probe every length 0..64, so each ragged tail of the 16-, 32- and
  // 64-byte vector tiers is checked, plus two multi-vector lengths;
  // coefficients cover the identity, the generator, the reduction
  // constant, and a spread of arbitrary values. The fused multi ops are
  // probed with m=3 over the same data.
  constexpr std::size_t kMax = 200;
  std::uint8_t src[kMax], word_dst[kMax], scalar_dst[kMax];
  std::uint32_t lcg = 0x12345678;
  std::size_t lengths[67];
  for (std::size_t i = 0; i <= 64; ++i) lengths[i] = i;
  lengths[65] = 127;
  lengths[66] = kMax;
  for (const std::size_t len : lengths) {
    for (const std::uint8_t coeff : {0x00, 0x01, 0x02, 0x1D, 0x53, 0x8E, 0xFF}) {
      for (std::size_t i = 0; i < len; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        src[i] = static_cast<std::uint8_t>(lcg >> 24);
        word_dst[i] = scalar_dst[i] = static_cast<std::uint8_t>(lcg >> 16);
      }
      mul_add({word_dst, len}, {src, len}, coeff);
      mul_add_scalar({scalar_dst, len}, {src, len}, coeff);
      if (std::memcmp(word_dst, scalar_dst, len) != 0) return false;
      mul_into({word_dst, len}, {src, len}, coeff);
      mul_into_scalar({scalar_dst, len}, {src, len}, coeff);
      if (std::memcmp(word_dst, scalar_dst, len) != 0) return false;
    }
    // Fused multi ops vs m independent scalar passes.
    constexpr unsigned kM = 3;
    const std::uint8_t coeffs[kM] = {0x01, 0x1D, 0xC3};
    std::uint8_t multi[kM][kMax], ref[kM][kMax];
    std::uint8_t* dsts[kM];
    for (unsigned i = 0; i < kM; ++i) {
      dsts[i] = multi[i];
      for (std::size_t j = 0; j < len; ++j) {
        lcg = lcg * 1664525u + 1013904223u;
        multi[i][j] = ref[i][j] = static_cast<std::uint8_t>(lcg >> 24);
      }
    }
    mul_add_multi(dsts, coeffs, kM, {src, len});
    for (unsigned i = 0; i < kM; ++i) {
      mul_add_scalar({ref[i], len}, {src, len}, coeffs[i]);
      if (std::memcmp(multi[i], ref[i], len) != 0) return false;
    }
    mul_into_multi(dsts, coeffs, kM, {src, len});
    for (unsigned i = 0; i < kM; ++i) {
      mul_into_scalar({ref[i], len}, {src, len}, coeffs[i]);
      if (std::memcmp(multi[i], ref[i], len) != 0) return false;
    }
  }
  return true;
}

const Gf256& Gf256::instance() {
  // The top of the ladder: the best tier this host supports.
  static const Gf256 gf(Kernel::kGfni);
  return gf;
}

std::uint8_t Gf256::pow(std::uint8_t a, unsigned e) const {
  if (e == 0) return 1;
  if (a == 0) return 0;
  return exp_[(static_cast<unsigned>(log_[a]) * e) % 255];
}

void Gf256::mul_add(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const {
  if (mul_add_fn_ == nullptr) {
    mul_add_scalar(dst, src, coeff);
    return;
  }
  const std::size_t n = std::min(dst.size(), src.size());
  mul_add_fn_(coeff_ctx(coeff), dst.data(), src.data(), n);
}

void Gf256::mul_into(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const {
  if (mul_into_fn_ == nullptr) {
    mul_into_scalar(dst, src, coeff);
    return;
  }
  const std::size_t n = std::min(dst.size(), src.size());
  mul_into_fn_(coeff_ctx(coeff), dst.data(), src.data(), n);
}

void Gf256::mul_add_multi(std::uint8_t* const* dsts, const std::uint8_t* coeffs, unsigned m,
                          ByteSpan src) const {
  const std::size_t n = src.size();
  for (std::size_t off = 0; off < n; off += kFuseBlockBytes) {
    const std::size_t len = std::min(kFuseBlockBytes, n - off);
    for (unsigned i = 0; i < m; ++i) {
      if (mul_add_fn_ != nullptr) {
        mul_add_fn_(coeff_ctx(coeffs[i]), dsts[i] + off, src.data() + off, len);
      } else {
        mul_add_scalar({dsts[i] + off, len}, src.subspan(off, len), coeffs[i]);
      }
    }
  }
}

void Gf256::mul_into_multi(std::uint8_t* const* dsts, const std::uint8_t* coeffs, unsigned m,
                           ByteSpan src) const {
  const std::size_t n = src.size();
  for (std::size_t off = 0; off < n; off += kFuseBlockBytes) {
    const std::size_t len = std::min(kFuseBlockBytes, n - off);
    for (unsigned i = 0; i < m; ++i) {
      if (mul_into_fn_ != nullptr) {
        mul_into_fn_(coeff_ctx(coeffs[i]), dsts[i] + off, src.data() + off, len);
      } else {
        mul_into_scalar({dsts[i] + off, len}, src.subspan(off, len), coeffs[i]);
      }
    }
  }
}

void Gf256::mul_add_scalar(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const {
  const auto& row = mul_[coeff];
  const std::size_t n = std::min(dst.size(), src.size());
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
  }
}

void Gf256::mul_into_scalar(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const {
  const auto& row = mul_[coeff];
  const std::size_t n = std::min(dst.size(), src.size());
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = row[src[i]];
  }
}

}  // namespace nadfs::ec
