// Galois field GF(2^8) arithmetic with the AES/Reed-Solomon-conventional
// reduction polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
//
// The paper's EC handlers use a 256x256-byte multiplication lookup table
// copied into NIC memory at DFS-initialization time (§VI-B.2); we build the
// same table so handler byte loops do exactly one table load per byte.
//
// The *simulated* handler cost model charges exactly that byte-loop
// (DESIGN.md §3, Table II), but the host running the simulation does not
// have to execute it: region operations dispatch at runtime to a tiered
// kernel ladder
//
//   scalar -> SSSE3 (pshufb) -> AVX2 (vpshufb) -> AVX-512/GFNI
//   (gf2p8affineqb)
//
// selected once per instance via CPUID (best supported tier wins), each
// tier self-checked bit-exact against the scalar table path before use
// (DESIGN.md §3 kernel-tier table). Tests and benches pin a tier with
// Gf256(Kernel). The scalar path stays available as the cost-model
// reference and the fallback of last resort.
//
// On top of the per-coefficient ops, the fused multi-coefficient API
// (mul_add_multi / mul_into_multi) makes one region-blocked pass over a
// source chunk while updating all m parity buffers, so the RS encode inner
// loop reads each data chunk once instead of m times (ec/reed_solomon.cpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "ec/gf256_kernels.hpp"

namespace nadfs::ec {

class Gf256 {
 public:
  /// Which region-kernel tier `mul_add`/`mul_into` (and the fused multi
  /// ops) dispatch to; ordered worst to best. Picked at table-build time
  /// after a bit-exactness self-check against kScalar.
  enum class Kernel { kScalar, kSsse3, kAvx2, kGfni };

  /// Singleton table set (64 KiB mul table + log/exp + split/affine
  /// tables) on the best supported tier; immutable after init.
  static const Gf256& instance();

  /// True when `k` is both compiled in and supported by this CPU. kScalar
  /// is always available.
  static bool kernel_supported(Kernel k);

  /// "scalar", "ssse3", "avx2" or "gfni".
  static const char* kernel_name(Kernel k);

  /// Builds a private table set pinned to the given tier (tests/benches
  /// compare tiers in-process this way). Falls back down the ladder if the
  /// tier is unsupported or fails its self-check — check kernel() after
  /// construction. ~74 KiB of tables: heap-allocate instances.
  explicit Gf256(Kernel forced);

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const { return mul_[a][b]; }

  std::uint8_t add(std::uint8_t a, std::uint8_t b) const {
    return static_cast<std::uint8_t>(a ^ b);
  }

  /// Multiplicative inverse; inv(0) is undefined (returns 0).
  std::uint8_t inv(std::uint8_t a) const { return inv_[a]; }

  std::uint8_t div(std::uint8_t a, std::uint8_t b) const { return mul_[a][inv_[b]]; }

  std::uint8_t exp(unsigned e) const { return exp_[e % 255]; }
  std::uint8_t log(std::uint8_t a) const { return log_[a]; }

  std::uint8_t pow(std::uint8_t a, unsigned e) const;

  /// dst[i] ^= coeff * src[i] — the inner loop of RS encoding, shared by the
  /// host encoder and the sPIN payload handlers. Dispatches to kernel().
  void mul_add(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const;

  /// dst[i] = coeff * src[i]. Dispatches to kernel().
  void mul_into(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const;

  /// Fused multi-coefficient ops: dsts[i][0..n) (+)= coeffs[i] * src[0..n)
  /// for all i < m, in one region-blocked pass over src (blocks sized so
  /// the src block stays L1-resident across the m per-coefficient kernel
  /// applications). The m destination buffers must not overlap src or each
  /// other. mul_into_multi overwrites the destinations (no zero-fill
  /// needed beforehand).
  void mul_add_multi(std::uint8_t* const* dsts, const std::uint8_t* coeffs, unsigned m,
                     ByteSpan src) const;
  void mul_into_multi(std::uint8_t* const* dsts, const std::uint8_t* coeffs, unsigned m,
                      ByteSpan src) const;

  /// The byte-at-a-time 256x256-table paths the handler cost model charges
  /// (Table II); kept public so tests and benches can pin word-kernel
  /// equivalence and measure the speedup.
  void mul_add_scalar(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const;
  void mul_into_scalar(MutByteSpan dst, ByteSpan src, std::uint8_t coeff) const;

  Kernel kernel() const { return kernel_; }
  const char* kernel_name() const { return kernel_name(kernel_); }

  /// Size of the on-NIC multiplication table (resident in NIC L2, §VI-B.2).
  static constexpr std::size_t kTableBytes = 256 * 256;

  /// Region-block size of the fused multi ops: the src block is revisited
  /// m times from L1 instead of m times from memory.
  static constexpr std::size_t kFuseBlockBytes = 4096;

 private:
  void build_tables();
  void select_kernel(Kernel forced);
  bool kernel_matches_scalar() const;
  kernels::CoeffCtx coeff_ctx(std::uint8_t coeff) const {
    return {split_lo_[coeff].data(), split_hi_[coeff].data(), affine_[coeff]};
  }

  std::array<std::array<std::uint8_t, 256>, 256> mul_;
  std::array<std::uint8_t, 256> inv_;
  std::array<std::uint8_t, 255> exp_;
  std::array<std::uint8_t, 256> log_;
  /// Half-byte split tables per coefficient: split_lo_[c][n] = c * n and
  /// split_hi_[c][n] = c * (n << 4), so c * b = lo[b & 0xF] ^ hi[b >> 4].
  /// 8 KiB total; both tables for one coefficient live in a single cache
  /// line pair, so small (packet-sized) regions pay no warm-up.
  std::array<std::array<std::uint8_t, 16>, 256> split_lo_;
  std::array<std::array<std::uint8_t, 16>, 256> split_hi_;
  /// gf2p8affineqb bit-matrices per coefficient (GFNI tier): matrix column
  /// j is c * x^j, packed with row i in byte 7-i of the qword. 2 KiB.
  std::array<std::uint64_t, 256> affine_;
  Kernel kernel_ = Kernel::kScalar;
  kernels::RegionFn mul_add_fn_ = nullptr;   // null for kScalar
  kernels::RegionFn mul_into_fn_ = nullptr;  // null for kScalar
};

}  // namespace nadfs::ec
