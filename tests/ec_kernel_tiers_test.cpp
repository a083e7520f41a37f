// GF(2^8) kernel-tier coverage (PR 3):
//
//  - every compiled+supported tier (ssse3/avx2/gfni), constructed as a
//    private Gf256 instance, is bit-exact against the scalar table path on
//    odd/unaligned region lengths, including the fused multi ops: every
//    region op ReedSolomon calls, on every tier this host runs;
//  - randomized Reed-Solomon encode/decode round-trips across edge shapes
//    (k=1, m=1, k+m=256) and ragged lengths (1..257 B);
//  - a pinned FNV-1a digest of encode output, so a kernel-tier change can
//    never silently alter encoded bytes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"

namespace nadfs::ec {
namespace {

constexpr Gf256::Kernel kAllTiers[] = {Gf256::Kernel::kScalar, Gf256::Kernel::kSsse3,
                                       Gf256::Kernel::kAvx2, Gf256::Kernel::kGfni};

std::uint64_t fnv1a(std::uint64_t h, ByteSpan bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

Bytes seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

TEST(EcKernelTiers, SupportedTiersSelectExactly) {
  // A supported tier, explicitly forced, must select itself (its startup
  // self-check passing); an unsupported tier must fall down the ladder to
  // something that runs.
  for (const auto tier : kAllTiers) {
    const auto gf = std::make_unique<Gf256>(tier);
    if (Gf256::kernel_supported(tier)) {
      EXPECT_EQ(gf->kernel(), tier) << Gf256::kernel_name(tier);
    } else {
      std::printf("NOTICE: GF tier '%s' unsupported on this host/build, fallback '%s'\n",
                  Gf256::kernel_name(tier), gf->kernel_name());
      EXPECT_NE(gf->kernel(), tier);
    }
  }
}

TEST(EcKernelTiers, EveryTierBitExactOnOddUnalignedRegions) {
  // All lengths 1..257 x alignment offsets 0..3, random coefficients —
  // straddles every vector width (16/32/64) with ragged heads and tails.
  const auto scalar = std::make_unique<Gf256>(Gf256::Kernel::kScalar);
  for (const auto tier : kAllTiers) {
    if (!Gf256::kernel_supported(tier)) continue;
    const auto gf = std::make_unique<Gf256>(tier);
    Rng rng(0xBEEF ^ static_cast<std::uint64_t>(tier));
    for (std::size_t len = 1; len <= 257; ++len) {
      for (std::size_t align = 0; align < 4; align += (len < 40 ? 1 : 3)) {
        const auto coeff = rng.next_byte();
        Bytes src_buf = seeded_bytes(len + align, rng.next());
        Bytes dst_buf = seeded_bytes(len + align, rng.next());
        Bytes ref_buf = dst_buf;
        const ByteSpan src(src_buf.data() + align, len);
        const MutByteSpan dst(dst_buf.data() + align, len);
        const MutByteSpan ref(ref_buf.data() + align, len);

        gf->mul_add(dst, src, coeff);
        scalar->mul_add_scalar(ref, src, coeff);
        ASSERT_EQ(dst_buf, ref_buf) << "mul_add tier=" << gf->kernel_name() << " len=" << len
                                    << " align=" << align << " coeff=" << unsigned(coeff);

        gf->mul_into(dst, src, coeff);
        scalar->mul_into_scalar(ref, src, coeff);
        ASSERT_EQ(dst_buf, ref_buf) << "mul_into tier=" << gf->kernel_name() << " len=" << len
                                    << " align=" << align << " coeff=" << unsigned(coeff);
      }
    }
  }
}

TEST(EcKernelTiers, FusedMultiMatchesPerCoefficientAllTiers) {
  // The fused region-blocked multi ops must equal m independent scalar
  // passes for every tier, across block boundaries (lengths straddling
  // Gf256::kFuseBlockBytes) and m from 1 to 8.
  const auto scalar = std::make_unique<Gf256>(Gf256::Kernel::kScalar);
  const std::size_t lens[] = {1,    7,    64,   257,  2048, Gf256::kFuseBlockBytes - 1,
                              Gf256::kFuseBlockBytes, Gf256::kFuseBlockBytes + 1,
                              3 * Gf256::kFuseBlockBytes + 13};
  for (const auto tier : kAllTiers) {
    if (!Gf256::kernel_supported(tier)) continue;
    const auto gf = std::make_unique<Gf256>(tier);
    Rng rng(0xF00D ^ static_cast<std::uint64_t>(tier));
    for (const std::size_t len : lens) {
      for (unsigned m = 1; m <= 8; m += 3) {
        const Bytes src = seeded_bytes(len, rng.next());
        std::vector<std::uint8_t> coeffs(m);
        for (auto& c : coeffs) c = rng.next_byte();
        std::vector<Bytes> got(m), ref(m);
        std::vector<std::uint8_t*> dsts(m);
        for (unsigned i = 0; i < m; ++i) {
          got[i] = seeded_bytes(len, 77 + i);
          ref[i] = got[i];
          dsts[i] = got[i].data();
        }
        gf->mul_add_multi(dsts.data(), coeffs.data(), m, src);
        for (unsigned i = 0; i < m; ++i) {
          scalar->mul_add_scalar(ref[i], src, coeffs[i]);
          ASSERT_EQ(got[i], ref[i]) << "mul_add_multi tier=" << gf->kernel_name()
                                    << " len=" << len << " m=" << m << " i=" << i;
        }
        gf->mul_into_multi(dsts.data(), coeffs.data(), m, src);
        for (unsigned i = 0; i < m; ++i) {
          scalar->mul_into_scalar(ref[i], src, coeffs[i]);
          ASSERT_EQ(got[i], ref[i]) << "mul_into_multi tier=" << gf->kernel_name()
                                    << " len=" << len << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

struct Shape {
  unsigned k, m;
};

TEST(EcRoundTrip, RandomizedAcrossEdgeShapesAndRaggedLengths) {
  // Encode/decode property test on the shapes the satellite calls out:
  // k=1 (parity-only redundancy), m=1 (single parity), and k+m=256 (the
  // field-size limit), plus the paper's RS(3,2)/RS(6,3)/RS(10,4); chunk
  // lengths are odd/unaligned (1..257 B), on the best supported tier.
  const Shape shapes[] = {{1, 1}, {1, 4}, {5, 1}, {3, 2}, {6, 3}, {10, 4}, {252, 4}, {1, 255}};
  Rng rng(20260807);
  for (const auto [k, m] : shapes) {
    ReedSolomon rs(k, m);
    for (const std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{127},
                                  std::size_t{129}, std::size_t{257}}) {
      std::vector<Bytes> data(k);
      for (auto& d : data) d = seeded_bytes(len, rng.next());
      const auto parity = rs.encode(data);
      ASSERT_EQ(parity.size(), m);

      // Erase up to m random chunks, decode from a random surviving k-set.
      std::vector<unsigned> idx(k + m);
      for (unsigned i = 0; i < k + m; ++i) idx[i] = i;
      for (unsigned i = static_cast<unsigned>(idx.size()) - 1; i > 0; --i) {
        std::swap(idx[i], idx[rng.next_below(i + 1)]);
      }
      std::vector<std::pair<unsigned, Bytes>> present;
      for (unsigned i = 0; i < k; ++i) {
        const unsigned which = idx[i];
        present.emplace_back(which, which < k ? data[which] : parity[which - k]);
      }
      const auto out = rs.decode(present);
      ASSERT_TRUE(out.has_value()) << "k=" << k << " m=" << m << " len=" << len;
      EXPECT_EQ(*out, data) << "k=" << k << " m=" << m << " len=" << len;
    }
  }
}

TEST(EcRoundTrip, IntermediateFusedPathMatchesFullEncode) {
  // encode_intermediate_into (the zero-copy handler path) aggregated across
  // data nodes must equal the fused full encode, on a ragged length.
  ReedSolomon rs(6, 3);
  Rng rng(99);
  std::vector<Bytes> data(6);
  for (auto& d : data) d = seeded_bytes(2049, rng.next());
  const auto full = rs.encode(data);

  std::vector<Bytes> agg(3, Bytes(2049, 0));
  for (unsigned j = 0; j < 6; ++j) {
    std::vector<Bytes> inter(3, Bytes(2049));
    std::vector<std::uint8_t*> dsts(3);
    for (unsigned i = 0; i < 3; ++i) dsts[i] = inter[i].data();
    rs.encode_intermediate_into(j, data[j], dsts.data());
    for (unsigned i = 0; i < 3; ++i) ReedSolomon::aggregate(agg[i], inter[i]);
  }
  EXPECT_EQ(agg, full);
}

TEST(EcDigestPin, EncodeOutputBytesArePinned) {
  // FNV-1a digests of encode output for fixed seeds, recorded from the
  // scalar reference path. An encode-loop restructuring that alters any
  // output byte fails here; EcKernelTiers.* pin every tier to scalar.
  struct Pin {
    unsigned k, m;
    std::size_t len;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {3, 2, 257, 0xca2867d94690aa62ull},
      {6, 3, 2048, 0x5f22c370d07ffa43ull},
      {10, 4, 2049, 0x32b8e2b1db646488ull},
  };
  for (const auto& pin : pins) {
    ReedSolomon rs(pin.k, pin.m);
    std::vector<Bytes> data(pin.k);
    for (unsigned j = 0; j < pin.k; ++j) {
      data[j] = seeded_bytes(pin.len, 0xD1CE5700 + j);
    }
    const auto parity = rs.encode(data);
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& p : parity) h = fnv1a(h, p);
    EXPECT_EQ(h, pin.digest) << "RS(" << pin.k << "," << pin.m << ") len=" << pin.len
                             << " kernel=" << Gf256::instance().kernel_name();
  }
}

}  // namespace
}  // namespace nadfs::ec
