#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"

namespace nadfs::ec {
namespace {

// ---------------------------------------------------------------- GF(2^8)

TEST(Gf256, AdditionIsXor) {
  const auto& gf = Gf256::instance();
  EXPECT_EQ(gf.add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf.add(0xFF, 0xFF), 0);
}

TEST(Gf256, MultiplicativeIdentity) {
  const auto& gf = Gf256::instance();
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf.mul(1, static_cast<std::uint8_t>(a)), a);
  }
}

TEST(Gf256, ZeroAnnihilates) {
  const auto& gf = Gf256::instance();
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf.mul(0, static_cast<std::uint8_t>(a)), 0);
  }
}

TEST(Gf256, MultiplicationCommutes) {
  const auto& gf = Gf256::instance();
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = rng.next_byte();
    const auto b = rng.next_byte();
    EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
  }
}

TEST(Gf256, MultiplicationAssociates) {
  const auto& gf = Gf256::instance();
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto a = rng.next_byte();
    const auto b = rng.next_byte();
    const auto c = rng.next_byte();
    EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
  }
}

TEST(Gf256, DistributesOverAddition) {
  const auto& gf = Gf256::instance();
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto a = rng.next_byte();
    const auto b = rng.next_byte();
    const auto c = rng.next_byte();
    EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
  }
}

TEST(Gf256, InverseIsInverse) {
  const auto& gf = Gf256::instance();
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), gf.inv(static_cast<std::uint8_t>(a))), 1)
        << "a=" << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  const auto& gf = Gf256::instance();
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto a = rng.next_byte();
    const auto b = static_cast<std::uint8_t>(rng.next_range(1, 255));
    EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
  }
}

TEST(Gf256, KnownProduct) {
  // 0x53 * 0xCA = 0x01 under polynomial 0x11B is the AES classic; under
  // 0x11D the product differs — cross-check against a slow bitwise model.
  const auto& gf = Gf256::instance();
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    unsigned r = 0;
    unsigned aa = a;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) r ^= aa << i;
    }
    // reduce modulo 0x11D
    for (int i = 15; i >= 8; --i) {
      if (r & (1u << i)) r ^= 0x11Du << (i - 8);
    }
    return static_cast<std::uint8_t>(r);
  };
  Rng rng(8);
  for (int i = 0; i < 4000; ++i) {
    const auto a = rng.next_byte();
    const auto b = rng.next_byte();
    EXPECT_EQ(gf.mul(a, b), slow_mul(a, b));
  }
}

TEST(Gf256, ExpLogConsistency) {
  const auto& gf = Gf256::instance();
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(gf.exp(gf.log(static_cast<std::uint8_t>(a))), a);
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  const auto& gf = Gf256::instance();
  std::uint8_t acc = 1;
  for (unsigned e = 0; e < 300; ++e) {
    EXPECT_EQ(gf.pow(3, e), acc) << "e=" << e;
    acc = gf.mul(acc, 3);
  }
}

TEST(Gf256, MulAddVector) {
  const auto& gf = Gf256::instance();
  Bytes dst{1, 2, 3, 4};
  const Bytes src{5, 6, 7, 8};
  Bytes expect = dst;
  for (std::size_t i = 0; i < 4; ++i) {
    expect[i] = static_cast<std::uint8_t>(expect[i] ^ gf.mul(0x1D, src[i]));
  }
  gf.mul_add(dst, src, 0x1D);
  EXPECT_EQ(dst, expect);
}

TEST(Gf256, WordKernelMatchesScalarOnRandomLengths) {
  // The region kernels (mul_add/mul_into) run on the best supported tier
  // (ssse3/avx2/gfni) while the cost model charges the scalar table loop;
  // they must be bit-exact. Sweep lengths across the 16/32/64-byte vector
  // boundaries, including ragged tails.
  const auto& gf = Gf256::instance();
  Rng rng(42);
  std::vector<std::size_t> lengths = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                      100, 1000, 2048, 2048 + 5};
  for (int i = 0; i < 30; ++i) lengths.push_back(rng.next_range(1, 5000));

  for (const std::size_t len : lengths) {
    const auto coeff = rng.next_byte();
    Bytes src(len), word_dst(len), scalar_dst(len);
    for (std::size_t j = 0; j < len; ++j) {
      src[j] = rng.next_byte();
      word_dst[j] = scalar_dst[j] = rng.next_byte();
    }
    gf.mul_add(word_dst, src, coeff);
    gf.mul_add_scalar(scalar_dst, src, coeff);
    ASSERT_EQ(word_dst, scalar_dst) << "mul_add len=" << len << " coeff=" << unsigned(coeff)
                                    << " kernel=" << gf.kernel_name();
    gf.mul_into(word_dst, src, coeff);
    gf.mul_into_scalar(scalar_dst, src, coeff);
    ASSERT_EQ(word_dst, scalar_dst) << "mul_into len=" << len << " coeff=" << unsigned(coeff)
                                    << " kernel=" << gf.kernel_name();
  }
}

TEST(Gf256, WordKernelAllCoefficients) {
  // Every coefficient (split-table row) against the scalar path on a span
  // that exercises both the vector body and a ragged tail.
  const auto& gf = Gf256::instance();
  Rng rng(43);
  Bytes src(67);
  for (auto& b : src) b = rng.next_byte();
  for (unsigned c = 0; c < 256; ++c) {
    Bytes word_dst(src.size()), scalar_dst(src.size());
    for (std::size_t j = 0; j < src.size(); ++j) {
      word_dst[j] = scalar_dst[j] = rng.next_byte();
    }
    const auto coeff = static_cast<std::uint8_t>(c);
    gf.mul_add(word_dst, src, coeff);
    gf.mul_add_scalar(scalar_dst, src, coeff);
    ASSERT_EQ(word_dst, scalar_dst) << "coeff=" << c;
  }
}

TEST(Gf256, MulAddHonorsShorterSpan) {
  // Region ops clamp to min(dst, src) regardless of kernel.
  const auto& gf = Gf256::instance();
  Bytes src(32, 0xAB);
  Bytes dst(20, 0x01);
  Bytes expect = dst;
  gf.mul_add_scalar(expect, ByteSpan(src).first(20), 0x37);
  gf.mul_add(dst, src, 0x37);
  EXPECT_EQ(dst, expect);
}

// ----------------------------------------------------------- ReedSolomon

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(0, 1), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(1, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomon(200, 56));
}

TEST(ReedSolomon, SystematicIdentity) {
  // Data chunks pass through unchanged: decode with only the data chunks
  // present returns them verbatim.
  ReedSolomon rs(3, 2);
  Rng rng(10);
  std::vector<Bytes> data(3, Bytes(64));
  for (auto& d : data) {
    for (auto& b : d) b = rng.next_byte();
  }
  std::vector<std::pair<unsigned, Bytes>> present;
  for (unsigned i = 0; i < 3; ++i) present.emplace_back(i, data[i]);
  auto out = rs.decode(present);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, ParityIsDeterministic) {
  ReedSolomon rs(4, 2);
  std::vector<Bytes> data(4, Bytes(128, 0x77));
  const auto p1 = rs.encode(data);
  const auto p2 = rs.encode(data);
  EXPECT_EQ(p1, p2);
}

TEST(ReedSolomon, EncodeRequiresEqualChunks) {
  ReedSolomon rs(2, 1);
  std::vector<Bytes> data{Bytes(10), Bytes(11)};
  EXPECT_THROW(rs.encode(data), std::invalid_argument);
  std::vector<Bytes> one{Bytes(10)};
  EXPECT_THROW(rs.encode(one), std::invalid_argument);
}

TEST(ReedSolomon, IntermediatePlusAggregationMatchesFullEncode) {
  // The TriEC tripartite decomposition (paper §VI-B): per-data-node
  // intermediate parities XOR-aggregated at parity nodes must equal the
  // monolithic encode.
  ReedSolomon rs(3, 2);
  Rng rng(11);
  std::vector<Bytes> data(3, Bytes(256));
  for (auto& d : data) {
    for (auto& b : d) b = rng.next_byte();
  }
  const auto full = rs.encode(data);

  std::vector<Bytes> agg(2, Bytes(256, 0));
  for (unsigned j = 0; j < 3; ++j) {
    const auto inter = rs.encode_intermediate(j, data[j]);
    for (unsigned i = 0; i < 2; ++i) {
      ReedSolomon::aggregate(agg[i], inter[i]);
    }
  }
  EXPECT_EQ(agg, full);
}

struct RsParam {
  unsigned k, m;
};

class ReedSolomonRecovery : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReedSolomonRecovery, SurvivesEveryErasurePattern) {
  // MDS property: ANY m erasures are recoverable. Sweep all (k+m choose m)
  // erasure patterns for the parameterized code.
  const auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  Rng rng(1234 + k * 16 + m);
  std::vector<Bytes> data(k, Bytes(96));
  for (auto& d : data) {
    for (auto& b : d) b = rng.next_byte();
  }
  const auto parity = rs.encode(data);

  std::vector<Bytes> all = data;
  all.insert(all.end(), parity.begin(), parity.end());

  // Enumerate subsets of exactly k surviving chunks via bitmask.
  const unsigned n = k + m;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<unsigned>(__builtin_popcount(mask)) != k) continue;
    std::vector<std::pair<unsigned, Bytes>> present;
    for (unsigned i = 0; i < n; ++i) {
      if (mask & (1u << i)) present.emplace_back(i, all[i]);
    }
    auto out = rs.decode(present);
    ASSERT_TRUE(out.has_value()) << "mask=" << mask;
    EXPECT_EQ(*out, data) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, ReedSolomonRecovery,
                         ::testing::Values(RsParam{2, 1}, RsParam{3, 2}, RsParam{4, 2},
                                           RsParam{6, 3}, RsParam{5, 4}, RsParam{8, 3}),
                         [](const ::testing::TestParamInfo<RsParam>& pinfo) {
                           return "RS" + std::to_string(pinfo.param.k) + "_" +
                                  std::to_string(pinfo.param.m);
                         });

TEST(ReedSolomon, DecodeRejectsTooFewChunks) {
  ReedSolomon rs(3, 2);
  std::vector<std::pair<unsigned, Bytes>> present{{0, Bytes(8)}, {1, Bytes(8)}};
  EXPECT_FALSE(rs.decode(present).has_value());
}

TEST(ReedSolomon, DecodeRejectsDuplicateIndices) {
  ReedSolomon rs(2, 1);
  std::vector<std::pair<unsigned, Bytes>> present{{0, Bytes(8)}, {0, Bytes(8)}};
  EXPECT_FALSE(rs.decode(present).has_value());
}

TEST(ReedSolomon, DecodeRejectsOutOfRangeIndex) {
  ReedSolomon rs(2, 1);
  std::vector<std::pair<unsigned, Bytes>> present{{0, Bytes(8)}, {7, Bytes(8)}};
  EXPECT_FALSE(rs.decode(present).has_value());
}

TEST(ReedSolomon, LargeChunks) {
  ReedSolomon rs(6, 3);
  Rng rng(77);
  std::vector<Bytes> data(6, Bytes(64 * 1024));
  for (auto& d : data) {
    for (auto& b : d) b = rng.next_byte();
  }
  const auto parity = rs.encode(data);
  // Drop three data chunks, recover from the rest.
  std::vector<std::pair<unsigned, Bytes>> present;
  for (unsigned i = 3; i < 6; ++i) present.emplace_back(i, data[i]);
  for (unsigned i = 0; i < 3; ++i) present.emplace_back(6 + i, parity[i]);
  auto out = rs.decode(present);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, CoefficientAccessors) {
  ReedSolomon rs(3, 2);
  EXPECT_THROW(rs.parity_coefficient(2, 0), std::out_of_range);
  EXPECT_THROW(rs.parity_coefficient(0, 3), std::out_of_range);
  // Cauchy coefficients are never zero.
  for (unsigned i = 0; i < 2; ++i) {
    for (unsigned j = 0; j < 3; ++j) {
      EXPECT_NE(rs.parity_coefficient(i, j), 0);
    }
  }
}

TEST(ReedSolomon, CorruptChunkYieldsWrongDataNotCrash) {
  // Decoding with a silently corrupted chunk returns wrong data (RS erasure
  // codes detect nothing by themselves) but must not crash or hang.
  ReedSolomon rs(2, 1);
  std::vector<Bytes> data{Bytes(16, 0x11), Bytes(16, 0x22)};
  auto parity = rs.encode(data);
  parity[0][3] ^= 0xFF;
  std::vector<std::pair<unsigned, Bytes>> present{{0, data[0]}, {2, parity[0]}};
  auto out = rs.decode(present);
  ASSERT_TRUE(out.has_value());
  EXPECT_NE((*out)[1], data[1]);
}

}  // namespace
}  // namespace nadfs::ec
