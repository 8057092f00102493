// Tests for the SMC substrate: additive shares, fixed-point encoding and
// the secure-sum / sum+max / row-sharing protocols with traffic accounting.

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/sim_network.h"
#include "smc/fixed_point.h"
#include "smc/protocol.h"
#include "smc/shares.h"

namespace fedaqp {
namespace {

// ---------------------------------------------------------------- Shares --

TEST(SharesTest, SplitReconstructRoundTrip) {
  Rng rng(3);
  for (uint64_t v : {0ULL, 1ULL, 123456789ULL, ~0ULL}) {
    for (size_t parties : {1u, 2u, 4u, 7u}) {
      Result<std::vector<uint64_t>> shares =
          AdditiveShares::Split(v, parties, &rng);
      ASSERT_TRUE(shares.ok());
      EXPECT_EQ(shares->size(), parties);
      EXPECT_EQ(AdditiveShares::Reconstruct(*shares), v);
    }
  }
}

TEST(SharesTest, ZeroPartiesRejected) {
  Rng rng(5);
  EXPECT_FALSE(AdditiveShares::Split(1, 0, &rng).ok());
}

TEST(SharesTest, IndividualSharesLookUniform) {
  // No single share should reveal the secret: with a fixed secret, each
  // share position must take many distinct values across fresh sharings.
  Rng rng(7);
  std::set<uint64_t> first_share_values;
  for (int i = 0; i < 100; ++i) {
    Result<std::vector<uint64_t>> shares = AdditiveShares::Split(42, 3, &rng);
    ASSERT_TRUE(shares.ok());
    first_share_values.insert((*shares)[0]);
  }
  EXPECT_GT(first_share_values.size(), 95u);
}

TEST(SharesTest, ShareWiseAdditionIsSecureSum) {
  Rng rng(11);
  Result<std::vector<uint64_t>> a = AdditiveShares::Split(100, 4, &rng);
  Result<std::vector<uint64_t>> b = AdditiveShares::Split(23, 4, &rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<std::vector<uint64_t>> sum = AdditiveShares::Add(*a, *b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(AdditiveShares::Reconstruct(*sum), 123u);
  EXPECT_FALSE(AdditiveShares::Add(*a, {1, 2}).ok());
}

// ------------------------------------------------------------ FixedPoint --

TEST(FixedPointTest, EncodeDecodeRoundTrip) {
  FixedPoint fp(20);
  for (double v : {0.0, 1.0, -1.0, 3.14159, -123456.789, 1e9}) {
    EXPECT_NEAR(fp.Decode(fp.Encode(v)), v, 1e-5) << v;
  }
}

TEST(FixedPointTest, NegativeValuesViaTwosComplement) {
  FixedPoint fp(10);
  EXPECT_NEAR(fp.Decode(fp.Encode(-42.5)), -42.5, 1e-3);
}

TEST(FixedPointTest, AdditivityUnderRingArithmetic) {
  // Encode(a) + Encode(b) decodes to a + b — the property SMC sums rely on.
  FixedPoint fp(20);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    double a = rng.UniformRange(-1e6, 1e6);
    double b = rng.UniformRange(-1e6, 1e6);
    uint64_t ring_sum = fp.Encode(a) + fp.Encode(b);
    EXPECT_NEAR(fp.Decode(ring_sum), a + b, 1e-4);
  }
}

// -------------------------------------------------------------- Protocol --

TEST(SmcProtocolTest, SecureSumMatchesPlainSum) {
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  Rng rng(17);
  SimNetwork net;
  std::vector<double> inputs{10.5, -2.25, 100.0, 7.75};
  Result<double> sum = protocol.SecureSum(inputs, &net, &rng);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, 116.0, 1e-4);
  EXPECT_GT(net.stats().messages, 0u);
}

TEST(SmcProtocolTest, SecureSumSingleParty) {
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  Rng rng(19);
  Result<double> sum = protocol.SecureSum({5.0}, nullptr, &rng);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, 5.0, 1e-5);
  EXPECT_FALSE(protocol.SecureSum({}, nullptr, &rng).ok());
}

TEST(SmcProtocolTest, SumAndMaxComputesBoth) {
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  Rng rng(23);
  SimNetwork net;
  Result<SmcAggregate> agg = protocol.SumAndMax(
      {1.0, 2.0, 3.0}, {0.5, 9.5, 2.0}, &net, &rng);
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(agg->sum, 6.0, 1e-4);
  EXPECT_DOUBLE_EQ(agg->max, 9.5);
  EXPECT_FALSE(protocol.SumAndMax({1.0}, {1.0, 2.0}, &net, &rng).ok());
}

TEST(SmcProtocolTest, SumAndMaxChargesComparisonTraffic) {
  SmcCostModel cost;
  cost.comparison_rounds = 2;
  cost.comparison_bytes = 1024;
  SmcProtocol protocol{FixedPoint(), cost};
  Rng rng(29);
  SimNetwork with_max;
  ASSERT_TRUE(protocol
                  .SumAndMax({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}, &with_max,
                             &rng)
                  .ok());
  SimNetwork sum_only;
  ASSERT_TRUE(protocol.SecureSum({1.0, 1.0, 1.0}, &sum_only, &rng).ok());
  EXPECT_GT(with_max.stats().bytes, sum_only.stats().bytes);
}

TEST(SmcProtocolTest, ShareRowsReconstructsGlobalSum) {
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  Rng rng(31);
  SimNetwork net;
  std::vector<std::vector<double>> rows_per_party{
      {1.0, 2.0, 3.0}, {4.0, 5.0}, {6.0}};
  Result<double> witness = protocol.ShareRows(rows_per_party, &net, &rng);
  ASSERT_TRUE(witness.ok());
  EXPECT_NEAR(*witness, 21.0, 1e-4);
}

TEST(SmcProtocolTest, AdditiveSchemeCannotSurviveDropouts) {
  // Additive reconstruction with a missing party yields garbage (a
  // uniformly random-looking value), not the sum.
  Rng rng(53);
  Result<std::vector<uint64_t>> shares = AdditiveShares::Split(1000, 4, &rng);
  ASSERT_TRUE(shares.ok());
  std::vector<uint64_t> missing_one(shares->begin(), shares->end() - 1);
  EXPECT_NE(AdditiveShares::Reconstruct(missing_one), 1000u);
}

TEST(SmcProtocolTest, RowSharingTrafficScalesWithRows) {
  // Fig. 1's core phenomenon: row sharing moves bytes proportional to the
  // table size; result sharing is constant.
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  Rng rng(37);

  SimNetwork small_net, large_net, result_net;
  std::vector<std::vector<double>> small(4, std::vector<double>(100, 1.0));
  std::vector<std::vector<double>> large(4, std::vector<double>(10000, 1.0));
  ASSERT_TRUE(protocol.ShareRows(small, &small_net, &rng).ok());
  ASSERT_TRUE(protocol.ShareRows(large, &large_net, &rng).ok());
  ASSERT_TRUE(
      protocol.SecureSum({1.0, 2.0, 3.0, 4.0}, &result_net, &rng).ok());

  EXPECT_NEAR(static_cast<double>(large_net.stats().bytes) /
                  static_cast<double>(small_net.stats().bytes),
              100.0, 2.0);
  EXPECT_LT(result_net.stats().bytes, small_net.stats().bytes);
}

}  // namespace
}  // namespace fedaqp
