// Golden wire bytes: every protocol payload and each kind of frame, built
// from fixed literal values, must encode to exactly these bytes. A change
// to any of them is a wire-format change: bump kWireVersion and update
// the literals in the same commit.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rpc/wire.h"

namespace fedaqp {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

template <typename T>
std::string PayloadHex(const T& message) {
  ByteWriter w;
  Encode(message, &w);
  return Hex(w.bytes());
}

ProviderWorkStats Work(size_t clusters, size_t rows, double seconds) {
  return ProviderWorkStats{clusters, rows, seconds};
}

RangeQuery TwoRangeSum() {
  return RangeQuery(Aggregation::kSum,
                    {DimRange{0, -5, 60}, DimRange{1, 2, 3}});
}

TEST(WireGoldenTest, VersionIsFour) { EXPECT_EQ(kWireVersion, 4); }

TEST(WireGoldenTest, ProviderPayloads) {
  EndpointInfo info;
  info.name = "p1";
  ASSERT_TRUE(info.schema.AddDimension("age", 100).ok());
  ASSERT_TRUE(info.schema.AddDimension("zip", 7).ok());
  info.cluster_capacity = 4096;
  info.n_min = 16;
  EXPECT_EQ(PayloadHex(info),
            "02000000703102000000030000006167656400000000000000030000007a6970"
            "070000000000000000100000000000001000000000000000");

  EXPECT_EQ(PayloadHex(CoverRequest{0x0102030405060708, 9, TwoRangeSum()}),
            "08070605040302010900000000000000010200000000000000fbffffffffffff"
            "ff3c000000000000000100000002000000000000000300000000000000");

  EXPECT_EQ(PayloadHex(CoverReply{true, Work(3, 400, 0.25)}),
            "0103000000000000009001000000000000000000000000d03f");

  EXPECT_EQ(PayloadHex(SummaryRequest{7, 0.5}),
            "0700000000000000000000000000e03f");
  EXPECT_EQ(PayloadHex(SummaryReply{
                ProviderSummary{1.5, 42.0, 0.1, Work(1, 2, 0.5)}}),
            "000000000000f83f00000000000045409a9999999999b93f0100000000000000"
            "0200000000000000000000000000e03f");

  EXPECT_EQ(PayloadHex(ApproximateRequest{11, 128, 0.2, 0.3, 1e-5, true, 2, 5}),
            "0b0000000000000080000000000000009a9999999999c93f333333333333d33f"
            "f168e388b5f8e43e010200000005000000");

  EXPECT_EQ(PayloadHex(ExactAnswerRequest{12, 0.7, false}),
            "0c00000000000000666666666666e63f00");
  EXPECT_EQ(PayloadHex(EstimateReply{LocalEstimate{
                -3.25, 2.0, 1.0, true, false, PrivacyBudget{0.5, 1e-6},
                Work(5, 600, 0.125)}}),
            "0000000000000ac00000000000000040000000000000f03f0100000000000000"
            "e03f8dedb5a0f7c6b03e05000000000000005802000000000000000000000000"
            "c03f");

  EXPECT_EQ(PayloadHex(ExactScanRequest{
                RangeQuery(Aggregation::kCount, {DimRange{1, 0, 9}})}),
            "00010000000100000000000000000000000900000000000000");
  EXPECT_EQ(PayloadHex(ExactScanReply{123.0, Work(2, 50, 0.0)}),
            "0000000000c05e40020000000000000032000000000000000000000000000000");
  EXPECT_EQ(PayloadHex(EndQueryRequest{0xdeadbeef}), "efbeadde00000000");
}

TEST(WireGoldenTest, LedgerPayloads) {
  EXPECT_EQ(PayloadHex(LedgerOpRequest{3, 17, "alice", 0.5, 1e-4}),
            "03000000110000000000000005000000616c696365000000000000e03f2d431c"
            "ebe2361a3f");

  EXPECT_EQ(PayloadHex(LedgerQueryRequest{"bob"}), "03000000626f62");
  EXPECT_EQ(PayloadHex(LedgerQueryReply{true, 0.75, 1e-3, 0.25, 2e-4, 0.125,
                                        0.0}),
            "01000000000000e83ffca9f1d24d62503f000000000000d03f2d431cebe2362a"
            "3f000000000000c03f0000000000000000");
}

TEST(WireGoldenTest, ErrorPayload) {
  EXPECT_EQ(PayloadHex(ErrorReply{Status::BudgetExhausted("xi gone")}),
            "0507000000786920676f6e65");
}

TEST(WireGoldenTest, Frames) {
  ByteWriter payload;
  Encode(SummaryRequest{7, 0.5}, &payload);
  EXPECT_EQ(Hex(EncodeFrame(RpcMethod::kPublishSummary, payload)),
            "c109dafe0403100000000700000000000000000000000000e03f");

  ByteWriter error;
  Encode(ErrorReply{Status::InvalidArgument("bad")}, &error);
  EXPECT_EQ(Hex(EncodeFrame(RpcMethod::kError, error)),
            "c109dafe040f080000000103000000626164");

  // A doorbell batch: an empty kInfo request and an EndQuery request.
  ByteWriter batch;
  EncodeFrameHeader(RpcMethod::kInfo, 0, &batch);
  ByteWriter end_payload;
  Encode(EndQueryRequest{42}, &end_payload);
  EncodeFrameHeader(RpcMethod::kEndQuery,
                    static_cast<uint32_t>(end_payload.size()), &batch);
  batch.PutRaw(end_payload.bytes().data(), end_payload.size());
  EXPECT_EQ(Hex(EncodeFrame(RpcMethod::kBatch, batch)),
            "c109dafe04081c000000c109dafe040100000000c109dafe0407080000002a00"
            "000000000000");
}

}  // namespace
}  // namespace fedaqp
