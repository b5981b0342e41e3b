// Unit tests of the benchmark's own machinery: percentiles, span self
// time, the answer oracle and the timing decorators.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/sign.h"
#include "decorators.h"
#include "oracle.h"
#include "slots.h"
#include "span_trace.h"
#include "stats.h"
#include "tensor/rng.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, already sorted
  return v;
}

TEST(Percentiles, NearestRank) {
  const auto v = ramp(100);
  EXPECT_EQ(percentile_sorted(v, 0.5), 50);
  EXPECT_EQ(percentile_sorted(v, 0.99), 99);
  EXPECT_EQ(percentile_sorted(v, 1.0), 100);
  EXPECT_EQ(percentile_sorted(v, 0.0), 1);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentiles, TailKeepsTenSamplesBeyond) {
  // Plenty of samples: p99 is reported as asked, with >= 10 beyond it.
  auto v = ramp(2000);
  Tail t = tail(v, 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 1980);
  EXPECT_EQ(t.beyond, 20u);

  // Exactly enough: 1000 samples leave 10 above the p99.
  v = ramp(1000);
  t = tail(v, 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.beyond, 10u);

  // Too few for p99: the percentile drops until ten samples lie beyond.
  v = ramp(200);
  t = tail(v, 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 190);
  EXPECT_DOUBLE_EQ(t.q, 0.95);

  // The smallest sample that supports any tail: 11 values.
  v = ramp(11);
  t = tail(v, 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.value, 1);
  EXPECT_EQ(t.beyond, 10u);

  v = ramp(10);
  EXPECT_FALSE(tail(v, 0.99).ok);
  EXPECT_FALSE(tail({}, 0.5).ok);
}

TEST(SpanSelfTime, ChildrenCoverOnceAndClipToParent) {
  std::vector<Span> s(6);
  s[0] = {"root", 1, 0, 0, 100, 1};
  s[1] = {"a", 2, 1, 10, 30, 1};
  s[2] = {"b", 3, 1, 20, 50, 1};    // overlaps a: the union is [10, 50)
  s[3] = {"c", 4, 1, 90, 120, 1};   // clipped to the parent: [90, 100)
  s[4] = {"a.kid", 5, 2, 12, 18, 1};  // grandchild: only a's child
  s[5] = {"orphan", 6, 99, 0, 5, 1};  // unknown parent: a root
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 5);
}

TEST(SpanBuffer, DropsPastCapacity) {
  SpanBuffer b(2);
  for (int i = 0; i < 5; ++i) b.record({"x", b.next_id(), 0, i, i + 1, 1});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.dropped(), 3u);
  EXPECT_EQ(b.at(1).start_ns, 1);
}

TEST(SlotTable, MatchesOnlyIdsInFlight) {
  SlotTable t(2);
  std::uint64_t a = 0, b = 0;
  const std::size_t sa = t.acquire(&a);
  const std::size_t sb = t.acquire(&b);
  EXPECT_NE(sa, sb);
  EXPECT_TRUE(t.full());
  EXPECT_EQ(a & 0xffff, sa);

  // Low bits past the window, an unknown high part, id 0: no slot.
  EXPECT_EQ(t.release((a & ~std::uint64_t{0xffff}) | 5), SlotTable::kNone);
  EXPECT_EQ(t.release(a + (std::uint64_t{1} << 40)), SlotTable::kNone);
  EXPECT_EQ(t.release(0), SlotTable::kNone);
  EXPECT_EQ(t.in_flight(), 2u);

  // The right id frees its slot once; a second answer finds nothing.
  EXPECT_EQ(t.release(a), sa);
  EXPECT_EQ(t.release(a), SlotTable::kNone);
  EXPECT_EQ(t.in_flight(), 1u);

  // The freed slot goes out again under a new id; the old one stays stale.
  std::uint64_t c = 0;
  EXPECT_EQ(t.acquire(&c), sa);
  EXPECT_NE(c, a);
  EXPECT_EQ(t.release(a), SlotTable::kNone);
  EXPECT_EQ(t.release(c), sa);
  EXPECT_EQ(t.release(b), sb);
  EXPECT_EQ(t.in_flight(), 0u);
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : oracle_(table()) {}
  static ppgnn::Tensor table() {
    ppgnn::Tensor t({3, 4});
    for (std::size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
    }
    return t;
  }
  ppgnn::serve::ServeResponse answer(const ppgnn::serve::ServeRequest& req) {
    const ppgnn::Tensor ref = table();
    ppgnn::serve::ServeResponse r;
    r.id = req.id;
    for (const auto n : req.nodes) {
      const float* row = ref.row(static_cast<std::size_t>(n));
      if (req.mode == ppgnn::serve::ResultMode::kFullLogits) {
        r.logits.emplace_back(row, row + ref.cols());
      } else {
        r.topk.push_back(ppgnn::serve::topk_of_row(row, ref.cols(), req.topk));
      }
    }
    return r;
  }
  AnswerOracle oracle_;
};

TEST_F(OracleTest, FlagsOneFlippedLogitBit) {
  ppgnn::serve::ServeRequest req;
  req.id = 7;
  req.nodes = {2, 0};
  req.mode = ppgnn::serve::ResultMode::kFullLogits;
  auto resp = answer(req);
  EXPECT_TRUE(oracle_.check(req, resp));

  std::uint32_t bits;
  std::memcpy(&bits, &resp.logits[1][3], sizeof bits);
  bits ^= 1u;  // lowest mantissa bit
  std::memcpy(&resp.logits[1][3], &bits, sizeof bits);
  EXPECT_FALSE(oracle_.check(req, resp));
}

TEST_F(OracleTest, FlagsTopKScoreBitAndBadStatus) {
  ppgnn::serve::ServeRequest req;
  req.id = 9;
  req.nodes = {1};
  req.mode = ppgnn::serve::ResultMode::kTopK;
  req.topk = 3;
  auto resp = answer(req);
  EXPECT_TRUE(oracle_.check(req, resp));

  auto flipped = resp;
  std::uint32_t bits;
  std::memcpy(&bits, &flipped.topk[0][2].score, sizeof bits);
  bits ^= 1u;
  std::memcpy(&flipped.topk[0][2].score, &bits, sizeof bits);
  EXPECT_FALSE(oracle_.check(req, flipped));

  auto shed = resp;
  shed.status = ppgnn::serve::ServeStatus::kShed;
  EXPECT_FALSE(oracle_.check(req, shed));
  auto wrong_id = resp;
  wrong_id.id = 10;
  EXPECT_FALSE(oracle_.check(req, wrong_id));
}

std::unique_ptr<ppgnn::core::Sign> small_sign() {
  ppgnn::Rng rng(5);
  ppgnn::core::SignConfig sc;
  sc.feat_dim = 8;
  sc.hops = 2;
  sc.hidden = 16;
  sc.classes = 5;
  sc.mlp_layers = 2;
  sc.dropout = 0.f;
  return std::make_unique<ppgnn::core::Sign>(sc, rng);
}

ppgnn::Tensor batch() {
  ppgnn::Rng rng(3);
  ppgnn::Tensor x({9, 24});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
  }
  return x;
}

bool same_bits(const ppgnn::Tensor& a, const ppgnn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

TEST(TimedModel, SurvivesQuantizeAndWeightSharing) {
  LayerProbe probe("forward");
  const ppgnn::Tensor x = batch();

  auto plain = small_sign();
  const ppgnn::Tensor fp32 = plain->infer(x);
  ASSERT_EQ(ppgnn::core::quantize_int8(*plain), 5u);
  const ppgnn::Tensor int8 = plain->infer(x);
  ASSERT_FALSE(same_bits(fp32, int8));  // quantization changed the answer

  TimedModel wrapped(small_sign(), &probe);
  EXPECT_EQ(ops_per_row(wrapped), ops_per_row(*plain));
  ASSERT_EQ(ppgnn::core::quantize_int8(wrapped), 5u);
  probe.recording = true;
  EXPECT_TRUE(same_bits(wrapped.infer(x), int8));
  EXPECT_EQ(probe.totals().calls, 1u);
  EXPECT_EQ(probe.totals().rows, x.rows());

  TimedModel sharer(small_sign(), &probe);
  ppgnn::core::share_quantized_weights(sharer, *plain);
  EXPECT_TRUE(same_bits(sharer.infer(x), int8));
  EXPECT_EQ(probe.totals().calls, 2u);
}

}  // namespace
}  // namespace perfbench
