#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <thread>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/server_stats.h"
#include "serve/workload.h"
#include "tensor/ops.h"
#include "serve_client.h"

namespace ppgnn::serve {
namespace {

using test::BatcherClient;

std::string tmp_dir(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

struct Fixture {
  graph::Dataset ds;
  core::Preprocessed pre;

  explicit Fixture(double scale = 0.02, std::size_t hops = 2)
      : ds(graph::make_dataset(graph::DatasetName::kPokecSim, scale)) {
    core::PrecomputeConfig pc;
    pc.hops = hops;
    pre = core::precompute(ds.graph, ds.features, pc);
  }

  std::unique_ptr<core::PpModel> make_model(std::uint64_t seed = 7) const {
    Rng rng(seed);
    core::SignConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = pre.num_hops();
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;
    return std::make_unique<core::Sign>(cfg, rng);
  }

  std::unique_ptr<InferenceSession> make_session(
      std::uint64_t seed = 7) const {
    return std::make_unique<InferenceSession>(
        make_model(seed), std::make_unique<MemorySource>(pre));
  }
};

TEST(FeatureSource, FileStoreMatchesMemory) {
  const Fixture fx;
  MemorySource mem(fx.pre);
  FileStoreSource file(
      loader::FeatureFileStore::create(tmp_dir("serve_fs"), fx.pre.hop_features));
  ASSERT_EQ(mem.num_rows(), file.num_rows());
  ASSERT_EQ(mem.row_dim(), file.row_dim());
  const std::vector<std::int64_t> rows{0, 5, 3, 5,
                                       static_cast<std::int64_t>(mem.num_rows()) - 1};
  Tensor a, b;
  mem.gather(rows, a);
  file.gather(rows, b);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FeatureSource, CachedGatherIsTransparentAndCounts) {
  const Fixture fx;
  auto backing = std::make_unique<FileStoreSource>(
      loader::FeatureFileStore::create(tmp_dir("serve_cached"),
                                       fx.pre.hop_features));
  // Byte-denominated capacity: budget for exactly 4 stored rows.
  const std::size_t row_bytes = backing->store().row_bytes();
  CachedSource cached(std::move(backing),
                      std::make_unique<loader::LruCache>(4 * row_bytes,
                                                         row_bytes));
  MemorySource mem(fx.pre);
  const std::vector<std::int64_t> rows{1, 2, 1, 3, 1, 2, 9, 1};
  Tensor got, want;
  cached.gather(rows, got);
  mem.gather(rows, want);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  const auto st = cached.stats();
  EXPECT_EQ(st.accesses, rows.size());
  // Unique rows {1,2,3,9} are fetched once each; repeats hit the payload.
  EXPECT_EQ(st.rows_read, 4u);
  EXPECT_EQ(st.hits, rows.size() - 4);
  // A second pass over resident rows is all hits.
  cached.gather({1, 2, 3, 9}, got);
  EXPECT_EQ(cached.stats().rows_read, 4u);
}

TEST(FeatureSource, StaticPolicyCachesOnlyPinnedRows) {
  const Fixture fx;
  auto backing = std::make_unique<MemorySource>(fx.pre);
  CachedSource cached(
      std::move(backing),
      std::make_unique<loader::StaticCache>(std::vector<std::int64_t>{2, 4}));
  cached.warm({2, 4});
  Tensor out;
  cached.gather({2, 3, 4, 3}, out);
  const auto st = cached.stats();
  EXPECT_EQ(st.hits, 3u);       // pinned rows 2 and 4, plus the repeat of 3
  EXPECT_EQ(st.rows_read, 1u);  // row 3 fetched once (deduped), never cached
  // Row 3 was declined by the static policy: a later gather re-reads it.
  cached.gather({3}, out);
  EXPECT_EQ(cached.stats().rows_read, 2u);
}

TEST(InferenceSession, FileStoreAndMemoryProduceIdenticalLogits) {
  const Fixture fx;
  auto mem_session = fx.make_session(11);

  auto store_source = std::make_unique<FileStoreSource>(
      loader::FeatureFileStore::create(tmp_dir("serve_eq"),
                                       fx.pre.hop_features));
  const std::size_t row_bytes = store_source->store().row_bytes();
  auto file_source = std::make_unique<CachedSource>(
      std::move(store_source),
      std::make_unique<loader::LruCache>(8 * row_bytes, row_bytes));
  InferenceSession file_session(fx.make_model(11), std::move(file_source));

  const std::vector<std::int64_t> nodes{0, 7, 7, 21, 3};
  const Tensor a = mem_session->infer_nodes(nodes);
  const Tensor b = file_session.infer_nodes(nodes);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Re-ask through the now-warm cache: still identical (cache-hit path).
  const Tensor c = file_session.infer_nodes(nodes);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], c[i]);
}

TEST(InferenceSession, BatchedInferenceBitIdenticalToSingleRequests) {
  const Fixture fx;
  auto session = fx.make_session();
  const std::vector<std::int64_t> nodes{4, 0, 19, 4, 33};
  const Tensor batched = session->infer_nodes(nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto single = session->infer_one(nodes[i]);
    ASSERT_EQ(single.size(), batched.cols());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(single[j], batched.at(i, j))
          << "node " << nodes[i] << " logit " << j;
    }
  }
}

TEST(InferenceSession, DeployedCheckpointRoundTrips) {
  const Fixture fx;
  auto trained = fx.make_model(21);
  const std::string path = tmp_dir("deploy.ckpt");
  save_deployed_model(*trained, path);

  auto fresh = fx.make_model(99);  // different init
  load_deployed_model(*fresh, path);
  InferenceSession a(std::move(trained), std::make_unique<MemorySource>(fx.pre));
  InferenceSession b(std::move(fresh), std::make_unique<MemorySource>(fx.pre));
  const std::vector<std::int64_t> nodes{1, 2, 3};
  const Tensor la = a.infer_nodes(nodes);
  const Tensor lb = b.infer_nodes(nodes);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(MicroBatcher, CoalescesUpToMaxBatchSize) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 8;
  // Generous window so all submissions land in one batch deterministically.
  cfg.max_delay = std::chrono::microseconds(200'000);
  ServerStats stats;
  {
    MicroBatcher batcher(*session, cfg, &stats);
    BatcherClient client(batcher);
    for (int i = 0; i < 8; ++i) client.submit(i, i);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(client.await(i).status, ServeStatus::kOk);
    }
    const auto c = batcher.counters();
    EXPECT_EQ(c.requests, 8u);
    EXPECT_EQ(c.batches, 1u);  // size cutoff fired, not the delay
    EXPECT_EQ(c.max_batch_observed, 8u);
  }
  EXPECT_EQ(stats.batches(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 8.0);
}

TEST(MicroBatcher, MaxDelayDispatchesPartialBatch) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1024;  // never fills
  cfg.max_delay = std::chrono::microseconds(2000);
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.infer(5).status, ServeStatus::kOk);
  const auto waited = std::chrono::steady_clock::now() - t0;
  // The lone request must complete once the delay window closes — well
  // before any size cutoff could fire (bounded generously for CI jitter).
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(batcher.counters().batches, 1u);
  EXPECT_EQ(batcher.counters().max_batch_observed, 1u);
}

TEST(MicroBatcher, SplitsBeyondMaxBatchSize) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_delay = std::chrono::microseconds(50'000);
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);
  for (int i = 0; i < 10; ++i) client.submit(i, i % 5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.await(i).status, ServeStatus::kOk);
  }
  const auto c = batcher.counters();
  EXPECT_EQ(c.requests, 10u);
  EXPECT_GE(c.batches, 3u);  // ceil(10/4) at best, more if windows split
  EXPECT_LE(c.max_batch_observed, 4u);
}

TEST(MicroBatcher, BadNodeFailsRequestNotServer) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_delay = std::chrono::microseconds(1000);
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);
  // The bad node surfaces as kError carrying the backend's own exception.
  const ServeResponse bad =
      client.infer(static_cast<std::int64_t>(session->num_nodes()));
  EXPECT_EQ(bad.status, ServeStatus::kError);
  ASSERT_TRUE(bad.error);
  EXPECT_THROW(std::rethrow_exception(bad.error), std::out_of_range);
  // The server still answers afterwards.
  const ServeResponse good = client.infer(0);
  EXPECT_EQ(good.status, ServeStatus::kOk);
  EXPECT_EQ(good.logits[0].size(), fx.ds.num_classes);
}

TEST(MicroBatcher, DeterministicUnderEightConcurrentClients) {
  const Fixture fx;
  auto session = fx.make_session();
  // Reference answers, computed single-request before any concurrency.
  const std::size_t n = session->num_nodes();
  std::vector<std::vector<float>> expect(n);
  for (std::size_t v = 0; v < n; ++v) {
    expect[v] = session->infer_one(static_cast<std::int64_t>(v));
  }

  MicroBatchConfig cfg;
  cfg.max_batch_size = 16;
  cfg.max_delay = std::chrono::microseconds(100);
  MicroBatcher batcher(*session, cfg);
  constexpr int kClients = 8;
  constexpr int kPerClient = 100;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BatcherClient client(batcher);
      ZipfWorkloadConfig wc;
      wc.num_nodes = n;
      wc.num_requests = kPerClient;
      wc.seed = 100 + static_cast<std::uint64_t>(c);
      for (const auto node : zipf_stream(wc)) {
        const ServeResponse got = client.infer(node);
        const auto& want = expect[static_cast<std::size_t>(node)];
        if (got.status != ServeStatus::kOk || got.logits[0] != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "micro-batch composition changed some answer";
  EXPECT_EQ(batcher.counters().requests,
            static_cast<std::size_t>(kClients * kPerClient));
}

TEST(ServerStats, PercentilesAndThroughput) {
  ServerStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(static_cast<double>(i));
  const auto s = stats.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
  EXPECT_GT(s.throughput_rps, 0.0);
  const auto json = s.to_json();
  EXPECT_NE(json.find("\"p99_us\":99.0"), std::string::npos) << json;
}

TEST(Workload, ZipfStreamIsHeavyTailedAndSeeded) {
  ZipfWorkloadConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_requests = 20000;
  cfg.skew = 1.0;
  cfg.seed = 5;
  const auto a = zipf_stream(cfg);
  const auto b = zipf_stream(cfg);
  EXPECT_EQ(a, b);  // deterministic
  // The configured hot set should cover far more traffic than its share of
  // the id space (1%); Zipf(1.0) puts ~30% of mass on the top 1%.
  const auto hot = zipf_hot_set(cfg, 10);
  std::size_t hot_hits = 0;
  for (const auto r : a) {
    for (const auto h : hot) {
      if (r == h) {
        ++hot_hits;
        break;
      }
    }
  }
  EXPECT_GT(hot_hits, a.size() / 10);  // >10% of requests on 1% of nodes
  for (const auto r : a) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 1000);
  }
}

TEST(Workload, DegreeStreamPrefersHubs) {
  const Fixture fx;
  const auto stream = degree_stream(fx.ds.graph, 20000, 3);
  // Mean degree of requested nodes should exceed the graph's mean degree.
  double req_deg = 0;
  for (const auto v : stream) {
    req_deg += static_cast<double>(
        fx.ds.graph.degree(static_cast<graph::NodeId>(v)));
  }
  req_deg /= static_cast<double>(stream.size());
  EXPECT_GT(req_deg, fx.ds.graph.avg_degree());
}

}  // namespace
}  // namespace ppgnn::serve
