// Tests for the observability layer (src/obs/): the striped metric
// registry under concurrent hammering, span lifecycle / ring bounding /
// Chrome export in the trace recorder, and bit-exact audit-log replay of
// the analyst ledger (including clamped refunds). That tracing never
// perturbs answers is pinned by tests/determinism_matrix_test.cc.
// The whole file runs in the CI ThreadSanitizer job: the counter hammer
// and the snapshot-while-incrementing reader are the TSan surface for
// the registry's striped relaxed atomics.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dp/accountant.h"
#include "exec/federation_client.h"
#include "fixture.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------------- metrics --

TEST(MetricsTest, ConcurrentCounterHammerIsExact) {
  obs::Counter* counter =
      obs::MetricRegistry::Global().GetCounter("test.hammer");
  counter->Reset();
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;

  std::atomic<bool> reading{true};
  // A reader folding the stripes while writers increment: telemetry may
  // lag but must never fault or tear (the TSan surface).
  std::thread reader([&] {
    while (reading.load(std::memory_order_relaxed)) {
      (void)counter->Value();
      (void)obs::MetricRegistry::Global().Snapshot("test.");
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Add();
    });
  }
  for (auto& t : writers) t.join();
  reading.store(false, std::memory_order_relaxed);
  reader.join();

  // Quiescent fold is exact — striping never loses an increment.
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(MetricsTest, RegistryHandlesAreStableAndNamed) {
  auto& reg = obs::MetricRegistry::Global();
  obs::Counter* a = reg.GetCounter("test.stable");
  obs::Counter* b = reg.GetCounter("test.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("test.stable2"));
}

TEST(MetricsTest, GaugeSetAndSetMax) {
  obs::Gauge* gauge = obs::MetricRegistry::Global().GetGauge("test.gauge");
  gauge->Reset();
  EXPECT_EQ(gauge->Value(), 0.0);
  gauge->Set(3.5);
  EXPECT_EQ(gauge->Value(), 3.5);
  gauge->SetMax(2.0);  // Lower: no effect.
  EXPECT_EQ(gauge->Value(), 3.5);
  gauge->SetMax(7.25);  // Higher: raises the high-water mark.
  EXPECT_EQ(gauge->Value(), 7.25);
}

TEST(MetricsTest, HistogramQuantilesWithinOneOctave) {
  obs::Histogram* hist =
      obs::MetricRegistry::Global().GetHistogram("test.hist_seconds");
  hist->Reset();
  for (int i = 0; i < 100; ++i) hist->Record(1e-3);
  obs::Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.total, 100u);
  // All mass in the 1ms bucket: every quantile lands within its octave.
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    const double v = snap.Quantile(q);
    EXPECT_GE(v, 0.5e-3) << "q=" << q;
    EXPECT_LE(v, 1.1e-3) << "q=" << q;
  }
}

TEST(MetricsTest, SnapshotPrefixFilters) {
  auto& reg = obs::MetricRegistry::Global();
  reg.GetCounter("testprefix.a")->Reset();
  reg.GetCounter("testprefix.a")->Add(4);
  reg.GetCounter("testother.b")->Add(1);
  std::vector<obs::MetricSample> samples = reg.Snapshot("testprefix.");
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "testprefix.a");
  EXPECT_EQ(samples[0].kind, obs::MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].value, 4.0);
}

TEST(MetricsTest, DisabledRegistryDropsIncrements) {
  auto& reg = obs::MetricRegistry::Global();
  obs::Counter* counter = reg.GetCounter("test.disabled");
  obs::Gauge* gauge = reg.GetGauge("test.disabled_gauge");
  obs::Histogram* hist = reg.GetHistogram("test.disabled_hist");
  counter->Reset();
  gauge->Reset();
  hist->Reset();

  obs::SetMetricsEnabled(false);
  counter->Add(5);
  gauge->Set(9.0);
  hist->Record(1.0);
  obs::SetMetricsEnabled(true);

  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(hist->Snap().total, 0u);

  counter->Add(2);  // Re-enabled: increments land again.
  EXPECT_EQ(counter->Value(), 2u);
}

// --------------------------------------------------------------- traces --

/// RAII reset of the global recorder so trace tests cannot leak enabled
/// state (or stale spans) into each other.
struct TraceGuard {
  TraceGuard() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
  ~TraceGuard() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().SetCapacity(1 << 16);  // default; clears
  }
};

TEST(TraceTest, SpanLifecycleAndNesting) {
  TraceGuard guard;
  obs::TraceRecorder::Global().SetEnabled(true);
  {
    obs::ScopedSpan outer("test", std::string("outer"), 42);
    EXPECT_TRUE(outer.active());
    {
      obs::ScopedSpan inner("test", [] { return std::string("inner"); });
      EXPECT_TRUE(inner.active());
    }
  }
  obs::TraceRecorder::Global().SetEnabled(false);

  std::vector<obs::TraceSpan> spans = obs::TraceRecorder::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Recorded at END: the inner span lands first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].session, 42u);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].dur_us, 0.0);
  // Proper nesting: the outer span covers the inner one.
  EXPECT_LE(spans[0].start_us + spans[0].dur_us,
            spans[1].start_us + spans[1].dur_us + 1e-6);
}

TEST(TraceTest, DisabledSpansAreNoOps) {
  TraceGuard guard;
  bool name_built = false;
  {
    obs::ScopedSpan span("test", [&] {
      name_built = true;
      return std::string("never");
    });
    EXPECT_FALSE(span.active());
  }
  // The lazy name is never materialized on the disabled path.
  EXPECT_FALSE(name_built);
  EXPECT_EQ(obs::TraceRecorder::Global().size(), 0u);
}

TEST(TraceTest, RingDropsOldestAndStaysBounded) {
  TraceGuard guard;
  auto& recorder = obs::TraceRecorder::Global();
  recorder.SetCapacity(32);
  recorder.SetEnabled(true);
  for (int i = 0; i < 100; ++i) {
    obs::ScopedSpan span("test", "span" + std::to_string(i));
  }
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.size(), 32u);
  EXPECT_EQ(recorder.dropped(), 68u);
  // Drop-oldest: the newest spans survive.
  std::vector<obs::TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 32u);
  EXPECT_EQ(spans.back().name, "span99");
  EXPECT_EQ(spans.front().name, "span68");
}

TEST(TraceTest, ChromeExportIsBalancedJson) {
  TraceGuard guard;
  obs::TraceRecorder::Global().SetEnabled(true);
  {
    obs::ScopedSpan outer("test", std::string("q1/estimate/p0"), 7);
    obs::ScopedSpan inner("test", std::string("child"));
  }
  obs::TraceRecorder::Global().SetEnabled(false);

  const std::string path =
      ::testing::TempDir() + "/fedaqp_obs_trace_test.json";
  Status exported = obs::TraceRecorder::Global().ExportChromeTrace(path);
  ASSERT_TRUE(exported.ok()) << exported.ToString();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  size_t begins = 0, ends = 0;
  for (size_t pos = 0; (pos = contents.find("\"ph\":\"B\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++begins;
  }
  for (size_t pos = 0; (pos = contents.find("\"ph\":\"E\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(begins, ends);
  EXPECT_NE(contents.find("\"session\":7"), std::string::npos);
}

// ------------------------------------------------------------ audit log --

void ExpectLedgersBitIdentical(const AnalystLedger& a, const AnalystLedger& b,
                               const std::string& analyst) {
  Result<PrivacyBudget> spent_a = a.Spent(analyst);
  Result<PrivacyBudget> spent_b = b.Spent(analyst);
  ASSERT_TRUE(spent_a.ok() && spent_b.ok()) << analyst;
  EXPECT_EQ(spent_a->epsilon, spent_b->epsilon) << analyst;
  EXPECT_EQ(spent_a->delta, spent_b->delta) << analyst;
  Result<PrivacyBudget> rem_a = a.Remaining(analyst);
  Result<PrivacyBudget> rem_b = b.Remaining(analyst);
  ASSERT_TRUE(rem_a.ok() && rem_b.ok()) << analyst;
  EXPECT_EQ(rem_a->epsilon, rem_b->epsilon) << analyst;
  EXPECT_EQ(rem_a->delta, rem_b->delta) << analyst;
  Result<PrivacyBudget> saved_a = a.Saved(analyst);
  Result<PrivacyBudget> saved_b = b.Saved(analyst);
  ASSERT_TRUE(saved_a.ok() && saved_b.ok()) << analyst;
  EXPECT_EQ(saved_a->epsilon, saved_b->epsilon) << analyst;
  EXPECT_EQ(saved_a->delta, saved_b->delta) << analyst;
}

TEST(AuditLogTest, ReplayReproducesDirectLedgerMutations) {
  obs::BudgetAuditLog log;
  AnalystLedger live;
  live.AttachAuditLog(&log);

  ASSERT_TRUE(live.Register("alice", 10.0, 1e-2).ok());
  ASSERT_TRUE(live.Register("bob", 5.0, 1e-3).ok());
  ASSERT_TRUE(live.Charge("alice", {1.0, 1e-4}, 1).ok());
  ASSERT_TRUE(live.Charge("alice", {0.3, 2e-5}, 2).ok());
  ASSERT_TRUE(live.Charge("bob", {0.7, 1e-5}, 3).ok());
  ASSERT_TRUE(live.Refund("alice", {0.25, 1e-5}, 1).ok());
  live.RecordSaving("bob", {0.7, 1e-5}, 4);
  // A clamped overdraw refund: InvalidArgument, but the live ledger WAS
  // mutated (spend floored at zero) — replay must reproduce that too.
  Status clamped = live.Refund("bob", {100.0, 1.0e-1}, 3);
  EXPECT_FALSE(clamped.ok());
  EXPECT_EQ(clamped.code(), StatusCode::kInvalidArgument);
  // Refused charges must NOT be logged: this one overdraws bob.
  EXPECT_FALSE(live.Charge("bob", {1e9, 0.0}, 5).ok());
  // Unknown-analyst mutations leave no record either.
  EXPECT_FALSE(live.Charge("mallory", {0.1, 0.0}, 6).ok());
  live.RecordSaving("mallory", {0.1, 0.0}, 6);

  EXPECT_EQ(log.size(), 8u);  // 2 registers, 3 charges, 2 refunds, 1 saving.
  std::vector<obs::BudgetAuditLog::Record> alice = log.ForAnalyst("alice");
  ASSERT_EQ(alice.size(), 4u);
  EXPECT_EQ(alice[0].kind, obs::BudgetAuditLog::Kind::kRegister);
  EXPECT_EQ(alice[3].kind, obs::BudgetAuditLog::Kind::kRefund);
  EXPECT_EQ(alice[3].seq, 1u);

  AnalystLedger replayed;
  Status replay = log.Replay(&replayed);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  for (const std::string analyst : {"alice", "bob"}) {
    ExpectLedgersBitIdentical(live, replayed, analyst);
  }
  EXPECT_FALSE(replayed.Knows("mallory"));
}

RangeQuery Query(int shift) {
  return RangeQueryBuilder(Aggregation::kCount)
      .Where(0, 20 + shift, 180)
      .Build();
}

// The acceptance pin: every charge/refund/saving a real client session
// makes — fresh charges, cache-served savings — replays into a fresh
// ledger bit-exactly.
TEST(AuditLogTest, ReplayReproducesClientSessionLedger) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(77, 2);
  copts.analysts = {{"alice", 1e6, 1e3}, {"bob", 1e6, 1e3}};
  copts.enable_cache = true;  // Repeats produce kSaving records.
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    QuerySpec spec;
    spec.analyst = i % 2 == 0 ? "alice" : "bob";
    spec.query = Query(i);
    tickets.push_back((*client)->Submit(std::move(spec)));
  }
  // Exact repeat of the first query: the cache serves it for zero fresh
  // budget and the ledger records a saving instead of a charge.
  {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = Query(0);
    tickets.push_back((*client)->Submit(std::move(spec)));
  }
  for (auto& t : tickets) {
    Result<QueryResponse> resp = t.Wait();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }

  const obs::BudgetAuditLog& log = (*client)->audit_log();
  EXPECT_GE(log.size(), 6u);  // 2 registers + 3 charges + 1 saving.
  size_t savings = 0;
  for (const auto& r : log.Snapshot()) {
    if (r.kind == obs::BudgetAuditLog::Kind::kSaving) ++savings;
    if (r.kind == obs::BudgetAuditLog::Kind::kCharge ||
        r.kind == obs::BudgetAuditLog::Kind::kSaving) {
      EXPECT_GT(r.seq, 0u) << "charge/saving without an admission seq";
    }
  }
  EXPECT_EQ(savings, 1u);

  AnalystLedger replayed;
  Status replay = log.Replay(&replayed);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  for (const std::string analyst : {"alice", "bob"}) {
    ExpectLedgersBitIdentical((*client)->ledger(), replayed, analyst);
  }
}

}  // namespace
}  // namespace fedaqp
