/**
 * @file
 * Pins ServeMetrics: LatencyHistogram percentile math on known
 * distributions (linear interpolation between closest ranks), the
 * 0/1-sample edge cases, the out-of-range-p clamp (used to read past
 * the sorted array), recordRetirement counter bookkeeping, and
 * metricsSnapshot() consistency while the engine thread is retiring
 * requests concurrently.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/tasks.h"
#include "nn/model.h"
#include "serve/engine.h"
#include "serve/metrics.h"

namespace qt8 {
namespace {

using serve::EngineConfig;
using serve::LatencyHistogram;
using serve::Request;
using serve::RequestRecord;
using serve::RequestStatus;
using serve::ServeEngine;
using serve::ServeMetrics;

TEST(LatencyHistogram, EmptyReturnsZero)
{
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SingleSampleIsEveryPercentile)
{
    LatencyHistogram h;
    h.record(42.5);
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 42.5) << "p" << p;
    EXPECT_DOUBLE_EQ(h.mean(), 42.5);
}

TEST(LatencyHistogram, KnownDistributionInterpolates)
{
    // Samples 1..100 (recorded shuffled — percentile must sort).
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>((i * 37) % 100 + 1));
    // numpy-style linear interpolation: rank = p/100 * 99.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.5);
    EXPECT_DOUBLE_EQ(h.percentile(95.0), 95.05);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.01);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(LatencyHistogram, TwoSamplesMidpoint)
{
    LatencyHistogram h;
    h.record(10.0);
    h.record(20.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 20.0);
}

TEST(LatencyHistogram, OutOfRangePClampsInsteadOfReadingPastEnd)
{
    // Regression: p > 100 used to compute rank > n-1 and index past the
    // sorted vector (p < 0 wrapped through size_t). Now clamps.
    LatencyHistogram h;
    h.record(5.0);
    h.record(7.0);
    h.record(9.0);
    EXPECT_DOUBLE_EQ(h.percentile(150.0), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(1000.0), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(-50.0), 5.0);
}

TEST(ServeMetrics, RetirementCountersByStatus)
{
    ServeMetrics m;
    auto retire = [&m](RequestStatus s, int64_t gen) {
        RequestRecord r;
        r.status = s;
        r.generated_tokens = gen;
        r.prompt_tokens = 3;
        r.ttft_ms = 1.0;
        r.latency_ms = 2.0;
        m.recordRetirement(r);
    };
    retire(RequestStatus::kOk, 5);
    retire(RequestStatus::kOk, 7);
    retire(RequestStatus::kCapacityExceeded, 2);
    retire(RequestStatus::kCancelled, 1);
    retire(RequestStatus::kDeadlineExceeded, 0);
    retire(RequestStatus::kNumericFault, 4);
    retire(RequestStatus::kEngineStopped, 0);

    EXPECT_EQ(m.completed, 7);
    EXPECT_EQ(m.truncated, 1);
    EXPECT_EQ(m.cancelled, 1);
    EXPECT_EQ(m.expired, 1);
    EXPECT_EQ(m.numeric_faults, 1);
    EXPECT_EQ(m.stopped, 1);
    EXPECT_EQ(m.requests.size(), 7u);
    EXPECT_EQ(m.generated_tokens, 19);
    EXPECT_EQ(m.prompt_tokens, 21);
    EXPECT_EQ(m.ttft_ms.count(), 7u);
    EXPECT_EQ(m.request_latency_ms.count(), 7u);
}

TEST(ServeMetrics, TokensPerSecBusyGuardsZeroBusy)
{
    ServeMetrics m;
    m.generated_tokens = 100;
    EXPECT_DOUBLE_EQ(m.tokensPerSecBusy(), 0.0);
    m.busy_ms = 500.0;
    EXPECT_DOUBLE_EQ(m.tokensPerSecBusy(), 200.0);
}

TEST(ServeMetrics, DumpMentionsEveryHistogram)
{
    ServeMetrics m;
    RequestRecord r;
    r.status = RequestStatus::kOk;
    m.recordRetirement(r);
    const std::string d = m.dump();
    EXPECT_NE(d.find("ttft_ms"), std::string::npos);
    EXPECT_NE(d.find("request_latency_ms"), std::string::npos);
    EXPECT_NE(d.find("token_latency_ms"), std::string::npos);
    EXPECT_NE(d.find("1 completed"), std::string::npos);
}

/// The engine publishes its metrics after every step by catching a
/// copy up with the live record: the counters are copied whole, but
/// only the records and samples added since the last publish are, so
/// a publish costs the same however many requests have retired.
TEST(ServeMetrics, CatchUpCopiesOnlyNewSamples)
{
    ServeMetrics live, published;
    const auto retire = [&live](int64_t i) {
        RequestRecord r;
        r.status = RequestStatus::kOk;
        r.generated_tokens = 3;
        r.ttft_ms = static_cast<double>(i);
        r.latency_ms = 2.0 * static_cast<double>(i);
        live.recordRetirement(r);
        live.token_latency_ms.record(0.5 * static_cast<double>(i));
    };
    for (int64_t i = 0; i < 1000; ++i)
        retire(i);
    live.steps = 1000;
    const size_t first = published.catchUp(live);
    EXPECT_GE(first, 3000u); // records, ttft, latency, token samples

    retire(1000);
    live.steps = 1001;
    live.sessions_resident = 7;
    const size_t next = published.catchUp(live);
    // One record plus its request-level, per-class and token samples.
    EXPECT_EQ(next, first / 1000);
    EXPECT_EQ(0u, published.catchUp(live));

    EXPECT_EQ(live.dump(), published.dump());
    EXPECT_EQ(live.requests.size(), published.requests.size());
    EXPECT_EQ(1001, published.steps);
    EXPECT_EQ(7, published.sessions_resident);
    EXPECT_EQ(live.completed, published.completed);
    EXPECT_DOUBLE_EQ(live.token_latency_ms.percentile(99.0),
                     published.token_latency_ms.percentile(99.0));
    for (size_t c = 0; c < serve::kNumClasses; ++c) {
        EXPECT_EQ(live.per_class[c].completed,
                  published.per_class[c].completed);
        EXPECT_EQ(live.per_class[c].ttft_ms.count(),
                  published.per_class[c].ttft_ms.count());
    }
}

/// Snapshot consistency under a live engine: a watcher thread pulls
/// metricsSnapshot() while the scheduler thread admits and retires.
/// Every snapshot must be internally consistent (a copy, not a torn
/// view): completed == per-status sum of the request records, and
/// counters never decrease between snapshots.
TEST(ServeMetrics, SnapshotConsistentUnderConcurrentRetirement)
{
    ModelConfig cfg;
    cfg.name = "metrics-test-lm";
    cfg.vocab = 48;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    CausalLM model(cfg, 321);
    QuantSession qs(QuantConfig::posit8());

    EngineConfig ec;
    ec.n_slots = 3;
    ServeEngine engine(model, qs, ec);

    constexpr int kRequests = 24;
    Rng rng(9);
    std::vector<std::shared_future<serve::RequestResult>> futs;
    for (int r = 0; r < kRequests; ++r) {
        Request req;
        const int64_t plen = 2 + rng.randint(4);
        for (int64_t j = 0; j < plen; ++j)
            req.prompt.push_back(static_cast<int32_t>(
                Vocab::kFirstContent +
                rng.randint(cfg.vocab - Vocab::kFirstContent)));
        req.max_new_tokens = 6;
        req.eos = Vocab::kEos;
        futs.push_back(engine.submit(std::move(req)));
    }

    std::atomic<bool> stop_watch{false};
    std::atomic<int> snapshots{0};
    std::thread watcher([&] {
        int64_t last_completed = 0, last_steps = 0;
        while (!stop_watch.load()) {
            const ServeMetrics m = engine.metricsSnapshot();
            // Internal consistency: the records vector and the
            // aggregate counter were copied together.
            EXPECT_EQ(m.completed,
                      static_cast<int64_t>(m.requests.size()));
            int64_t by_status = 0;
            for (const RequestRecord &r : m.requests)
                by_status += (r.status != RequestStatus::kOk) ? 1 : 0;
            EXPECT_EQ(by_status, m.truncated + m.cancelled + m.expired +
                                     m.numeric_faults + m.stopped);
            // Monotone: counters only grow while the engine runs.
            EXPECT_GE(m.completed, last_completed);
            EXPECT_GE(m.steps, last_steps);
            last_completed = m.completed;
            last_steps = m.steps;
            ++snapshots;
        }
    });

    engine.start();
    engine.stop(serve::StopMode::kDrain);
    stop_watch.store(true);
    watcher.join();

    for (auto &f : futs)
        EXPECT_EQ(f.get().status, RequestStatus::kOk);
    const ServeMetrics final = engine.metricsSnapshot();
    EXPECT_EQ(final.completed, kRequests);
    EXPECT_EQ(final.requests.size(), static_cast<size_t>(kRequests));
    EXPECT_GT(snapshots.load(), 0);
    EXPECT_EQ(final.ttft_ms.count(), static_cast<size_t>(kRequests));
}

} // namespace
} // namespace qt8
