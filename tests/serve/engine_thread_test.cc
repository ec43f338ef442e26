/**
 * @file
 * Serving-robustness tests (DESIGN.md §10): the owned scheduler thread
 * and both stop modes, per-request deadlines and cancellation, numeric
 * fault isolation via injected NaN logits, submit-time validation, the
 * pool's double-free guard, and the sampler's degenerate-row guards.
 * The multi-threaded chaos soak lives in serve_soak_test.cc; these are
 * the targeted single-mechanism tests.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/tasks.h"
#include "nn/model.h"
#include "serve/engine.h"
#include "serve/fault.h"
#include "serve/kv_pool.h"
#include "serve/sampler.h"

namespace qt8 {
namespace {

using serve::EngineConfig;
using serve::FaultConfig;
using serve::FaultInjector;
using serve::KVCachePool;
using serve::Request;
using serve::RequestResult;
using serve::RequestStatus;
using serve::SamplingParams;
using serve::ServeEngine;
using serve::StopMode;

ModelConfig
tinyLmConfig()
{
    ModelConfig cfg;
    cfg.name = "serve-robust-lm";
    cfg.vocab = 48;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    return cfg;
}

std::vector<int32_t>
makePrompt(Rng &rng, int64_t vocab, int64_t len)
{
    std::vector<int32_t> p(static_cast<size_t>(len));
    for (auto &t : p) {
        t = static_cast<int32_t>(
            Vocab::kFirstContent +
            rng.randint(vocab - Vocab::kFirstContent));
    }
    return p;
}

/// Solo cached decode — the bit-identity reference (same helper as
/// serve_engine_test.cc).
std::vector<int32_t>
soloCausal(CausalLM &model, QuantSession &qs,
           const std::vector<int32_t> &prompt, int64_t max_new,
           int32_t eos, const SamplingParams &sp)
{
    const int64_t cap = std::min(
        model.body.config().max_seq,
        static_cast<int64_t>(prompt.size()) + max_new + 1);
    DecodeState st = model.beginDecode(1, cap);
    Rng rng(sp.seed);
    Tensor logits;
    for (const int32_t tok : prompt) {
        const std::vector<int32_t> step{tok};
        logits = model.forwardIncremental(qs, step, st);
    }
    std::vector<int32_t> out;
    while (true) {
        const int32_t tok = serve::sampleToken(logits, 0, sp, rng);
        if (eos >= 0 && tok == eos)
            break;
        out.push_back(tok);
        if (static_cast<int64_t>(out.size()) >= max_new)
            break;
        const std::vector<int32_t> step{tok};
        logits = model.forwardIncremental(qs, step, st);
    }
    return out;
}

// ---------------------------------------------------------------------
// Owned scheduler thread
// ---------------------------------------------------------------------

TEST(EngineThread, StartSubmitDrainStopIsBitIdentical)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 808);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{2, 32});

    engine.start();
    EXPECT_TRUE(engine.running());

    Rng rng(5);
    std::vector<Request> reqs;
    std::vector<std::shared_future<RequestResult>> futs;
    for (int r = 0; r < 5; ++r) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 3 + r % 3);
        req.max_new_tokens = 6 + r % 4;
        req.eos = Vocab::kEos;
        reqs.push_back(req);
        futs.push_back(engine.submit(req));
    }
    engine.stop(StopMode::kDrain);
    EXPECT_FALSE(engine.running());

    for (size_t r = 0; r < reqs.size(); ++r) {
        // Drain guarantees resolution before stop() returns.
        ASSERT_EQ(std::future_status::ready,
                  futs[r].wait_for(std::chrono::seconds(0)));
        const RequestResult res = futs[r].get();
        ASSERT_EQ(RequestStatus::kOk, res.status);
        EXPECT_EQ(soloCausal(model, qs, reqs[r].prompt,
                             reqs[r].max_new_tokens, reqs[r].eos,
                             reqs[r].sampling),
                  res.tokens)
            << "request " << r;
    }
    const auto m = engine.metricsSnapshot();
    EXPECT_EQ(5, m.completed);
}

TEST(EngineThread, AbortResolvesInFlightWithEngineStopped)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 909);
    QuantSession qs(QuantConfig::fp32());

    // Slow every step down so the request is reliably still in flight
    // when the abort lands (slot capacity 128 ≈ 250 ms of decoding).
    FaultConfig fc;
    fc.delay_rate = 1.0;
    fc.delay_ms = 2.0;
    FaultInjector fault(fc);
    EngineConfig ec{/*n_slots=*/1, /*slot_capacity=*/0};
    ec.fault = &fault;
    ServeEngine engine(model, qs, ec);

    Rng rng(6);
    Request req;
    req.prompt = makePrompt(rng, cfg.vocab, 3);
    req.max_new_tokens = 10000; // can only end by capacity or abort
    req.eos = -1;

    engine.start();
    auto fut = engine.submit(req);
    // Wait for some real progress (5 forward steps = 3-token prefill
    // plus at least 2 generated tokens), then pull the plug mid-decode.
    while (engine.metricsSnapshot().steps < 5)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    engine.stop(StopMode::kAbort);

    ASSERT_EQ(std::future_status::ready,
              fut.wait_for(std::chrono::seconds(0)));
    const RequestResult res = fut.get();
    EXPECT_EQ(RequestStatus::kEngineStopped, res.status);
    EXPECT_GE(res.tokens.size(), 1u); // partial output kept
    EXPECT_LT(static_cast<int64_t>(res.tokens.size()),
              req.max_new_tokens);

    // The queue is closed: post-abort submissions resolve immediately
    // with the same typed status instead of parking forever.
    auto late = engine.submit(req);
    EXPECT_EQ(std::future_status::ready,
              late.wait_for(std::chrono::seconds(0)));
    EXPECT_EQ(RequestStatus::kEngineStopped, late.get().status);

    EXPECT_EQ(0u, engine.activeCount());
    EXPECT_EQ(1, engine.freeSlots()); // slot reclaimed by the abort
    EXPECT_GE(engine.metricsSnapshot().stopped, 2);
}

TEST(EngineThread, SubmitAndSnapshotNeverWaitOnAStep)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 919);
    QuantSession qs(QuantConfig::fp32());

    // Every step sleeps 300 ms inside the scheduler. An API call that
    // waited for the step lock would let one step finish per call;
    // counting steps instead of timing calls keeps the check free of
    // any wall-clock threshold.
    FaultConfig fc;
    fc.delay_rate = 1.0;
    fc.delay_ms = 300.0;
    FaultInjector fault(fc);
    EngineConfig ec;
    ec.n_slots = 1;
    ec.slot_capacity = 0;
    ec.fault = &fault;
    ServeEngine engine(model, qs, ec);

    Rng rng(16);
    Request busy;
    busy.prompt = makePrompt(rng, cfg.vocab, 3);
    busy.max_new_tokens = 10000; // keeps the engine stepping
    busy.eos = -1;

    engine.start();
    engine.submit(busy);
    while (engine.metricsSnapshot().steps < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const int64_t before = engine.metricsSnapshot().steps;
    for (int i = 0; i < 10; ++i) {
        Request req = busy;
        req.max_new_tokens = 2;
        engine.submit(req);
        EXPECT_EQ(2 + i, engine.metricsSnapshot().per_class[1].submitted);
    }
    const int64_t after = engine.metricsSnapshot().steps;
    EXPECT_LE(after - before, 1);

    engine.stop(StopMode::kAbort);
    EXPECT_EQ(11, engine.metricsSnapshot().stopped);
}

TEST(EngineThread, StopStartCyclesKeepWorking)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 1010);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, 24});

    Rng rng(7);
    Request req;
    req.prompt = makePrompt(rng, cfg.vocab, 3);
    req.max_new_tokens = 4;

    for (int cycle = 0; cycle < 3; ++cycle) {
        engine.start();
        engine.start(); // idempotent while running
        auto fut = engine.submit(req);
        engine.stop(cycle == 1 ? StopMode::kAbort : StopMode::kDrain);
        engine.stop(StopMode::kDrain); // idempotent when stopped
        ASSERT_EQ(std::future_status::ready,
                  fut.wait_for(std::chrono::seconds(0)))
            << "cycle " << cycle;
        const RequestStatus s = fut.get().status;
        // An abort may land before or after the tiny request finishes;
        // either way the status is typed and the engine restartable.
        EXPECT_TRUE(s == RequestStatus::kOk ||
                    s == RequestStatus::kEngineStopped)
            << "cycle " << cycle;
    }
}

// ---------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------

TEST(EngineLifecycle, DeadlineExpiresMidDecode)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 111);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, 64});

    Rng rng(8);
    Request req;
    req.prompt = makePrompt(rng, cfg.vocab, 3);
    req.max_new_tokens = 1000; // never finishes on its own here
    req.eos = -1;
    req.timeout_ms = 20.0;
    auto fut = engine.submit(req);

    // A few steps of real progress before the deadline...
    for (int s = 0; s < 5; ++s)
        engine.step();
    EXPECT_EQ(1u, engine.activeCount());
    // ...then blow the deadline and step once more.
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    engine.step();

    const RequestResult res = fut.get();
    EXPECT_EQ(RequestStatus::kDeadlineExceeded, res.status);
    EXPECT_GE(res.tokens.size(), 1u); // partial output kept
    // The truncated prefix is still the solo decode's prefix.
    const auto solo = soloCausal(model, qs, req.prompt, 10, -1, {});
    ASSERT_LE(res.tokens.size(), solo.size());
    EXPECT_TRUE(std::equal(res.tokens.begin(), res.tokens.end(),
                           solo.begin()));
    EXPECT_EQ(1, engine.freeSlots());
    EXPECT_EQ(1, engine.metrics().expired);
}

TEST(EngineLifecycle, QueuedRequestExpiresWhileSlotsBusy)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 222);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, 64});

    Rng rng(9);
    Request hog;
    hog.prompt = makePrompt(rng, cfg.vocab, 3);
    hog.max_new_tokens = 40;
    hog.eos = -1;
    auto f_hog = engine.submit(hog);
    engine.step(); // hog owns the only slot

    Request late;
    late.prompt = makePrompt(rng, cfg.vocab, 3);
    late.max_new_tokens = 4;
    late.timeout_ms = 5.0;
    auto f_late = engine.submit(late);

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine.step(); // expiry runs before admission

    const RequestResult res = f_late.get();
    EXPECT_EQ(RequestStatus::kDeadlineExceeded, res.status);
    EXPECT_TRUE(res.tokens.empty()); // never admitted
    EXPECT_EQ(1u, engine.activeCount()); // hog unaffected
    engine.runUntilIdle();
    EXPECT_EQ(RequestStatus::kOk, f_hog.get().status);
}

TEST(EngineLifecycle, CancelBeforeAdmissionAndMidDecode)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 333);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, 64});

    Rng rng(10);
    Request a;
    a.prompt = makePrompt(rng, cfg.vocab, 3);
    a.max_new_tokens = 100;
    a.eos = -1;
    Request b = a;

    uint64_t id_a = 0, id_b = 0;
    auto f_a = engine.submit(a, &id_a);
    auto f_b = engine.submit(b, &id_b); // queued behind a

    // Cancel b before it was ever admitted.
    EXPECT_TRUE(engine.cancel(id_b));
    engine.step();
    const RequestResult res_b = f_b.get();
    EXPECT_EQ(RequestStatus::kCancelled, res_b.status);
    EXPECT_TRUE(res_b.tokens.empty());

    // Cancel a mid-decode: partial output kept, bit-exact prefix.
    for (int s = 0; s < 6; ++s)
        engine.step();
    EXPECT_TRUE(engine.cancel(id_a));
    engine.step();
    const RequestResult res_a = f_a.get();
    EXPECT_EQ(RequestStatus::kCancelled, res_a.status);
    EXPECT_GE(res_a.tokens.size(), 1u);
    const auto solo = soloCausal(model, qs, a.prompt, 10, -1, {});
    ASSERT_LE(res_a.tokens.size(), solo.size());
    EXPECT_TRUE(std::equal(res_a.tokens.begin(), res_a.tokens.end(),
                           solo.begin()));

    EXPECT_EQ(1, engine.freeSlots());
    EXPECT_EQ(2, engine.metrics().cancelled);

    // Ids this engine never issued are refused; finished ids are an
    // accepted no-op.
    EXPECT_FALSE(engine.cancel(0));
    EXPECT_FALSE(engine.cancel(999999));
    EXPECT_TRUE(engine.cancel(id_a));
    engine.step(); // no effect, nothing active
    EXPECT_EQ(2, engine.metrics().cancelled);
}

// ---------------------------------------------------------------------
// Numeric-fault isolation
// ---------------------------------------------------------------------

TEST(EngineFaults, InjectedNanRetiresOnlyThePoisonedRequest)
{
    const ModelConfig cfg = tinyLmConfig();
    for (const QuantConfig &qc :
         {QuantConfig::fp32(), QuantConfig::posit8()}) {
        CausalLM model(cfg, 444);
        QuantSession qs(qc);

        // Poison whatever decodes in slot 0 on scheduler step 4 —
        // past the 3-token prefill, so the victim has partial output.
        FaultConfig fc;
        fc.nan_at.push_back({/*step=*/4, /*slot=*/0});
        FaultInjector fault(fc);
        EngineConfig ec{/*n_slots=*/3, /*slot_capacity=*/32};
        ec.fault = &fault;
        ServeEngine engine(model, qs, ec);

        Rng rng(11);
        std::vector<Request> reqs;
        std::vector<std::shared_future<RequestResult>> futs;
        for (int r = 0; r < 3; ++r) {
            Request req;
            req.prompt = makePrompt(rng, cfg.vocab, 3);
            req.max_new_tokens = 8;
            req.eos = -1;
            reqs.push_back(req);
            futs.push_back(engine.submit(req));
        }
        engine.runUntilIdle();

        int faulted = 0;
        for (size_t r = 0; r < futs.size(); ++r) {
            const RequestResult res = futs[r].get();
            if (res.status == RequestStatus::kNumericFault) {
                ++faulted;
                EXPECT_TRUE(fault.wasFaulted(res.id)) << qc.name;
                // Retired on step 4: prefill took 3 steps (the third
                // emitted token 1), step 3 emitted token 2, step 4 was
                // poisoned — 2 tokens of partial output survive.
                EXPECT_EQ(2u, res.tokens.size()) << qc.name;
            } else {
                // Neighbours decode on, bit-identical to solo.
                ASSERT_EQ(RequestStatus::kOk, res.status) << qc.name;
                EXPECT_FALSE(fault.wasFaulted(res.id)) << qc.name;
                EXPECT_EQ(soloCausal(model, qs, reqs[r].prompt,
                                     reqs[r].max_new_tokens,
                                     reqs[r].eos, reqs[r].sampling),
                          res.tokens)
                    << qc.name << " request " << r;
            }
        }
        EXPECT_EQ(1, faulted) << qc.name;
        EXPECT_EQ(1, engine.metrics().numeric_faults) << qc.name;
        EXPECT_EQ(1, fault.stats().nan_injected) << qc.name;
        EXPECT_EQ(3, engine.freeSlots()) << qc.name;
    }
}

TEST(EngineFaults, GuardDisabledLetsNanThrough)
{
    // With the guard off the engine must still not crash: rowArgmax
    // ignores non-finite entries and the sampler falls back to it, so
    // a poisoned row samples token 0 and decoding continues.
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 555);
    QuantSession qs(QuantConfig::fp32());

    FaultConfig fc;
    fc.nan_at.push_back({/*step=*/3, /*slot=*/0});
    FaultInjector fault(fc);
    EngineConfig ec{/*n_slots=*/1, /*slot_capacity=*/32};
    ec.guard_logits = false;
    ec.fault = &fault;
    ServeEngine engine(model, qs, ec);

    Rng rng(12);
    Request req;
    req.prompt = makePrompt(rng, cfg.vocab, 3);
    req.max_new_tokens = 6;
    req.eos = -1;
    auto fut = engine.submit(req);
    engine.runUntilIdle();

    const RequestResult res = fut.get();
    EXPECT_EQ(RequestStatus::kOk, res.status);
    EXPECT_EQ(6u, res.tokens.size());
    EXPECT_EQ(0, engine.metrics().numeric_faults);
    EXPECT_EQ(1, fault.stats().nan_injected);
}

// ---------------------------------------------------------------------
// Submit-time validation
// ---------------------------------------------------------------------

TEST(EngineValidation, InvalidRequestsRejectTypedAndImmediate)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 666);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, /*slot_capacity=*/8});

    Rng rng(13);
    const std::vector<int32_t> good = makePrompt(rng, cfg.vocab, 3);

    Request empty_prompt;
    empty_prompt.max_new_tokens = 4;

    Request no_budget;
    no_budget.prompt = good;
    no_budget.max_new_tokens = 0;

    Request too_long;
    too_long.prompt = makePrompt(rng, cfg.vocab, 9); // > slot capacity
    too_long.max_new_tokens = 4;

    int callbacks = 0;
    for (Request *req : {&empty_prompt, &no_budget, &too_long}) {
        req->on_complete = [&](const RequestResult &r) {
            ++callbacks;
            EXPECT_EQ(RequestStatus::kRejectedInvalid, r.status);
        };
        uint64_t id = 0;
        auto fut = engine.submit(*req, &id);
        EXPECT_GT(id, 0u);
        ASSERT_EQ(std::future_status::ready,
                  fut.wait_for(std::chrono::seconds(0)));
        const RequestResult res = fut.get();
        EXPECT_EQ(RequestStatus::kRejectedInvalid, res.status);
        EXPECT_TRUE(res.tokens.empty());
        EXPECT_FALSE(serve::isRetirement(res.status));
    }
    EXPECT_EQ(3, callbacks);
    EXPECT_EQ(3, engine.metrics().rejected_invalid);
    EXPECT_EQ(0u, engine.pendingCount()); // never enqueued

    // A valid request still sails through the same engine.
    Request ok;
    ok.prompt = good;
    ok.max_new_tokens = 4;
    auto fut = engine.submit(ok);
    engine.runUntilIdle();
    EXPECT_EQ(RequestStatus::kOk, fut.get().status);
}

TEST(EngineValidation, Seq2SeqPadMismatchRejected)
{
    ModelConfig cfg = ModelConfig::whisperTinyLike();
    cfg.vocab = 48;
    Seq2Seq model(cfg, 777);
    QuantSession qs(QuantConfig::fp32());
    ServeEngine engine(model, qs, EngineConfig{1, 16, /*cross=*/8});

    Request req;
    req.prompt.assign(6, Vocab::kFirstContent);
    req.src_pad.assign(4, 0); // wrong length
    req.max_new_tokens = 4;
    EXPECT_EQ(RequestStatus::kRejectedInvalid,
              engine.submit(req).get().status);

    req.src_pad.clear();
    req.prompt.assign(12, Vocab::kFirstContent); // > cross capacity
    EXPECT_EQ(RequestStatus::kRejectedInvalid,
              engine.submit(req).get().status);
}

// ---------------------------------------------------------------------
// Pool and sampler guards
// ---------------------------------------------------------------------

TEST(KVCachePoolGuard, DoubleFreeAndStrayReleaseRefused)
{
    KVCachePool pool(/*n_slots=*/2, /*capacity=*/4, /*d_model=*/8,
                     /*n_self_layers=*/1);
    const int32_t s0 = pool.acquire();
    const int32_t s1 = pool.acquire();
    ASSERT_GE(s0, 0);
    ASSERT_GE(s1, 0);
    EXPECT_TRUE(pool.inUse(s0));
    EXPECT_EQ(-1, pool.acquire()); // exhausted -> typed, no assert

    EXPECT_TRUE(pool.release(s0));
    EXPECT_FALSE(pool.inUse(s0));
    EXPECT_FALSE(pool.release(s0)); // double free refused
    EXPECT_EQ(1u, pool.freeCount()); // free list uncorrupted

    EXPECT_FALSE(pool.release(-1)); // stray releases refused
    EXPECT_FALSE(pool.release(2));
    EXPECT_FALSE(pool.release(99));
    EXPECT_EQ(1u, pool.freeCount());

    // The guarded pool still cycles normally.
    EXPECT_EQ(s0, pool.acquire());
    EXPECT_TRUE(pool.release(s0));
    EXPECT_TRUE(pool.release(s1));
    EXPECT_EQ(2u, pool.freeCount());
}

TEST(SamplerGuard, DegenerateRowsNeverCrash)
{
    Tensor logits({2, 8});
    // Row 0: all -inf (a fully masked row). Row 1: one finite entry.
    for (int64_t j = 0; j < 8; ++j) {
        logits.at(0 * 8 + j) = -INFINITY;
        logits.at(1 * 8 + j) = -INFINITY;
    }
    logits.at(1 * 8 + 5) = 0.25f;

    Rng rng(1);
    SamplingParams greedy; // temperature 0
    EXPECT_EQ(0, serve::sampleToken(logits, 0, greedy, rng));
    EXPECT_EQ(5, serve::sampleToken(logits, 1, greedy, rng));

    SamplingParams sampled;
    sampled.temperature = 1.0f;
    sampled.top_k = 4;
    // All-(-inf) row: no finite candidate -> argmax fallback, token 0.
    EXPECT_EQ(0, serve::sampleToken(logits, 0, sampled, rng));
    // Single candidate survives the filter regardless of top_k.
    EXPECT_EQ(5, serve::sampleToken(logits, 1, sampled, rng));

    // top_k far beyond vocab is clamped, not UB.
    Tensor uniform({1, 8});
    for (int64_t j = 0; j < 8; ++j)
        uniform.at(j) = 0.1f * static_cast<float>(j);
    sampled.top_k = 10000;
    for (int trial = 0; trial < 16; ++trial) {
        const int32_t tok = serve::sampleToken(uniform, 0, sampled, rng);
        EXPECT_GE(tok, 0);
        EXPECT_LT(tok, 8);
    }

    // NaN-riddled row with finite survivors: candidates exclude NaNs.
    Tensor mixed({1, 8});
    for (int64_t j = 0; j < 8; ++j)
        mixed.at(j) = std::numeric_limits<float>::quiet_NaN();
    mixed.at(3) = 1.0f;
    sampled.top_k = 2;
    EXPECT_EQ(3, serve::sampleToken(mixed, 0, sampled, rng));
}

} // namespace
} // namespace qt8
