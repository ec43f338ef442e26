/**
 * @file
 * Paged KV pool + prefix-cache contract tests (DESIGN.md §14).
 *
 * Two layers of claims. Pool level: page-table growth is
 * all-or-nothing, the radix trie matches longest shared prefixes in
 * page_size-token chunks with copy-on-write inside a diverging page,
 * cache pages are refcounted (live sequences pin them against
 * eviction) and LRU reclamation only ever takes unreferenced leaves.
 * Engine level: the paged engine's token streams are bit-identical to
 * the slab engine — the acceptance oracle — across CausalLM and
 * Seq2Seq, fp32 and packed caches, greedy and seeded sampling, chunked
 * prefill, shared-prefix reuse, dirty-page recycling, and out-of-pages
 * backpressure/preemption.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "data/tasks.h"
#include "nn/model.h"
#include "serve/engine.h"
#include "serve/paged_kv.h"
#include "serve/sampler.h"
#include "tensor/ops.h"

namespace qt8 {
namespace {

using serve::EngineConfig;
using serve::PagedKVPool;
using serve::PagedSeq;
using serve::Request;
using serve::RequestResult;
using serve::RequestStatus;
using serve::SamplingParams;
using serve::ServeEngine;

ModelConfig
tinyLmConfig()
{
    ModelConfig cfg;
    cfg.name = "paged-kv-test-lm";
    cfg.vocab = 48;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    return cfg;
}

PagedKVPool::Config
tinyPoolConfig(int64_t n_pages, int64_t page_size)
{
    PagedKVPool::Config pc;
    pc.n_pages = n_pages;
    pc.page_size = page_size;
    pc.d_model = 8;
    pc.n_self_layers = 1;
    return pc;
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

/// Solo cached decode (fp32 cache) — the ground-truth token stream.
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

// --- Pool level ------------------------------------------------------

TEST(PagedKvPool, EnsureTailIsAllOrNothingAndReleaseReturnsPages)
{
    PagedKVPool pool(tinyPoolConfig(/*n_pages=*/4, /*page_size=*/4));
    EXPECT_EQ(4, pool.freePages());
    EXPECT_EQ(0, pool.residentPages());

    PagedSeq s;
    ASSERT_TRUE(pool.ensureTail(s, 1));
    EXPECT_EQ(1u, s.pages.size());
    EXPECT_EQ(3, pool.freePages());
    // Rows 1..4 fit the same page: no growth.
    ASSERT_TRUE(pool.ensureTail(s, 4));
    EXPECT_EQ(1u, s.pages.size());
    ASSERT_TRUE(pool.ensureTail(s, 5));
    EXPECT_EQ(2u, s.pages.size());

    // 17 rows needs 5 pages > 4 total: refused without side effects.
    EXPECT_FALSE(pool.ensureTail(s, 17));
    EXPECT_EQ(2u, s.pages.size());
    EXPECT_EQ(2, pool.freePages());

    pool.releaseSeq(s);
    EXPECT_TRUE(s.pages.empty());
    EXPECT_EQ(0, s.len);
    EXPECT_EQ(4, pool.freePages());
}

TEST(PagedKvPool, RadixMatchRefcountsAndLeafOnlyEviction)
{
    PagedKVPool pool(tinyPoolConfig(/*n_pages=*/8, /*page_size=*/4));
    std::vector<int32_t> prompt_a(12);
    std::iota(prompt_a.begin(), prompt_a.end(), 100);

    // A sequence that prefilled the whole prompt donates its pages.
    PagedSeq s;
    ASSERT_TRUE(pool.ensureTail(s, 12));
    s.len = 12;
    pool.insertPrefix(prompt_a, 12, s);
    EXPECT_EQ(3, pool.cachedPages());
    for (const int32_t p : s.pages)
        EXPECT_EQ(2, pool.pageRef(p)) << "sequence + cache";

    // Longest match in whole chunks, with the tail as COW material.
    PagedKVPool::PrefixMatch m = pool.matchPrefix(prompt_a, 11);
    EXPECT_EQ(8, m.rows);
    ASSERT_EQ(2u, m.pages.size());
    EXPECT_EQ(s.pages[0], m.pages[0]);
    EXPECT_EQ(s.pages[2], m.partial_page);
    EXPECT_EQ(3, m.partial_rows);

    // Divergence at a chunk boundary: no partial page offered.
    std::vector<int32_t> prompt_b = prompt_a;
    prompt_b[8] = 7;
    m = pool.matchPrefix(prompt_b, 11);
    EXPECT_EQ(8, m.rows);
    EXPECT_EQ(-1, m.partial_page);

    const std::vector<int32_t> donor_pages = s.pages;
    pool.releaseSeq(s);
    for (const int32_t p : donor_pages)
        EXPECT_EQ(1, pool.pageRef(p)) << "cache keeps the pages alive";
    EXPECT_EQ(5, pool.freePages());
    EXPECT_EQ(8, pool.availablePages()) << "cache pages are reclaimable";

    // Adoption pins the matched pages against eviction.
    PagedSeq t;
    m = pool.matchPrefix(prompt_a, 12);
    EXPECT_EQ(12, m.rows);
    EXPECT_EQ(12, pool.adoptPrefix(t, m));
    EXPECT_EQ(12, t.shared_rows);
    EXPECT_EQ(2, pool.pageRef(t.pages[0]));
    EXPECT_FALSE(pool.evictOne()) << "no unreferenced leaf while free "
                                     "pages remain... ";
    pool.releaseSeq(t);

    // Leaf-only LRU: evicting once removes the deepest chunk, leaving
    // the shorter prefix intact.
    ASSERT_TRUE(pool.evictOne());
    EXPECT_EQ(2, pool.cachedPages());
    EXPECT_EQ(8, pool.matchPrefix(prompt_a, 12).rows);

    // Demand-driven eviction: a sequence needing every page drains the
    // cache through ensureTail.
    PagedSeq big;
    ASSERT_TRUE(pool.ensureTail(big, 32));
    EXPECT_EQ(8u, big.pages.size());
    EXPECT_EQ(0, pool.cachedPages());
    EXPECT_GE(pool.evictions(), 3);
    EXPECT_EQ(0, pool.matchPrefix(prompt_a, 12).rows);
}

TEST(PagedKvPool, CowCloneCopiesCoveredRowsBytewise)
{
    PagedKVPool::Config pc = tinyPoolConfig(/*n_pages=*/4,
                                            /*page_size=*/4);
    PagedKVPool pool(pc);
    std::vector<int32_t> prompt{1, 2, 3, 4};

    PagedSeq s;
    ASSERT_TRUE(pool.ensureTail(s, 4));
    std::vector<float> krow(static_cast<size_t>(pc.d_model));
    std::vector<float> vrow(static_cast<size_t>(pc.d_model));
    for (int64_t r = 0; r < 4; ++r) {
        for (int64_t j = 0; j < pc.d_model; ++j) {
            krow[static_cast<size_t>(j)] =
                static_cast<float>(r * 10 + j);
            vrow[static_cast<size_t>(j)] =
                static_cast<float>(-(r * 10 + j));
        }
        pool.selfLayers()[0].writeRow(s.pages[0], r, krow.data(),
                                      vrow.data());
    }
    s.len = 4;
    pool.insertPrefix(prompt, 4, s);
    pool.releaseSeq(s);

    // A prompt diverging inside the cached page gets a private clone
    // of the still-valid rows.
    PagedKVPool::PrefixMatch m = pool.matchPrefix(prompt, 3);
    ASSERT_EQ(0, m.rows);
    ASSERT_EQ(3, m.partial_rows);
    PagedSeq t;
    EXPECT_EQ(3, pool.adoptPrefix(t, m));
    EXPECT_EQ(1, pool.cowClones());
    ASSERT_EQ(1u, t.pages.size());

    const auto &panel = pool.selfLayers()[0];
    const float *src_k =
        panel.k.data() + m.partial_page * 4 * pc.d_model;
    const float *dst_k = panel.k.data() + t.pages[0] * 4 * pc.d_model;
    const float *src_v =
        panel.v.data() + m.partial_page * 4 * pc.d_model;
    const float *dst_v = panel.v.data() + t.pages[0] * 4 * pc.d_model;
    const size_t bytes =
        sizeof(float) * static_cast<size_t>(3 * pc.d_model);
    EXPECT_EQ(0, std::memcmp(src_k, dst_k, bytes));
    EXPECT_EQ(0, std::memcmp(src_v, dst_v, bytes));
}

// --- Engine level ----------------------------------------------------

/// Submit the same request mix to a slab and a paged engine and demand
/// byte-equal token streams (plus the solo oracle for good measure).
void
expectPagedMatchesSlabCausal(const QuantConfig &base, bool packed_kv)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 4242);
    QuantConfig qc = base;
    qc.kv_packed = packed_kv;
    QuantSession qs_slab(qc);
    QuantSession qs_paged(qc);
    QuantSession qs_plain(base);

    Rng rng(99);
    std::vector<Request> reqs;
    for (int64_t r = 0; r < 8; ++r) {
        Request req;
        // Prompts straddle page boundaries (page_size 4 below).
        req.prompt = makePrompt(rng, cfg.vocab, 3 + r * 2);
        req.max_new_tokens = 9 - r % 4;
        req.eos = Vocab::kEos;
        if (r % 2 == 1) {
            req.sampling.temperature = 0.8f;
            req.sampling.top_k = 8;
            req.sampling.seed = 500 + static_cast<uint64_t>(r);
        }
        reqs.push_back(req);
    }

    EngineConfig slab_ec{3, 32};
    ServeEngine slab(model, qs_slab, slab_ec);

    EngineConfig paged_ec{3, 32};
    paged_ec.paged = true;
    paged_ec.page_size = 4;
    paged_ec.prefill_chunk = 5; // deliberately != page_size
    ServeEngine paged(model, qs_paged, paged_ec);
    ASSERT_NE(nullptr, paged.pagedPool());
    EXPECT_EQ(packed_kv, paged.kvPacked());

    std::vector<std::shared_future<RequestResult>> slab_futs, paged_futs;
    for (size_t r = 0; r < reqs.size(); ++r) {
        slab_futs.push_back(slab.submit(reqs[r]));
        paged_futs.push_back(paged.submit(reqs[r]));
        if (r % 3 == 1) { // interleave admissions with decode steps
            slab.step();
            paged.step();
        }
    }
    slab.runUntilIdle();
    paged.runUntilIdle();

    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestResult sr = slab_futs[r].get();
        const RequestResult pr = paged_futs[r].get();
        ASSERT_EQ(RequestStatus::kOk, sr.status) << base.name;
        ASSERT_EQ(RequestStatus::kOk, pr.status) << base.name;
        EXPECT_EQ(sr.tokens, pr.tokens)
            << base.name << (packed_kv ? " packed" : " fp32")
            << " request " << r;
        EXPECT_EQ(static_cast<int64_t>(reqs[r].prompt.size()),
                  pr.prompt_tokens);
        EXPECT_LE(pr.ttft_ms, pr.latency_ms);
        const auto want =
            soloCausal(model, qs_plain, reqs[r].prompt,
                       reqs[r].max_new_tokens, reqs[r].eos,
                       reqs[r].sampling);
        EXPECT_EQ(want, pr.tokens) << base.name << " request " << r;
    }
    EXPECT_GT(paged.metrics().prefill_tokens_computed, 0);
}

TEST(PagedKvEngine, CausalTokensBitIdenticalToSlabFp32)
{
    expectPagedMatchesSlabCausal(QuantConfig::posit8(), false);
}

TEST(PagedKvEngine, CausalTokensBitIdenticalToSlabPacked)
{
    expectPagedMatchesSlabCausal(QuantConfig::posit8(), true);
    expectPagedMatchesSlabCausal(QuantConfig::fp8(), true);
}

TEST(PagedKvEngine, Seq2SeqTokensBitIdenticalToSlab)
{
    ModelConfig cfg = ModelConfig::whisperTinyLike();
    cfg.vocab = 48;
    const int64_t B = 5, S = 12;
    const Seq2SeqTask task(cfg.vocab, S, 8);
    Rng rng(77);
    const Seq2SeqBatch batch = task.sample(rng, B);

    for (const bool packed_kv : {false, true}) {
        QuantConfig qc = QuantConfig::posit8();
        qc.kv_packed = packed_kv;
        Seq2Seq model(cfg, 999);
        QuantSession qs_slab(qc);
        QuantSession qs_paged(qc);

        EngineConfig slab_ec{2, 24};
        slab_ec.cross_capacity = S;
        ServeEngine slab(model, qs_slab, slab_ec);

        EngineConfig paged_ec{2, 24};
        paged_ec.cross_capacity = S;
        paged_ec.paged = true;
        paged_ec.page_size = 4;
        ServeEngine paged(model, qs_paged, paged_ec);

        std::vector<std::shared_future<RequestResult>> sf, pf;
        for (int64_t b = 0; b < B; ++b) {
            Request req;
            req.prompt.assign(batch.src.begin() + b * S,
                              batch.src.begin() + (b + 1) * S);
            req.src_pad.assign(batch.src_pad.begin() + b * S,
                               batch.src_pad.begin() + (b + 1) * S);
            req.max_new_tokens = 10;
            req.eos = Vocab::kEos;
            req.bos = Vocab::kBos;
            sf.push_back(slab.submit(req));
            pf.push_back(paged.submit(req));
        }
        slab.runUntilIdle();
        paged.runUntilIdle();
        for (int64_t b = 0; b < B; ++b) {
            const RequestResult sr = sf[static_cast<size_t>(b)].get();
            const RequestResult pr = pf[static_cast<size_t>(b)].get();
            ASSERT_EQ(RequestStatus::kOk, sr.status);
            ASSERT_EQ(RequestStatus::kOk, pr.status);
            EXPECT_EQ(sr.tokens, pr.tokens)
                << (packed_kv ? "packed" : "fp32") << " request " << b;
        }
    }
}

TEST(PagedKvEngine, SharedPrefixReuseSkipsPrefillAndStaysIdentical)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 31337);
    QuantSession qs(QuantConfig::posit8());
    QuantSession qs_plain(QuantConfig::posit8());

    EngineConfig ec{4, 48};
    ec.paged = true;
    ec.page_size = 4;
    ServeEngine engine(model, qs, ec);

    Rng rng(5);
    const std::vector<int32_t> shared = makePrompt(rng, cfg.vocab, 14);
    std::vector<Request> reqs;
    for (int r = 0; r < 4; ++r) {
        Request req;
        req.prompt = shared;
        const auto tail = makePrompt(rng, cfg.vocab, 2 + r);
        req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
        req.max_new_tokens = 6;
        req.eos = Vocab::kEos;
        reqs.push_back(req);
    }

    // Sequential: each follower finds the predecessors' donated pages.
    std::vector<RequestResult> results;
    for (const Request &req : reqs) {
        auto fut = engine.submit(req);
        engine.runUntilIdle();
        results.push_back(fut.get());
    }

    const PagedKVPool *pool = engine.pagedPool();
    ASSERT_NE(nullptr, pool);
    EXPECT_GT(pool->hits(), 0);
    EXPECT_GT(pool->reusedRows(), 0);
    EXPECT_EQ(0, results[0].prefix_reused_tokens) << "cold cache";
    for (size_t r = 0; r < results.size(); ++r) {
        ASSERT_EQ(RequestStatus::kOk, results[r].status);
        EXPECT_EQ(static_cast<int64_t>(reqs[r].prompt.size()),
                  results[r].prompt_tokens)
            << "prompt_tokens counts the full prompt on cache hits";
        if (r > 0) {
            // The 14 shared tokens cover 3 full pages (12 rows) plus
            // 2 rows of COW material.
            EXPECT_GE(results[r].prefix_reused_tokens, 12)
                << "request " << r;
        }
        const auto want = soloCausal(model, qs_plain, reqs[r].prompt,
                                     reqs[r].max_new_tokens,
                                     reqs[r].eos, reqs[r].sampling);
        EXPECT_EQ(want, results[r].tokens)
            << "cache-reused rows must be bit-identical, request " << r;
    }
    EXPECT_EQ(pool->lookups(), engine.metrics().prefix_lookups);
    EXPECT_GT(engine.metrics().prefix_hits, 0);
}

TEST(PagedKvEngine, SharedPrefixBurstPrefillsThePrefixOnce)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 31337);
    QuantSession qs(QuantConfig::posit8());
    QuantSession qs_plain(QuantConfig::posit8());

    EngineConfig ec{6, 48};
    ec.paged = true;
    ec.page_size = 4;
    ec.prefill_chunk = 8; // the leader's prefill spans several steps
    ServeEngine engine(model, qs, ec);

    Rng rng(6);
    const std::vector<int32_t> shared = makePrompt(rng, cfg.vocab, 14);
    const std::vector<int32_t> other = makePrompt(rng, cfg.vocab, 9);
    std::vector<Request> reqs;
    for (int r = 0; r < 5; ++r) {
        Request req;
        req.prompt = r == 2 ? other : shared;
        const auto tail = makePrompt(rng, cfg.vocab, 2 + r);
        req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
        req.max_new_tokens = 6;
        req.eos = Vocab::kEos;
        reqs.push_back(req);
    }

    // All submitted before the first step: one admission pass sees
    // the whole burst while nothing is cached yet.
    std::vector<std::shared_future<RequestResult>> futs;
    int64_t prompt_rows = 0;
    for (const Request &req : reqs) {
        futs.push_back(engine.submit(req));
        prompt_rows += static_cast<int64_t>(req.prompt.size());
    }
    engine.runUntilIdle();

    // The followers waited for the leader's donation and adopted its
    // 3 full shared pages (12 rows); request 2 shares nothing.
    int64_t reused = 0;
    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestResult res = futs[r].get();
        ASSERT_EQ(RequestStatus::kOk, res.status);
        if (r == 0 || r == 2)
            EXPECT_EQ(0, res.prefix_reused_tokens) << "request " << r;
        else
            EXPECT_GE(res.prefix_reused_tokens, 12) << "request " << r;
        reused += res.prefix_reused_tokens;
        const auto want = soloCausal(model, qs_plain, reqs[r].prompt,
                                     reqs[r].max_new_tokens,
                                     reqs[r].eos, reqs[r].sampling);
        EXPECT_EQ(want, res.tokens) << "request " << r;
    }
    const serve::ServeMetrics m = engine.metrics();
    EXPECT_EQ(3, m.prefix_hits);
    EXPECT_EQ(prompt_rows - reused, m.prefill_tokens_computed);
}

TEST(PagedKvEngine, DirtyPageReuseStaysBitIdentical)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 2024);
    QuantConfig qc = QuantConfig::posit8();
    qc.kv_packed = true;
    QuantSession qs(qc);
    QuantSession qs_plain(QuantConfig::posit8());

    // Tiny arena, no prefix cache: every round recycles pages still
    // holding the predecessor's codes. Page tables alone define
    // visibility, so the stale bytes must never leak into a decode.
    EngineConfig ec{1, 24};
    ec.paged = true;
    ec.page_size = 4;
    ec.n_pages = 6;
    ec.prefix_cache = false;
    ServeEngine engine(model, qs, ec);

    Rng rng(8);
    for (int round = 0; round < 4; ++round) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 4 + round * 3);
        req.max_new_tokens = 6;
        req.eos = Vocab::kEos;
        auto fut = engine.submit(req);
        engine.runUntilIdle();
        const RequestResult res = fut.get();
        ASSERT_EQ(RequestStatus::kOk, res.status);
        EXPECT_EQ(0, res.prefix_reused_tokens);
        const auto want = soloCausal(model, qs_plain, req.prompt,
                                     req.max_new_tokens, req.eos,
                                     req.sampling);
        EXPECT_EQ(want, res.tokens) << "round " << round;
    }
    EXPECT_EQ(0, engine.metrics().prefix_hits);
}

TEST(PagedKvEngine, OutOfPagesBackpressureParksFifoAndPreempts)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 11);
    QuantSession qs(QuantConfig::posit8());

    // 3 pages of 4 rows = 12 KV rows total; every request wants
    // 6 prompt + 20 generated rows, so none can finish and each must
    // be preempted (typed truncation) to let the next one in.
    EngineConfig ec{1, 64};
    ec.paged = true;
    ec.page_size = 4;
    ec.n_pages = 3;
    ec.prefill_chunk = 8; // whole prompt in one chunk: 2 pages + 1
                          // headroom = the entire arena per request
    ec.prefix_cache = false;
    ServeEngine engine(model, qs, ec);

    Rng rng(3);
    std::vector<std::shared_future<RequestResult>> futs;
    std::vector<Request> reqs;
    for (int r = 0; r < 3; ++r) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 6);
        req.max_new_tokens = 20;
        req.eos = -1;
        reqs.push_back(req);
        futs.push_back(engine.submit(req));
    }

    engine.step();
    EXPECT_EQ(1u, engine.activeCount())
        << "page budget admits one request at a time";
    EXPECT_EQ(2u, engine.pendingCount()) << "backpressure keeps FIFO";

    engine.runUntilIdle();
    for (size_t r = 0; r < futs.size(); ++r) {
        const RequestResult res = futs[r].get();
        EXPECT_EQ(RequestStatus::kCapacityExceeded, res.status)
            << "request " << r;
        // 12 cacheable rows - 6 prompt rows = 6 decode rows, plus the
        // first token sampled when prefill completed.
        EXPECT_EQ(7u, res.tokens.size()) << "request " << r;
    }
    EXPECT_EQ(3, engine.metrics().preempted);
    EXPECT_EQ(3, engine.metrics().completed);
    EXPECT_LE(engine.metrics().pages_resident_peak, 3);
}

TEST(PagedKvEngine, SlabEquivalentRamDefaultsAndFootprint)
{
    const ModelConfig cfg = tinyLmConfig();
    CausalLM model(cfg, 7);
    QuantSession qs_a(QuantConfig::posit8());
    QuantSession qs_b(QuantConfig::posit8());

    EngineConfig slab_ec{4, 32};
    ServeEngine slab(model, qs_a, slab_ec);

    EngineConfig paged_ec{4, 32};
    paged_ec.paged = true;
    paged_ec.page_size = 16;
    ServeEngine paged(model, qs_b, paged_ec);

    // Defaults derive the slab-equivalent arena: same resident bytes,
    // same per-sequence worst case.
    EXPECT_EQ(slab.residentKVBytes(), paged.residentKVBytes());
    EXPECT_EQ(slab.kvBytesPerSlot(), paged.kvBytesPerSlot());
    EXPECT_EQ(8, paged.pagedPool()->pageCount());
}

} // namespace
} // namespace qt8
