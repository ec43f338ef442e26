/**
 * @file
 * Packed 8-bit KV-cache contract tests.
 *
 * The central claim mirrors packed_gemm_test's, applied to the cache:
 * with `QuantConfig::kv_packed`, K/V panels live as uint8 grid codes
 * (packed on append/fill via Quantizer::gridIndex) and the decode-step
 * attention GEMVs decode those codes inside the micro-kernel — and the
 * result is bit-identical to the fp32 carrier-format cache at every
 * level: the GEMV kernels against extract+gemm, forwardIncremental
 * logits, cached greedy decode against the full-prefix reference, and
 * complete serve-engine token streams (including dirty slot reuse).
 * Ineligible formats (fp32, bf16, dynamic-scale int8) fall back to the
 * fp32 cache transparently, and a full cache refuses appends without
 * writing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "data/tasks.h"
#include "nn/model.h"
#include "serve/engine.h"
#include "serve/sampler.h"
#include "tensor/ops.h"
#include "tensor/packed.h"

namespace qt8 {
namespace {

using serve::EngineConfig;
using serve::FaultConfig;
using serve::FaultInjector;
using serve::Request;
using serve::RequestResult;
using serve::RequestStatus;
using serve::SamplingParams;
using serve::ServeEngine;

ModelConfig
tinyLmConfig()
{
    ModelConfig cfg;
    cfg.name = "kv-packed-test-lm";
    cfg.vocab = 48;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    return cfg;
}

/// The element-wise-static grid formats packed KV must be exact on.
std::vector<QuantConfig>
packableConfigs()
{
    QuantConfig e5m2 = QuantConfig::eightBit(
        "e5m2", Quantizer::byName("e5m2"), Quantizer::byName("e5m2"));
    return {QuantConfig::posit8(), QuantConfig::posit8es2(),
            QuantConfig::fp8(), e5m2};
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

/// Solo cached greedy decode on a *fp32-cache* session — the oracle the
/// packed-KV engine streams must reproduce bit for bit.
std::vector<int32_t>
soloCausal(CausalLM &model, QuantSession &qs,
           const std::vector<int32_t> &prompt, int64_t max_new,
           int32_t eos, const SamplingParams &sp)
{
    const int64_t cap = std::min(
        model.body.config().max_seq,
        static_cast<int64_t>(prompt.size()) + max_new + 1);
    DecodeState st = model.beginDecode(
        1, cap, qs.config().kvPackedFormat());
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

/// Fill a [rows, d_model] tensor with values on @p q's grid (what the
/// kGemm quant point leaves in the cache).
Tensor
onGridRows(Rng &rng, const Quantizer &q, int64_t rows, int64_t d_model)
{
    Tensor t({rows, d_model});
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform() * 8.0 - 4.0);
    q.quantizeInPlace(t.data(), static_cast<size_t>(t.numel()));
    return t;
}

// --- Kernel level ----------------------------------------------------

/// Bitwise equality, except that a NaN need only meet a NaN (kernel and
/// reference may carry different NaN payloads).
void
expectSameFloats(const float *got, const float *want, int64_t n,
                 const std::string &what)
{
    for (int64_t i = 0; i < n; ++i) {
        if (std::isnan(want[i])) {
            ASSERT_TRUE(std::isnan(got[i])) << what << " at " << i;
            continue;
        }
        uint32_t g = 0, w = 0;
        std::memcpy(&g, got + i, sizeof g);
        std::memcpy(&w, want + i, sizeof w);
        ASSERT_EQ(g, w) << what << " at " << i << ": " << got[i]
                        << " != " << want[i];
    }
}

int64_t
countNaN(const float *p, int64_t n)
{
    return std::count_if(p, p + n, [](float x) { return std::isnan(x); });
}

/// Rows [0, rows) of a [*, d_model] code panel laid out in pages of
/// @p ps rows in reverse order: logical page p lives at physical page
/// n_pages-1-p (@p pages receives that table). The buffer is exactly
/// n_pages*ps rows long, so logical page 0 ends at the buffer's end.
std::vector<uint8_t>
reversedPages(const uint8_t *codes, int64_t rows, int64_t d_model,
              int64_t ps, std::vector<int32_t> &pages)
{
    const int64_t n_pages = (rows + ps - 1) / ps;
    std::vector<uint8_t> out(static_cast<size_t>(n_pages * ps * d_model),
                             0);
    pages.assign(static_cast<size_t>(n_pages), 0);
    for (int64_t p = 0; p < n_pages; ++p)
        pages[static_cast<size_t>(p)] =
            static_cast<int32_t>(n_pages - 1 - p);
    for (int64_t r = 0; r < rows; ++r) {
        const int64_t phys =
            pages[static_cast<size_t>(r / ps)] * ps + r % ps;
        std::memcpy(out.data() + phys * d_model, codes + r * d_model,
                    static_cast<size_t>(d_model));
    }
    return out;
}

using DotRowsPagedFn = void (*)(const float *, const uint8_t *,
                                const double *, const int32_t *, int64_t,
                                int64_t, int64_t, int64_t, float *,
                                PackedKvScratch &);

TEST(KvPacked, GemvKernelsBitIdenticalToExtractPlusGemm)
{
    // d_head = 12: every head ends in a ragged 4-column strip, and the
    // last head's strip ends at the code row's end.
    const int64_t d_model = 48, d_head = 12, cap = 40, ps = 4;
    // One reserved NaN code in one K row and one V row (both head 0):
    // only the score of that K row and the context column of that V
    // element may go NaN.
    const int64_t nan_k_row = 5, nan_k_col = 2;
    const int64_t nan_v_row = 3, nan_v_col = 7;
    // The paged kernels on both arms: whichever the host picks, and the
    // panel arm every non-AVX-512 host runs.
    const std::vector<std::pair<const char *, DotRowsPagedFn>> dot_arms = {
        {"paged", packedDotRowsPaged},
        {"paged panel", detail::packedDotRowsPagedPanel}};
    const std::vector<std::pair<const char *, DotRowsPagedFn>> acc_arms = {
        {"paged", packedAccumRowsPaged},
        {"paged panel", detail::packedAccumRowsPagedPanel}};
    Rng rng(11);
    std::vector<QuantConfig> cfgs = packableConfigs();
    for (const QuantConfig &base : cfgs) {
        QuantConfig qc = base;
        qc.kv_packed = true;
        const Quantizer *fmt = qc.kvPackedFormat();
        ASSERT_NE(nullptr, fmt) << qc.name;

        // Two caches fed identical rows: one packed, one fp32.
        KVCache packed, plain;
        packed.reset(1, cap, d_model, fmt);
        plain.reset(1, cap, d_model);
        EXPECT_TRUE(packed.packed());
        EXPECT_FALSE(plain.packed());

        // Ragged lengths exercise the 8-row/8-col remainder lanes.
        for (int64_t len : {1, 7, 8, 9, 31}) {
            packed.len = 0;
            plain.len = 0;
            const bool poisoned = len > nan_k_row && len > nan_v_row;
            for (int64_t t = 0; t < len; ++t) {
                Tensor kr = onGridRows(rng, qc.fwd, 1, d_model);
                Tensor vr = onGridRows(rng, qc.fwd, 1, d_model);
                if (poisoned && t == nan_k_row)
                    kr.data()[nan_k_col] =
                        std::numeric_limits<float>::quiet_NaN();
                if (poisoned && t == nan_v_row)
                    vr.data()[nan_v_col] =
                        std::numeric_limits<float>::quiet_NaN();
                ASSERT_TRUE(packed.append(kr, vr));
                ASSERT_TRUE(plain.append(kr, vr));
            }
            std::vector<int32_t> pages;
            const std::vector<uint8_t> k_paged = reversedPages(
                packed.k_codes.data(), len, d_model, ps, pages);
            const std::vector<uint8_t> v_paged = reversedPages(
                packed.v_codes.data(), len, d_model, ps, pages);

            Tensor q({1, d_head}), wts({1, len});
            for (int64_t j = 0; j < d_head; ++j)
                q.data()[j] =
                    static_cast<float>(rng.uniform() * 2.0 - 1.0);
            for (int64_t r = 0; r < len; ++r)
                wts.data()[r] = static_cast<float>(rng.uniform());

            PackedKvScratch scratch;
            for (int h = 0; h < d_model / d_head; ++h) {
                const std::string what = qc.name + " len=" +
                                         std::to_string(len) + " head=" +
                                         std::to_string(h);
                // Reference: extract the head slice to fp32, gemm.
                Tensor kh({len, d_head}), vh({len, d_head});
                for (int64_t r = 0; r < len; ++r) {
                    std::memcpy(kh.data() + r * d_head,
                                plain.k.data() + r * d_model +
                                    h * d_head,
                                sizeof(float) *
                                    static_cast<size_t>(d_head));
                    std::memcpy(vh.data() + r * d_head,
                                plain.v.data() + r * d_model +
                                    h * d_head,
                                sizeof(float) *
                                    static_cast<size_t>(d_head));
                }
                Tensor want_s({1, len}), got_s({1, len});
                gemm(q, false, kh, true, want_s);
                packedDotRows(q.data(),
                              packed.k_codes.data() + h * d_head,
                              packed.table.data(), len, d_head,
                              d_model, got_s.data(), scratch);
                expectSameFloats(got_s.data(), want_s.data(), len,
                                 what + " dot");
                const bool k_nan = poisoned && h == 0;
                EXPECT_EQ(k_nan ? 1 : 0, countNaN(got_s.data(), len))
                    << what;
                if (k_nan) {
                    EXPECT_TRUE(std::isnan(got_s.data()[nan_k_row])) << what;
                }

                Tensor want_c({1, d_head}), got_c({1, d_head});
                gemm(wts, false, vh, false, want_c);
                packedAccumRows(wts.data(),
                                packed.v_codes.data() + h * d_head,
                                packed.table.data(), len, d_head,
                                d_model, got_c.data(), scratch);
                expectSameFloats(got_c.data(), want_c.data(), d_head,
                                 what + " accum");
                const bool v_nan = poisoned && h == 0;
                EXPECT_EQ(v_nan ? 1 : 0, countNaN(got_c.data(), d_head))
                    << what;
                if (v_nan) {
                    EXPECT_TRUE(std::isnan(got_c.data()[nan_v_col])) << what;
                }

                // The same rows through a reversed page table.
                for (const auto &[arm, fn] : dot_arms) {
                    fn(q.data(), k_paged.data() + h * d_head,
                       packed.table.data(), pages.data(), ps, len, d_head,
                       d_model, got_s.data(), scratch);
                    expectSameFloats(got_s.data(), want_s.data(), len,
                                     what + " dot " + arm);
                }
                for (const auto &[arm, fn] : acc_arms) {
                    fn(wts.data(), v_paged.data() + h * d_head,
                       packed.table.data(), pages.data(), ps, len, d_head,
                       d_model, got_c.data(), scratch);
                    expectSameFloats(got_c.data(), want_c.data(), d_head,
                                     what + " accum " + arm);
                }
            }
        }
    }
}

TEST(KvPacked, NaNRowsPackToReservedCodeAndDecodeNonFinite)
{
    QuantConfig qc = QuantConfig::posit8();
    qc.kv_packed = true;
    const Quantizer *fmt = qc.kvPackedFormat();
    ASSERT_NE(nullptr, fmt);

    const int64_t d_model = 8;
    KVCache cache;
    cache.reset(1, 4, d_model, fmt);

    Tensor kr({1, d_model}), vr({1, d_model});
    for (int64_t j = 0; j < d_model; ++j) {
        kr.data()[j] = 0.5f;
        vr.data()[j] = 0.25f;
    }
    kr.data()[3] = std::numeric_limits<float>::quiet_NaN();
    ASSERT_TRUE(cache.append(kr, vr));

    // The NaN element took an out-of-grid code whose table entry is
    // NaN, so the QK^T GEMV over this row goes non-finite — exactly
    // what the serving engine's per-row guard needs to see.
    EXPECT_GE(cache.k_codes[3],
              static_cast<uint8_t>(fmt->gridValues().size()));
    Tensor q({1, d_model});
    for (int64_t j = 0; j < d_model; ++j)
        q.data()[j] = 1.0f;
    float score = 0.0f;
    PackedKvScratch scratch;
    packedDotRows(q.data(), cache.k_codes.data(), cache.table.data(), 1,
                  d_model, d_model, &score, scratch);
    EXPECT_FALSE(std::isfinite(score));
}

// --- Cache level -----------------------------------------------------

TEST(KvPacked, CapacityOverflowAppendReturnsFalseWithoutWriting)
{
    QuantConfig qc = QuantConfig::fp8();
    qc.kv_packed = true;
    const Quantizer *fmt = qc.kvPackedFormat();
    ASSERT_NE(nullptr, fmt);

    const int64_t d_model = 8;
    Rng rng(5);
    KVCache cache;
    cache.reset(2, 2, d_model, fmt);
    ASSERT_TRUE(cache.append(onGridRows(rng, qc.fwd, 2, d_model),
                             onGridRows(rng, qc.fwd, 2, d_model)));
    ASSERT_TRUE(cache.append(onGridRows(rng, qc.fwd, 2, d_model),
                             onGridRows(rng, qc.fwd, 2, d_model)));
    EXPECT_FALSE(cache.canAppend());

    const std::vector<uint8_t> k_before = cache.k_codes;
    const std::vector<uint8_t> v_before = cache.v_codes;
    EXPECT_FALSE(cache.append(onGridRows(rng, qc.fwd, 2, d_model),
                              onGridRows(rng, qc.fwd, 2, d_model)));
    EXPECT_EQ(2, cache.len);
    EXPECT_EQ(k_before, cache.k_codes);
    EXPECT_EQ(v_before, cache.v_codes);

    // Same refusal on a full packed slot pool.
    KVSlots slots;
    slots.reset(1, 1, d_model, fmt);
    const Tensor kr = onGridRows(rng, qc.fwd, 1, d_model);
    ASSERT_TRUE(slots.append(0, kr.data(), kr.data()));
    EXPECT_FALSE(slots.append(0, kr.data(), kr.data()));
    EXPECT_EQ(1, slots.len[0]);
}

TEST(KvPacked, ResidentBytesQuartered)
{
    QuantConfig qc = QuantConfig::posit8();
    qc.kv_packed = true;
    const Quantizer *fmt = qc.kvPackedFormat();
    ASSERT_NE(nullptr, fmt);

    KVSlots packed, plain;
    packed.reset(4, 16, 32, fmt);
    plain.reset(4, 16, 32);
    EXPECT_EQ(plain.residentBytes(), 4u * packed.residentBytes());

    KVCache pc, pl;
    pc.reset(2, 16, 32, fmt);
    pl.reset(2, 16, 32);
    EXPECT_EQ(pl.residentBytes(), 4u * pc.residentBytes());
}

TEST(KvPacked, IneligibleFormatsFallBackToFp32Cache)
{
    for (QuantConfig qc :
         {QuantConfig::fp32(), QuantConfig::bf16(),
          QuantConfig::int8PerTensor(), QuantConfig::int8PerChannel()}) {
        qc.kv_packed = true;
        EXPECT_EQ(nullptr, qc.kvPackedFormat()) << qc.name;
    }
    // Eligible grids gate on the flag itself.
    QuantConfig on = QuantConfig::posit8();
    EXPECT_EQ(nullptr, on.kvPackedFormat());
    on.kv_packed = true;
    EXPECT_EQ(&on.fwd, on.kvPackedFormat());

    // reset(nullptr) is the fp32 path regardless of the flag upstream.
    KVCache cache;
    cache.reset(1, 4, 8, nullptr);
    EXPECT_FALSE(cache.packed());
    EXPECT_TRUE(cache.k_codes.empty());
}

// --- Model level -----------------------------------------------------

TEST(KvPacked, IncrementalLogitsBitIdenticalToFp32Cache)
{
    const ModelConfig cfg = tinyLmConfig();
    const int64_t B = 3, steps = 12;
    for (const QuantConfig &qc : packableConfigs()) {
        CausalLM model(cfg, 4242);
        QuantConfig packed_qc = qc;
        packed_qc.kv_packed = true;
        QuantSession qs_plain(qc);
        QuantSession qs_packed(packed_qc);

        DecodeState st_plain = model.beginDecode(B, steps + 1);
        DecodeState st_packed = model.beginDecode(
            B, steps + 1, qs_packed.config().kvPackedFormat());
        ASSERT_TRUE(st_packed.self_kv[0].packed()) << qc.name;

        Rng rng(303);
        std::vector<int32_t> toks(static_cast<size_t>(B));
        for (int64_t s = 0; s < steps; ++s) {
            for (auto &t : toks) {
                t = static_cast<int32_t>(
                    Vocab::kFirstContent +
                    rng.randint(cfg.vocab - Vocab::kFirstContent));
            }
            const Tensor a =
                model.forwardIncremental(qs_plain, toks, st_plain);
            const Tensor b =
                model.forwardIncremental(qs_packed, toks, st_packed);
            ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                                     sizeof(float) *
                                         static_cast<size_t>(a.numel())))
                << qc.name << " step " << s;
        }
    }
}

TEST(KvPacked, Seq2SeqGreedyDecodeMatchesReference)
{
    // Exercises the packed *cross*-attention prime (KVCache::fill) as
    // well as the self cache: greedyDecode runs on packed caches, the
    // reference re-runs full prefix forwards with no cache at all.
    ModelConfig cfg = ModelConfig::whisperTinyLike();
    cfg.vocab = 48;
    const int64_t B = 3, S = 12, max_new = 10;
    const Seq2SeqTask task(cfg.vocab, S, 8);
    Rng rng(77);
    const Seq2SeqBatch batch = task.sample(rng, B);

    for (const QuantConfig &base :
         {QuantConfig::posit8(), QuantConfig::fp8()}) {
        QuantConfig qc = base;
        qc.kv_packed = true;
        Seq2Seq model(cfg, 999);
        QuantSession qs(qc);
        const auto got = model.greedyDecode(
            qs, batch.src, B, S, batch.src_pad.data(), max_new,
            Vocab::kBos, Vocab::kEos);
        const auto want = model.greedyDecodeReference(
            qs, batch.src, B, S, batch.src_pad.data(), max_new,
            Vocab::kBos, Vocab::kEos);
        EXPECT_EQ(want, got) << base.name;
    }
}

// --- Serving level ---------------------------------------------------

TEST(KvPacked, EngineTokenStreamsBitIdenticalAcrossCacheModes)
{
    const ModelConfig cfg = tinyLmConfig();
    const int64_t n_requests = 6, max_new = 10;

    for (const QuantConfig &qc : packableConfigs()) {
        CausalLM model(cfg, 4242);
        QuantConfig packed_qc = qc;
        packed_qc.kv_packed = true;
        QuantSession qs_packed(packed_qc);
        QuantSession qs_plain(qc);

        Rng rng(99);
        std::vector<Request> reqs;
        for (int64_t r = 0; r < n_requests; ++r) {
            Request req;
            req.prompt = makePrompt(rng, cfg.vocab, 3 + r % 4);
            req.max_new_tokens = max_new - r % 3;
            req.eos = Vocab::kEos;
            if (r % 2 == 1) {
                req.sampling.temperature = 0.8f;
                req.sampling.top_k = 8;
                req.sampling.seed = 1000 + static_cast<uint64_t>(r);
            }
            reqs.push_back(req);
        }

        // Packed-KV engine, fewer slots than requests (dirty reuse).
        ServeEngine engine(model, qs_packed, EngineConfig{2, 32});
        std::vector<std::shared_future<RequestResult>> futs;
        for (size_t r = 0; r < reqs.size(); ++r) {
            futs.push_back(engine.submit(reqs[r]));
            if (r % 2 == 1)
                engine.step();
        }
        engine.runUntilIdle();

        for (size_t r = 0; r < reqs.size(); ++r) {
            const RequestResult res = futs[r].get();
            ASSERT_EQ(RequestStatus::kOk, res.status) << qc.name;
            // Oracle: solo decode on the *fp32* cache — cross-mode
            // identity, not just packed-vs-packed consistency.
            const auto want =
                soloCausal(model, qs_plain, reqs[r].prompt,
                           reqs[r].max_new_tokens, reqs[r].eos,
                           reqs[r].sampling);
            EXPECT_EQ(want, res.tokens) << qc.name << " request " << r;
        }
    }
}

TEST(KvPacked, DirtySlotReuseStaysBitIdentical)
{
    const ModelConfig cfg = tinyLmConfig();
    QuantConfig qc = QuantConfig::posit8();
    qc.kv_packed = true;
    CausalLM model(cfg, 31337);
    QuantSession qs(qc);
    QuantSession qs_plain(QuantConfig::posit8());

    // One slot: every request after the first inherits a dirty slot
    // whose code panels still hold the predecessor's rows.
    ServeEngine engine(model, qs, EngineConfig{1, 24});
    Rng rng(8);
    for (int round = 0; round < 3; ++round) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 4 + round);
        req.max_new_tokens = 6;
        req.eos = Vocab::kEos;
        auto fut = engine.submit(req);
        engine.runUntilIdle();
        const RequestResult res = fut.get();
        ASSERT_EQ(RequestStatus::kOk, res.status);
        const auto want = soloCausal(model, qs_plain, req.prompt,
                                     req.max_new_tokens, req.eos,
                                     req.sampling);
        EXPECT_EQ(want, res.tokens) << "round " << round;
    }
}

TEST(KvPacked, FaultInjectorFlipsPackedCodesAndIsolationHolds)
{
    const ModelConfig cfg = tinyLmConfig();
    QuantConfig qc = QuantConfig::posit8();
    qc.kv_packed = true;
    CausalLM model(cfg, 2025);
    QuantSession qs(qc);
    QuantSession qs_plain(QuantConfig::posit8());

    FaultConfig fc;
    fc.seed = 42;
    fc.kv_bitflip_rate = 1.0; // flip one code bit every step
    FaultInjector fault(fc);

    EngineConfig ec{3, 32};
    ec.fault = &fault;
    ServeEngine engine(model, qs, ec);

    Rng rng(17);
    std::vector<Request> reqs;
    std::vector<std::shared_future<RequestResult>> futs;
    for (int r = 0; r < 6; ++r) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 3 + r % 3);
        req.max_new_tokens = 8;
        req.eos = Vocab::kEos;
        reqs.push_back(req);
        futs.push_back(engine.submit(req));
    }
    engine.runUntilIdle();

    EXPECT_GT(fault.stats().bits_flipped, 0);
    for (size_t r = 0; r < futs.size(); ++r) {
        const RequestResult res = futs[r].get();
        // Every future resolves typed: a corrupted code decodes to a
        // wrong grid value (kOk with divergent tokens) or to the NaN
        // tail (kNumericFault) — never a crash, never a hang.
        ASSERT_TRUE(res.status == RequestStatus::kOk ||
                    res.status == RequestStatus::kNumericFault)
            << serve::toString(res.status);
        if (!fault.wasFaulted(res.id)) {
            // Untouched neighbours decode on bit-identically.
            ASSERT_EQ(RequestStatus::kOk, res.status);
            const auto want = soloCausal(model, qs_plain, reqs[r].prompt,
                                         reqs[r].max_new_tokens,
                                         reqs[r].eos, reqs[r].sampling);
            EXPECT_EQ(want, res.tokens) << "request " << r;
        }
    }
}

} // namespace
} // namespace qt8
