/**
 * @file
 * Contract tests for true 8-bit packed weights and the fused quantized
 * GEMM:
 *
 *  1. Exhaustive pack/unpack round trips per 8-bit grid format — every
 *     grid value and random data decode bit-identically to the fake-
 *     quantized fp32 tensor.
 *  2. gemmQuantized vs decode-then-blocked-gemm and vs the unfused
 *     reference, bit for bit, across shapes (decode GEMVs included),
 *     both transposes, and alpha/beta variants.
 *  3. Fused epilogue (bias, quant, GeLU, residual) vs the same stages
 *     run as separate full-tensor passes — values bit-identical, health
 *     counters exact (sums to tolerance: tile order differs). The
 *     small-m gather arm and the panel arm agree bit for bit.
 *  4. Model-level identity: CausalLM forward / incremental decode /
 *     the continuous-batching serve engine with weights_packed on emit
 *     bit-identical logits and tokens to the fake-quantized path.
 */
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/tasks.h"
#include "nn/model.h"
#include "numerics/float_bits.h"
#include "serve/engine.h"
#include "serve/sampler.h"
#include "tensor/ops.h"
#include "tensor/packed.h"
#include "tensor/random.h"

namespace qt8 {
namespace {

using serve::EngineConfig;
using serve::Request;
using serve::RequestResult;
using serve::RequestStatus;
using serve::ServeEngine;

const std::vector<std::string> kPackedFormats = {
    "posit(8,1)", "posit(8,2)", "e4m3", "e5m2"};

void
expectBitIdentical(const Tensor &got, const Tensor &want,
                   const std::string &what)
{
    ASSERT_EQ(got.numel(), want.numel()) << what;
    for (int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(bits_from_float(got.at(i)), bits_from_float(want.at(i)))
            << what << " at flat index " << i << ": " << got.at(i)
            << " != " << want.at(i);
    }
}

TEST(PackedTensor, ExhaustiveRoundTripPerFormat)
{
    for (const std::string &name : kPackedFormats) {
        const Quantizer q = Quantizer::byName(name);
        ASSERT_TRUE(PackedTensor::packable(q)) << name;
        const std::vector<float> &vals = q.gridValues();
        ASSERT_LE(vals.size(), 256u) << name;

        // Every representable value must survive pack -> unpack with
        // its own code (quantize is idempotent on grid points).
        Tensor grid({1, static_cast<int64_t>(vals.size())});
        for (size_t i = 0; i < vals.size(); ++i)
            grid.data()[i] = vals[i];
        const PackedTensor pg = PackedTensor::pack(grid, q);
        EXPECT_EQ(pg.packedBytes(), vals.size()) << name;
        EXPECT_EQ(pg.fp32Bytes(), vals.size() * sizeof(float)) << name;
        for (size_t i = 0; i < vals.size(); ++i)
            EXPECT_EQ(pg.codes()[i], i) << name << " value " << vals[i];
        expectBitIdentical(pg.unpack(), grid, name + " grid values");

        // Random data decodes to exactly the fake-quantized tensor.
        Rng rng(7);
        Tensor t({37, 23});
        rng.fillNormal(t, 4.0);
        t.data()[0] = 0.0f;
        t.data()[1] = -0.0f;
        t.data()[2] = 1e30f;  // saturates
        t.data()[3] = -1e30f;
        t.data()[4] = 1e-30f; // underflows
        Tensor want = t;
        q.quantizeInPlace(want.data(), static_cast<size_t>(want.numel()));
        expectBitIdentical(PackedTensor::pack(t, q).unpack(), want,
                           name + " random");

        // transposed() holds the codes of the transpose (37 rows span a
        // ragged second 32-row block).
        const PackedTensor pt = PackedTensor::pack(t, q).transposed();
        ASSERT_EQ(pt.dim(0), t.dim(1)) << name;
        ASSERT_EQ(pt.dim(1), t.dim(0)) << name;
        Tensor want_t({t.dim(1), t.dim(0)});
        for (int64_t r = 0; r < t.dim(0); ++r)
            for (int64_t c = 0; c < t.dim(1); ++c)
                want_t.at(c, r) = want.at(r, c);
        expectBitIdentical(pt.unpack(), want_t, name + " transposed");
    }
}

TEST(PackedTensor, RejectsUnpackableInputs)
{
    const Quantizer q = Quantizer::byName("posit8");
    EXPECT_FALSE(PackedTensor::packable(Quantizer::identity()));
    EXPECT_FALSE(PackedTensor::packable(Quantizer::int8()));
    EXPECT_FALSE(PackedTensor::packable(Quantizer::bf16()));
    EXPECT_THROW(PackedTensor::pack(Tensor({4}), q),
                 std::invalid_argument);
    Tensor bad({2, 2});
    bad.data()[3] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(PackedTensor::pack(bad, q), std::invalid_argument);
}

struct Shape {
    int64_t m, n, k;
};

/// Small-m shapes on both sides of the gather arm's m < 8 crossover:
/// n covers one strip, an odd strip count and a ragged tail (300 =
/// 9 groups of 32 + 12); k covers 1, odd, and beyond one panel chunk.
std::vector<Shape>
smallMShapes()
{
    std::vector<Shape> out;
    for (const int64_t m : {1, 2, 5, 7, 8})
        for (const int64_t n : {8, 24, 300})
            for (const int64_t k : {1, 77, 513})
                out.push_back({m, n, k});
    return out;
}

/// Shapes for the register-blocked m >= 8 panel arms: m covers one
/// 4-row block, a remainder of 1 and 3 rows, one 64-row tile with and
/// without a ragged second tile, and several tiles; n covers less than
/// one 32-column panel, a ragged panel and a ragged last panel; k as
/// for smallMShapes (513 spans five 128-row panel chunks).
std::vector<Shape>
blockedShapes()
{
    std::vector<Shape> out;
    for (const int64_t m : {8, 9, 12, 31, 33, 64, 65, 512})
        for (const int64_t n : {8, 24, 33, 300})
            for (const int64_t k : {1, 77, 513})
                out.push_back({m, n, k});
    return out;
}

TEST(GemmQuantized, BitIdenticalToDecodeThenGemm)
{
    std::vector<Shape> shapes = {
        {1, 64, 64},   // decode GEMV, exact tile
        {1, 300, 513}, // decode GEMV, ragged n, k split across chunks
        {7, 5, 3},     // smaller than one tile
        {64, 8, 256},  // exactly one tile and one k chunk
        {65, 129, 66}, // every dimension ragged
        {3, 200, 1},   // k = 1
    };
    for (const Shape &s : smallMShapes())
        shapes.push_back(s);
    for (const Shape &s : blockedShapes())
        shapes.push_back(s);
    const std::vector<std::pair<float, float>> scales = {
        {1.0f, 0.0f}, {0.5f, 1.0f}, {2.0f, -0.5f}};
    const Quantizer q = Quantizer::byName("posit8");

    Rng rng(17);
    for (const Shape &s : shapes) {
        for (const bool ta : {false, true}) {
            for (const bool tw : {false, true}) {
                Tensor a(ta ? std::vector<int64_t>{s.k, s.m}
                            : std::vector<int64_t>{s.m, s.k});
                Tensor w(tw ? std::vector<int64_t>{s.n, s.k}
                            : std::vector<int64_t>{s.k, s.n});
                rng.fillNormal(a);
                rng.fillNormal(w);
                const PackedTensor pw = PackedTensor::pack(w, q);
                const Tensor wf = pw.unpack();
                for (const auto &[alpha, beta] : scales) {
                    const std::string what =
                        "m=" + std::to_string(s.m) +
                        " n=" + std::to_string(s.n) +
                        " k=" + std::to_string(s.k) +
                        " ta=" + std::to_string(ta) +
                        " tw=" + std::to_string(tw) +
                        " alpha=" + std::to_string(alpha) +
                        " beta=" + std::to_string(beta);
                    Tensor c0({s.m, s.n});
                    rng.fillNormal(c0); // beta path must read old C
                    Tensor c1 = c0;
                    Tensor c2 = c0;
                    gemmQuantized(a, ta, pw, tw, c0, alpha, beta);
                    gemm(a, ta, wf, tw, c1, alpha, beta);
                    gemmQuantizedReference(a, ta, pw, tw, c2, alpha,
                                           beta);
                    expectBitIdentical(c0, c1, what + " vs blocked");
                    expectBitIdentical(c0, c2, what + " vs reference");
                }
            }
        }
    }
}

/// The FFN fc1 tail (bias, carrier, activation-point quant, GeLU,
/// carrier) or fc2 tail (bias, carrier, residual-point quant, residual
/// add, carrier), each quant stage accumulating into @p h[0..2].
GemmEpilogue
ffnTail(bool residual_tail, const Tensor &bias, const Tensor &skip,
        const Quantizer &fwd, const Quantizer &carrier, QuantHealth *h)
{
    GemmEpilogue e;
    e.bias(bias.data());
    e.quant(&carrier, &h[0]);
    e.quant(&fwd, &h[1]);
    if (residual_tail)
        e.residual(skip.data());
    else
        e.gelu();
    e.quant(&carrier, &h[2]);
    return e;
}

void
expectSameHealth(const QuantHealth *hf, const QuantHealth *hu,
                 const std::string &what)
{
    for (int s = 0; s < 3; ++s) {
        EXPECT_EQ(hf[s].count, hu[s].count) << what << " stage " << s;
        EXPECT_EQ(hf[s].saturated, hu[s].saturated) << what << " " << s;
        EXPECT_EQ(hf[s].underflow, hu[s].underflow) << what << " " << s;
        EXPECT_EQ(hf[s].nonfinite, hu[s].nonfinite) << what << " " << s;
        EXPECT_DOUBLE_EQ(hf[s].amax, hu[s].amax) << what << " " << s;
        // Tile-order double accumulation: equal to tolerance only.
        EXPECT_NEAR(hf[s].abs_err_sum, hu[s].abs_err_sum,
                    1e-9 * (1.0 + hu[s].abs_err_sum))
            << what << " " << s;
    }
}

TEST(GemmQuantized, FusedEpilogueBitIdenticalToSeparatePasses)
{
    const Quantizer fwd = Quantizer::byName("e4m3");
    const Quantizer carrier = Quantizer::bf16();
    std::vector<Shape> shapes = {{33, 70, 129}};
    for (const Shape &s : smallMShapes())
        shapes.push_back(s);
    for (const Shape &s : blockedShapes())
        shapes.push_back(s);

    Rng rng(23);
    for (const Shape &s : shapes) {
        for (const bool ta : {false, true}) {
            for (const bool tw : {true, false}) {
                Tensor a(ta ? std::vector<int64_t>{s.k, s.m}
                            : std::vector<int64_t>{s.m, s.k});
                Tensor bias({s.n}), skip({s.m, s.n});
                Tensor w(tw ? std::vector<int64_t>{s.n, s.k}
                            : std::vector<int64_t>{s.k, s.n});
                rng.fillNormal(a);
                rng.fillNormal(w);
                rng.fillNormal(bias, 0.5);
                rng.fillNormal(skip);
                const PackedTensor pw = PackedTensor::pack(w, fwd);
                for (const bool residual_tail : {false, true}) {
                    const std::string what =
                        "m=" + std::to_string(s.m) +
                        " n=" + std::to_string(s.n) +
                        " k=" + std::to_string(s.k) +
                        " ta=" + std::to_string(ta) +
                        " tw=" + std::to_string(tw) +
                        (residual_tail ? " residual tail" : " gelu tail");
                    QuantHealth hf[3], hu[3];
                    const GemmEpilogue fused =
                        ffnTail(residual_tail, bias, skip, fwd, carrier, hf);
                    const GemmEpilogue unfused =
                        ffnTail(residual_tail, bias, skip, fwd, carrier, hu);
                    Tensor c0({s.m, s.n}), c1({s.m, s.n});
                    gemmQuantized(a, ta, pw, tw, c0, 1.0f, 0.0f, &fused);
                    gemmQuantizedReference(a, ta, pw, tw, c1, 1.0f, 0.0f,
                                           &unfused);
                    expectBitIdentical(c0, c1, what);
                    expectSameHealth(hf, hu, what);
                }
            }
        }
    }
}

TEST(GemmQuantized, EveryArmBitIdenticalToReference)
{
    // gemmQuantized picks one arm per shape and host; every arm this
    // host can run (the portable one-row kernel included) must produce
    // the reference's bits, beta path and epilogue health included.
    using detail::GemmArm;
    const Quantizer fwd = Quantizer::byName("posit(8,1)");
    const Quantizer carrier = Quantizer::bf16();
    std::vector<Shape> shapes = {{8, 33, 77},  {9, 300, 513}, {31, 24, 1},
                                 {33, 8, 77},  {65, 33, 129}, {4, 40, 77},
                                 {1, 300, 513}};
    Rng rng(31);
    for (const GemmArm arm :
         {GemmArm::kGather, GemmArm::kPanel32, GemmArm::kPanelRow,
          GemmArm::kPanelPortable}) {
        if (!detail::gemmArmAvailable(arm))
            continue;
        for (const Shape &s : shapes) {
            for (const bool ta : {false, true}) {
                for (const bool tw : {false, true}) {
                    if (arm == GemmArm::kGather && (s.m >= 8 || tw))
                        continue;
                    Tensor a(ta ? std::vector<int64_t>{s.k, s.m}
                                : std::vector<int64_t>{s.m, s.k});
                    Tensor w(tw ? std::vector<int64_t>{s.n, s.k}
                                : std::vector<int64_t>{s.k, s.n});
                    Tensor bias({s.n}), skip({s.m, s.n});
                    rng.fillNormal(a);
                    rng.fillNormal(w);
                    rng.fillNormal(bias, 0.5);
                    rng.fillNormal(skip);
                    const PackedTensor pw = PackedTensor::pack(w, fwd);
                    for (const bool residual_tail : {false, true}) {
                        const std::string what =
                            std::string(detail::gemmArmName(arm)) +
                            " m=" + std::to_string(s.m) +
                            " n=" + std::to_string(s.n) +
                            " k=" + std::to_string(s.k) +
                            " ta=" + std::to_string(ta) +
                            " tw=" + std::to_string(tw) +
                            (residual_tail ? " residual" : " gelu");
                        QuantHealth hf[3], hu[3];
                        const GemmEpilogue ef = ffnTail(
                            residual_tail, bias, skip, fwd, carrier, hf);
                        const GemmEpilogue eu = ffnTail(
                            residual_tail, bias, skip, fwd, carrier, hu);
                        Tensor c0({s.m, s.n});
                        rng.fillNormal(c0);
                        Tensor c1 = c0;
                        detail::gemmQuantizedOn(arm, a, ta, pw, tw, c0, 0.5f,
                                                1.0f, &ef);
                        gemmQuantizedReference(a, ta, pw, tw, c1, 0.5f, 1.0f,
                                               &eu);
                        expectBitIdentical(c0, c1, what);
                        expectSameHealth(hf, hu, what);
                    }
                }
            }
        }
    }
    // An arm that cannot run the shape is refused, not run.
    Tensor a({8, 4}), c({8, 4});
    const PackedTensor pw = PackedTensor::pack(Tensor({4, 4}), fwd);
    EXPECT_THROW(detail::gemmQuantizedOn(GemmArm::kGather, a, false, pw,
                                         false, c),
                 std::invalid_argument);
}

TEST(GemmQuantized, GeluTableMatchesStagedTailOnEveryInput)
{
    // The fc1 tail quant(q) -> gelu -> quant(carrier) runs as a table
    // on q's code. Drive every grid code, each grid value +-1 ulp, +-inf
    // and NaN through it: y = a * 1.0 with k = 1 makes the GEMM output
    // exactly the chosen inputs. Health is on, so the tabled stages'
    // counters are checked against the separate passes too.
    for (const std::string name : {"posit(8,1)", "e4m3"}) {
        const Quantizer q = Quantizer::byName(name);
        for (const Quantizer &carrier :
             {Quantizer::bf16(), Quantizer::byName("posit(8,1)")}) {
            std::vector<float> ins;
            for (const float v : q.gridValues()) {
                ins.push_back(v);
                ins.push_back(std::nextafter(v, -INFINITY));
                ins.push_back(std::nextafter(v, INFINITY));
            }
            ins.push_back(INFINITY);
            ins.push_back(-INFINITY);
            ins.push_back(std::numeric_limits<float>::quiet_NaN());
            const int64_t m = static_cast<int64_t>(ins.size());
            for (const int64_t n : {1, 40}) {
                Tensor a({m, 1}), w({1, n});
                for (int64_t i = 0; i < m; ++i)
                    a.data()[i] = ins[static_cast<size_t>(i)];
                for (int64_t j = 0; j < n; ++j)
                    w.data()[j] = 1.0f;
                const PackedTensor pw = PackedTensor::pack(w, q);
                const std::string what = name + " carrier " +
                                         carrier.name() +
                                         " n=" + std::to_string(n);
                QuantHealth hf[2], hu[2];
                GemmEpilogue ef, eu;
                ef.quant(&q, &hf[0]).gelu().quant(&carrier, &hf[1]);
                eu.quant(&q, &hu[0]).gelu().quant(&carrier, &hu[1]);
                Tensor c0({m, n}), c1({m, n});
                gemmQuantized(a, false, pw, false, c0, 1.0f, 0.0f, &ef);
                gemmQuantizedReference(a, false, pw, false, c1, 1.0f, 0.0f,
                                       &eu);
                expectBitIdentical(c0, c1, what);
                for (int s = 0; s < 2; ++s) {
                    EXPECT_EQ(hf[s].count, hu[s].count) << what;
                    EXPECT_EQ(hf[s].saturated, hu[s].saturated) << what;
                    EXPECT_EQ(hf[s].underflow, hu[s].underflow) << what;
                    EXPECT_EQ(hf[s].nonfinite, hu[s].nonfinite) << what;
                    EXPECT_DOUBLE_EQ(hf[s].amax, hu[s].amax) << what;
                    EXPECT_NEAR(hf[s].abs_err_sum, hu[s].abs_err_sum,
                                1e-9 * (1.0 + hu[s].abs_err_sum))
                        << what;
                }
                EXPECT_EQ(3 * n, hf[0].nonfinite) << what; // +-inf, NaN
            }
        }
    }
}

TEST(GemmQuantized, PanelArmBitIdenticalToGatherArm)
{
    // The public entry point takes the gather arm for m < 8 with
    // trans_w == false on AVX-512F hosts; the panel arm is what every
    // other host runs. Both must agree bit for bit, epilogue health
    // included, so the fallback stays tested here too.
    const Quantizer fwd = Quantizer::byName("posit8");
    const Quantizer carrier = Quantizer::bf16();
    Rng rng(29);
    for (const Shape &s : smallMShapes()) {
        for (const bool ta : {false, true}) {
            Tensor a(ta ? std::vector<int64_t>{s.k, s.m}
                        : std::vector<int64_t>{s.m, s.k});
            Tensor w({s.k, s.n}), bias({s.n}), skip({s.m, s.n});
            rng.fillNormal(a);
            rng.fillNormal(w);
            rng.fillNormal(bias, 0.5);
            rng.fillNormal(skip);
            const PackedTensor pw = PackedTensor::pack(w, fwd);
            const std::string what =
                "m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
                " k=" + std::to_string(s.k) + " ta=" + std::to_string(ta);
            QuantHealth hg[3], hp[3];
            const GemmEpilogue eg =
                ffnTail(true, bias, skip, fwd, carrier, hg);
            const GemmEpilogue ep =
                ffnTail(true, bias, skip, fwd, carrier, hp);
            Tensor cg({s.m, s.n}), cp({s.m, s.n});
            gemmQuantized(a, ta, pw, false, cg, 1.0f, 0.0f, &eg);
            detail::gemmQuantizedOn(detail::GemmArm::kPanelRow, a, ta, pw,
                                    false, cp, 1.0f, 0.0f, &ep);
            expectBitIdentical(cg, cp, what);
            expectSameHealth(hg, hp, what);
        }
    }
}

// ---- Model-level identity ------------------------------------------

ModelConfig
tinyLmConfig()
{
    ModelConfig cfg;
    cfg.name = "packed-test-lm";
    cfg.vocab = 48;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    return cfg;
}

std::vector<QuantConfig>
packedConfigs()
{
    // Exercise both the activation/residual quant points (no fusion)
    // and the carrier-fallback epilogue branches (full fusion).
    return {QuantConfig::posit8(), QuantConfig::fp8(),
            QuantConfig::posit8().withFusion(FusionLevel::kResidual)};
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

TEST(WeightsPacked, CausalForwardBitIdenticalToFakeQuant)
{
    const ModelConfig cfg = tinyLmConfig();
    for (const QuantConfig &qc : packedConfigs()) {
        CausalLM model(cfg, 4242);
        QuantSession qs_plain(qc);
        QuantConfig qc_packed = qc;
        qc_packed.weights_packed = true;
        QuantSession qs_packed(qc_packed);

        Rng rng(5);
        const int64_t batch = 2, seq = 6;
        std::vector<int32_t> ids;
        for (int64_t i = 0; i < batch * seq; ++i)
            ids.push_back(static_cast<int32_t>(
                Vocab::kFirstContent +
                rng.randint(cfg.vocab - Vocab::kFirstContent)));

        const Tensor want = model.forward(qs_plain, ids, batch, seq);
        const Tensor got = model.forward(qs_packed, ids, batch, seq);
        expectBitIdentical(got, want, qc.name + " batched forward");

        // Incremental decode over the KV cache.
        DecodeState st0 = model.beginDecode(1, 16);
        DecodeState st1 = model.beginDecode(1, 16);
        const std::vector<int32_t> prompt =
            makePrompt(rng, cfg.vocab, 5);
        for (const int32_t tok : prompt) {
            const std::vector<int32_t> step{tok};
            const Tensor l0 =
                model.forwardIncremental(qs_plain, step, st0);
            const Tensor l1 =
                model.forwardIncremental(qs_packed, step, st1);
            expectBitIdentical(l1, l0, qc.name + " incremental");
        }
    }
}

TEST(WeightsPacked, ServeEngineBitIdenticalToFakeQuant)
{
    const ModelConfig cfg = tinyLmConfig();
    const int64_t n_requests = 4, max_new = 8;
    const QuantConfig qc = QuantConfig::posit8();
    QuantConfig qc_packed = qc;
    qc_packed.weights_packed = true;

    CausalLM model(cfg, 31337);
    QuantSession qs_plain(qc);
    QuantSession qs_packed(qc_packed);

    Rng rng(99);
    std::vector<Request> reqs;
    for (int64_t r = 0; r < n_requests; ++r) {
        Request req;
        req.prompt = makePrompt(rng, cfg.vocab, 3 + r % 3);
        req.max_new_tokens = max_new - r % 2;
        req.eos = Vocab::kEos;
        reqs.push_back(req);
    }

    // Packed-weight engine with slot reuse and mixed prefill/decode.
    ServeEngine engine(model, qs_packed,
                       EngineConfig{/*n_slots=*/2, /*slot_capacity=*/32});
    std::vector<std::shared_future<RequestResult>> futs;
    for (size_t r = 0; r < reqs.size(); ++r) {
        futs.push_back(engine.submit(reqs[r]));
        if (r % 2 == 1)
            engine.step();
    }
    engine.runUntilIdle();

    // Fake-quantized solo decode is the oracle.
    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestResult res = futs[r].get();
        ASSERT_EQ(RequestStatus::kOk, res.status) << r;
        DecodeState st = model.beginDecode(1, 32);
        Rng srng(reqs[r].sampling.seed);
        Tensor logits;
        for (const int32_t tok : reqs[r].prompt) {
            const std::vector<int32_t> step{tok};
            logits = model.forwardIncremental(qs_plain, step, st);
        }
        std::vector<int32_t> want;
        while (true) {
            const int32_t tok =
                serve::sampleToken(logits, 0, reqs[r].sampling, srng);
            if (tok == reqs[r].eos)
                break;
            want.push_back(tok);
            if (static_cast<int64_t>(want.size()) >=
                reqs[r].max_new_tokens)
                break;
            const std::vector<int32_t> step{tok};
            logits = model.forwardIncremental(qs_plain, step, st);
        }
        EXPECT_EQ(want, res.tokens) << "request " << r;
    }
}

TEST(WeightsPacked, FallsBackWhenNotPackable)
{
    // int8 (dynamic scale) and fp32 (identity) cannot pack; the flag
    // must be a transparent no-op rather than an error.
    const ModelConfig cfg = tinyLmConfig();
    for (QuantConfig qc :
         {QuantConfig::fp32(), QuantConfig::int8PerTensor()}) {
        CausalLM model(cfg, 7);
        QuantSession qs_plain(qc);
        QuantConfig qc_packed = qc;
        qc_packed.weights_packed = true;
        QuantSession qs_packed(qc_packed);

        const std::vector<int32_t> ids = {8, 9, 10, 11};
        const Tensor want = model.forward(qs_plain, ids, 1, 4);
        const Tensor got = model.forward(qs_packed, ids, 1, 4);
        expectBitIdentical(got, want, qc.name + " fallback");
    }
}

} // namespace
} // namespace qt8
