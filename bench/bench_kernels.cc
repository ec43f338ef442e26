/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot kernels:
 * fake-quantization throughput per format (LUT fast path vs the
 * reference binary search), blocked vs naive GEMM, exact vs approximate
 * posit softmax, and the posit codec.
 *
 * `bench_kernels --smoke` skips timing and instead exercises the fast
 * paths against their reference implementations (LUT vs search, blocked
 * vs naive GEMM), exiting nonzero on any mismatch — this is what the
 * ctest entry runs.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "numerics/float_bits.h"
#include "numerics/posit_ops.h"
#include "numerics/quantizer.h"
#include "tensor/ops.h"
#include "tensor/packed.h"
#include "tensor/packed_simd.h"
#include "tensor/random.h"
#include "util/parallel.h"

namespace qt8 {
namespace {

std::vector<float>
mixedMagnitudeData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> data(n);
    for (size_t i = 0; i < n; ++i) {
        if (i % 2 == 0) {
            const double mag = std::exp2(rng.uniform(-20.0, 20.0));
            data[i] = static_cast<float>(rng.uniform() < 0.5 ? -mag : mag);
        } else {
            data[i] = static_cast<float>(rng.normal() * 4.0);
        }
    }
    return data;
}

void
BM_QuantizeTensor(benchmark::State &state, const char *format)
{
    const Quantizer q = Quantizer::byName(format);
    Rng rng(1);
    std::vector<float> data(16384);
    for (auto &v : data)
        v = static_cast<float>(rng.normal() * 4.0);
    for (auto _ : state) {
        std::vector<float> copy = data;
        q.quantizeInPlace(copy.data(), copy.size());
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_QuantizeTensor, posit8, "posit8");
BENCHMARK_CAPTURE(BM_QuantizeTensor, posit16, "posit16");
BENCHMARK_CAPTURE(BM_QuantizeTensor, e4m3, "e4m3");
BENCHMARK_CAPTURE(BM_QuantizeTensor, e5m2, "e5m2");
BENCHMARK_CAPTURE(BM_QuantizeTensor, bf16, "bf16");

/// The seed binary-search path on the same data, for the LUT speedup
/// comparison.
void
BM_QuantizeTensorSearch(benchmark::State &state, const char *format)
{
    const Quantizer q = Quantizer::byName(format);
    Rng rng(1);
    std::vector<float> data(16384);
    for (auto &v : data)
        v = static_cast<float>(rng.normal() * 4.0);
    for (auto _ : state) {
        std::vector<float> copy = data;
        for (auto &v : copy)
            v = q.quantizeBySearch(v);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_QuantizeTensorSearch, posit8, "posit8");
BENCHMARK_CAPTURE(BM_QuantizeTensorSearch, posit16, "posit16");
BENCHMARK_CAPTURE(BM_QuantizeTensorSearch, e4m3, "e4m3");

/// 1M-element quantizeInPlace (the acceptance-criteria size): LUT fast
/// path vs the seed binary search.
void
BM_Quantize1M(benchmark::State &state, const char *format, bool lut)
{
    const Quantizer q = Quantizer::byName(format);
    const std::vector<float> data = mixedMagnitudeData(1u << 20, 42);
    std::vector<float> copy(data.size());
    for (auto _ : state) {
        std::memcpy(copy.data(), data.data(),
                    data.size() * sizeof(float));
        if (lut) {
            q.quantizeInPlace(copy.data(), copy.size());
        } else {
            for (auto &v : copy)
                v = q.quantizeBySearch(v);
        }
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_Quantize1M, posit8_lut, "posit8", true);
BENCHMARK_CAPTURE(BM_Quantize1M, posit8_search, "posit8", false);
BENCHMARK_CAPTURE(BM_Quantize1M, e4m3_lut, "e4m3", true);
BENCHMARK_CAPTURE(BM_Quantize1M, e4m3_search, "e4m3", false);

void
BM_PositEncodeDecode(benchmark::State &state)
{
    const PositSpec &spec = posit8_1();
    Rng rng(2);
    std::vector<double> values(4096);
    for (auto &v : values)
        v = rng.normal() * 8.0;
    for (auto _ : state) {
        double acc = 0.0;
        for (double v : values)
            acc += spec.decode(spec.encode(v));
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_PositEncodeDecode);

void
BM_Gemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a({n, n}), b({n, n}), c({n, n});
    rng.fillNormal(a);
    rng.fillNormal(b);
    for (auto _ : state) {
        gemm(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(512);

/// The seed triple loop, for the blocked-vs-naive comparison.
void
BM_GemmNaive(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a({n, n}), b({n, n}), c({n, n});
    rng.fillNormal(a);
    rng.fillNormal(b);
    for (auto _ : state) {
        gemmReference(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(128)->Arg(512);

/// Decode-shaped GEMV (m = 1): the flattened tile space is what keeps
/// this parallel.
void
BM_GemvDecode(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    Tensor a({1, n}), b({n, n}), c({1, n});
    rng.fillNormal(a);
    rng.fillNormal(b);
    for (auto _ : state) {
        gemm(a, false, b, true, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2 * n * n);
}
BENCHMARK(BM_GemvDecode)->Arg(512);

/// Packed 8-bit GEMM on the same square shapes as BM_Gemm: the fp32
/// operand is decoded from uint8 codes inside the tile micro-kernel.
void
BM_GemmQuantized(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const Quantizer q = Quantizer::byName("posit8");
    Rng rng(3);
    Tensor a({n, n}), b({n, n}), c({n, n});
    rng.fillNormal(a);
    rng.fillNormal(b);
    const PackedTensor pb = PackedTensor::pack(b, q);
    for (auto _ : state) {
        gemmQuantized(a, false, pb, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2 * n * n * n);
}
BENCHMARK(BM_GemmQuantized)->Arg(32)->Arg(64)->Arg(128)->Arg(512);

/// Decode-shaped packed GEMV (m = 1, codes in Linear's [in, out]
/// layout, trans_w = false) — the serve engine's per-token hot call.
void
BM_GemvQuantizedDecode(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const Quantizer q = Quantizer::byName("posit8");
    Rng rng(5);
    Tensor a({1, n}), b({n, n}), c({1, n});
    rng.fillNormal(a);
    rng.fillNormal(b);
    const PackedTensor pb = PackedTensor::pack(b, q);
    for (auto _ : state) {
        gemmQuantized(a, false, pb, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2 * n * n);
}
BENCHMARK(BM_GemvQuantizedDecode)->Arg(512);

void
BM_Softmax(benchmark::State &state, bool approx)
{
    const int k = 64;
    const PositSpec &spec = posit8_1();
    ApproxPositSoftmax sm(spec, ApproxExpConfig{}, approx, approx);
    Rng rng(4);
    std::vector<float> z(k), out(k), e(k);
    for (auto &v : z)
        v = static_cast<float>(rng.normal() * 2.0);
    double sum = 0.0;
    for (auto _ : state) {
        sm.forward(z.data(), out.data(), k, e.data(), &sum);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            k);
}
BENCHMARK_CAPTURE(BM_Softmax, exact_quantized, false);
BENCHMARK_CAPTURE(BM_Softmax, posit_approx, true);

/// --smoke: exercise (don't time) the fast paths against their
/// references; returns the process exit code.
int
smokeMain()
{
    int failures = 0;

    // LUT vs binary search on mixed-magnitude data, every grid format.
    for (const char *name :
         {"posit8", "posit(8,0)", "posit(8,2)", "e4m3", "e5m2",
          "posit16"}) {
        const Quantizer q = Quantizer::byName(name);
        std::vector<float> data = mixedMagnitudeData(1u << 16, 7);
        std::vector<float> fast = data;
        q.quantizeInPlace(fast.data(), fast.size());
        for (size_t i = 0; i < data.size(); ++i) {
            const float want = q.quantizeBySearch(data[i]);
            if (bits_from_float(fast[i]) != bits_from_float(want)) {
                std::fprintf(stderr,
                             "smoke: %s LUT mismatch at x=%a: %a != %a\n",
                             name, data[i], fast[i], want);
                ++failures;
                break;
            }
        }
    }

    // Blocked vs naive GEMM, all transpose combinations, odd shapes.
    {
        Rng rng(11);
        const int64_t m = 65, n = 130, k = 77;
        for (const bool ta : {false, true}) {
            for (const bool tb : {false, true}) {
                Tensor a(ta ? std::vector<int64_t>{k, m}
                            : std::vector<int64_t>{m, k});
                Tensor b(tb ? std::vector<int64_t>{n, k}
                            : std::vector<int64_t>{k, n});
                rng.fillNormal(a);
                rng.fillNormal(b);
                Tensor c0({m, n}), c1({m, n});
                rng.fillNormal(c0);
                c1 = c0;
                gemm(a, ta, b, tb, c0, 0.5f, 1.5f);
                gemmReference(a, ta, b, tb, c1, 0.5f, 1.5f);
                for (int64_t i = 0; i < c0.numel(); ++i) {
                    if (bits_from_float(c0.at(i)) !=
                        bits_from_float(c1.at(i))) {
                        std::fprintf(stderr,
                                     "smoke: gemm(ta=%d,tb=%d) mismatch "
                                     "at %lld\n",
                                     ta, tb,
                                     static_cast<long long>(i));
                        ++failures;
                        break;
                    }
                }
            }
        }
    }

    // Packed GEMM vs decode-then-blocked-gemm, with a fused epilogue
    // against the separate-pass reference.
    {
        const Quantizer q = Quantizer::byName("posit8");
        const Quantizer carrier = Quantizer::bf16();
        Rng rng(13);
        const int64_t m = 33, n = 130, k = 277;
        Tensor a({m, k}), w({n, k}), bias({n});
        rng.fillNormal(a);
        rng.fillNormal(w);
        rng.fillNormal(bias, 0.5);
        const PackedTensor pw = PackedTensor::pack(w, q);

        Tensor c0({m, n}), c1({m, n});
        gemmQuantized(a, false, pw, true, c0);
        gemm(a, false, pw.unpack(), true, c1);
        for (int64_t i = 0; i < c0.numel(); ++i) {
            if (bits_from_float(c0.at(i)) != bits_from_float(c1.at(i))) {
                std::fprintf(stderr,
                             "smoke: gemmQuantized mismatch at %lld\n",
                             static_cast<long long>(i));
                ++failures;
                break;
            }
        }

        GemmEpilogue fused, unfused;
        for (GemmEpilogue *e : {&fused, &unfused})
            e->bias(bias.data()).quant(&carrier).quant(&q).gelu().quant(
                &carrier);
        Tensor c2({m, n}), c3({m, n});
        gemmQuantized(a, false, pw, true, c2, 1.0f, 0.0f, &fused);
        gemmQuantizedReference(a, false, pw, true, c3, 1.0f, 0.0f,
                               &unfused);
        for (int64_t i = 0; i < c2.numel(); ++i) {
            if (bits_from_float(c2.at(i)) != bits_from_float(c3.at(i))) {
                std::fprintf(stderr,
                             "smoke: fused epilogue mismatch at %lld\n",
                             static_cast<long long>(i));
                ++failures;
                break;
            }
        }
    }

    if (failures == 0)
        std::printf("bench_kernels --smoke: OK\n");
    return failures == 0 ? 0 : 1;
}

/// Time one GEMM variant: 7 repetitions, each the average seconds per
/// call over enough iterations to cover ~0.05 s (2 warmup calls
/// first). Returns GFLOP/s of the fastest repetition and the
/// interquartile range of all seven, so a row carries its own spread on
/// a shared host.
struct GemmRate
{
    double gflops; ///< From the minimum time.
    double iqr;    ///< GFLOP/s at the first minus the third quartile time.
};

template <typename Fn>
GemmRate
timeGemm(double flops, Fn &&fn)
{
    fn();
    fn();
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
        int iters = 0;
        const auto t0 = std::chrono::steady_clock::now();
        double elapsed = 0.0;
        do {
            fn();
            ++iters;
            elapsed = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        } while (elapsed < 0.05 && iters < 1000);
        reps.push_back(elapsed / iters);
    }
    std::sort(reps.begin(), reps.end());
    // Quartiles of 7 sorted samples (exclusive method): 2nd and 6th.
    const auto rate = [&](double sec) { return flops / sec / 1e9; };
    return {rate(reps[0]), rate(reps[1]) - rate(reps[5])};
}

/// --gemm-json[=path]: packed-vs-fp32 sweep over decode-shaped GEMV and
/// batched / prefill GEMM sizes, written as JSON (GFLOP/s with IQR,
/// operand bytes moved, resident weight bytes, speedup). Every shape
/// runs both packed orientations — trans_w=true (W stored [n, k]) and
/// trans_w=false (W^T stored [k, n], the Linear layout) — against the
/// fp32 Linear forward (gemm with trans_w=true), plus the one-row panel
/// arm alone (the kernel the gather and blocked arms replace), so each
/// row shows which arm ran and what the old one would have done. A
/// second table times the FFN fc1 shape with and without its fused
/// GeLU tail.
int
gemmJsonMain(const std::string &path)
{
    const Quantizer q = Quantizer::byName("posit8");
    struct Case {
        int64_t m, n, k;
    };
    // m = 1 / 2 / 4: single-stream and few-stream decode GEMVs (the
    // gather arm); m = 8 .. 64: batched decode (the blocked panel arm);
    // m = 512: prefill-shaped. Square d covers the model ladder's
    // hidden sizes; 1024x256 / 256x1024 are the d_model 256 FFN's fc1
    // and fc2 at batched-decode m.
    const std::vector<Case> cases = {
        {1, 256, 256},  {1, 512, 512},   {1, 1024, 1024}, {2, 512, 512},
        {4, 512, 512},  {8, 512, 512},   {16, 512, 512},  {32, 512, 512},
        {64, 512, 512}, {512, 512, 512}, {32, 1024, 256}, {32, 256, 1024}};

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"simd\": \"%s\",\n  \"threads\": %d,\n"
                    "  \"sweep\": [\n",
                 detail::packedSimdName(), kernelThreads());
    std::printf("gemm sweep (simd=%s, threads=%d; GFLOP/s, min of 7 with "
                "IQR):\n",
                detail::packedSimdName(), kernelThreads());

    for (size_t ci = 0; ci < cases.size(); ++ci) {
        const int64_t m = cases[ci].m, n = cases[ci].n, k = cases[ci].k;
        Rng rng(21);
        Tensor a({m, k}), w({n, k}), c({m, n});
        rng.fillNormal(a);
        rng.fillNormal(w);
        // The fp32 baseline runs on the decoded (fake-quantized)
        // weights — the tensor the packed codes replace.
        const PackedTensor pw = PackedTensor::pack(w, q);
        const PackedTensor pwt = pw.transposed();
        const Tensor wf = pw.unpack();
        const double flops = 2.0 * static_cast<double>(m * n * k);
        const GemmRate fp32 =
            timeGemm(flops, [&] { gemm(a, false, wf, true, c); });
        // Operand traffic per call: activations + weights + output.
        const double mb_fp32 =
            4.0 * static_cast<double>(m * k + n * k + m * n);
        const double mb_packed =
            4.0 * static_cast<double>(m * k + m * n) +
            static_cast<double>(n * k);

        for (const bool tw : {true, false}) {
            const PackedTensor &p = tw ? pw : pwt;
            const GemmRate packed = timeGemm(
                flops, [&] { gemmQuantized(a, false, p, tw, c); });
            const GemmRate panel = timeGemm(flops, [&] {
                detail::gemmQuantizedOn(detail::GemmArm::kPanelRow, a,
                                        false, p, tw, c);
            });
            const char *arm =
                detail::gemmArmName(detail::gemmQuantizedArm(m, tw));
            const bool last = ci + 1 == cases.size() && !tw;
            std::fprintf(
                f,
                "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                "\"trans_w\": %s, \"arm\": \"%s\", "
                "\"fp32_gflops\": %.3f, \"fp32_iqr\": %.3f, "
                "\"packed_gflops\": %.3f, \"packed_iqr\": %.3f, "
                "\"panel_gflops\": %.3f, \"panel_iqr\": %.3f, "
                "\"speedup\": %.3f, \"fp32_weight_bytes\": %zu, "
                "\"packed_weight_bytes\": %zu, \"fp32_bytes_moved\": "
                "%.0f, \"packed_bytes_moved\": %.0f}%s\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), tw ? "true" : "false", arm,
                fp32.gflops, fp32.iqr, packed.gflops, packed.iqr,
                panel.gflops, panel.iqr, packed.gflops / fp32.gflops,
                p.fp32Bytes(), p.packedBytes(), mb_fp32, mb_packed,
                last ? "" : ",");
            std::printf("  m=%-3lld n=%-4lld k=%-4lld trans_w=%d  fp32 "
                        "%7.3f (%.3f)  packed[%s] %7.3f (%.3f)  panel "
                        "%7.3f (%.3f)  speedup %.2fx\n",
                        static_cast<long long>(m),
                        static_cast<long long>(n),
                        static_cast<long long>(k), tw ? 1 : 0, fp32.gflops,
                        fp32.iqr, arm, packed.gflops, packed.iqr,
                        panel.gflops, panel.iqr,
                        packed.gflops / fp32.gflops);
        }
    }
    std::fprintf(f, "  ],\n  \"gelu_tail\": [\n");

    // FFN fc1 in the Linear layout (W^T codes, trans_w = false) with and
    // without the fc1 tail bias -> carrier -> activation point -> GeLU
    // -> carrier, which gemmQuantized runs through its GeLU table
    // (posit8 activation point, bf16 carrier: QuantConfig::posit8()).
    const Quantizer carrier = Quantizer::bf16();
    const std::vector<int64_t> tail_ms = {1, 32};
    for (size_t ti = 0; ti < tail_ms.size(); ++ti) {
        const int64_t m = tail_ms[ti], n = 1024, k = 256;
        Rng rng(22);
        Tensor a({m, k}), w({k, n}), bias({n}), c({m, n});
        rng.fillNormal(a);
        rng.fillNormal(w, 0.1);
        rng.fillNormal(bias, 0.1);
        const PackedTensor p = PackedTensor::pack(w, q);
        GemmEpilogue tail;
        tail.bias(bias.data()).quant(&carrier).quant(&q).gelu().quant(
            &carrier);
        const double flops = 2.0 * static_cast<double>(m * n * k);
        const GemmRate bare =
            timeGemm(flops, [&] { gemmQuantized(a, false, p, false, c); });
        const GemmRate fused = timeGemm(flops, [&] {
            gemmQuantized(a, false, p, false, c, 1.0f, 0.0f, &tail);
        });
        const auto ms = [&](const GemmRate &r) {
            return flops / (r.gflops * 1e9) * 1e3;
        };
        std::fprintf(f,
                     "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                     "\"bare_ms\": %.4f, \"gelu_tail_ms\": %.4f, "
                     "\"tail_ns_per_element\": %.2f}%s\n",
                     static_cast<long long>(m), static_cast<long long>(n),
                     static_cast<long long>(k), ms(bare), ms(fused),
                     (ms(fused) - ms(bare)) * 1e6 /
                         static_cast<double>(m * n),
                     ti + 1 == tail_ms.size() ? "" : ",");
        std::printf("  fc1 m=%-3lld %lldx%lld  bare %.4f ms  with GeLU tail "
                    "%.4f ms\n",
                    static_cast<long long>(m), static_cast<long long>(k),
                    static_cast<long long>(n), ms(bare), ms(fused));
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace
} // namespace qt8

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--smoke")
            return qt8::smokeMain();
        if (arg == "--gemm-json")
            return qt8::gemmJsonMain("BENCH_gemm.json");
        if (arg.rfind("--gemm-json=", 0) == 0)
            return qt8::gemmJsonMain(arg.substr(12));
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
