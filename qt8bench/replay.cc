/**
 * @file
 * Kernel replays for the traced run: the `tensor` and `numerics`
 * kernels called directly at the shapes the workloads run them at,
 * plus two host ceilings that give the kernel rates a base. Operation
 * counts and bytes moved are computed from the tensor sizes (2*m*k*n
 * flops per GEMM; code bytes + fp32 operand bytes per attention GEMV),
 * not measured by counters. Each replay repeats its call for config
 * `replay.ms_per_kernel` and uses the median call time.
 */
#include <cstring>
#include <vector>

#include "numerics/quantizer.h"
#include "quant/config.h"
#include "tensor/ops.h"
#include "tensor/packed.h"
#include "tensor/random.h"
#include "util/parallel.h"
#include "workloads.h"

namespace qt8bench {

namespace {

using namespace qt8;

/// Median wall time (ms) of @p fn over a time budget (at least 3 calls).
template <typename Fn>
double
medianMs(double budget_ms, Fn &&fn)
{
    Samples s;
    const auto t0 = Clock::now();
    while (s.count() < 3 || msSince(t0) < budget_ms) {
        const auto t1 = Clock::now();
        fn();
        s.add(msSince(t1));
    }
    return s.median();
}

Tensor
randomTensor(Rng &rng, std::vector<int64_t> shape, double amp = 1.0)
{
    Tensor t(std::move(shape));
    rng.fillUniform(t, -amp, amp);
    return t;
}

struct Shape
{
    int64_t n; ///< Output features (Linear weight rows).
    int64_t k; ///< Input features.
};

/// gemmQuantized at m rows over the serving model's weight roles:
/// q/k/v projection, attention out, FFN up, FFN down, LM head.
void
replayGemmQ(const Config &cfg, int64_t m, const char *name, double budget,
            RunResult &out)
{
    const int64_t d = cfg.integer("model.d_model");
    const int64_t ff = cfg.integer("model.d_ff");
    const std::vector<Shape> roles = {
        {d, d}, {d, d}, {ff, d}, {d, ff}, {cfg.integer("model.vocab"), d}};
    const Quantizer q = Quantizer::byName("posit8");
    Rng rng(11);
    double flops = 0.0, ms = 0.0;
    for (const Shape &s : roles) {
        const PackedTensor w =
            PackedTensor::pack(randomTensor(rng, {s.n, s.k}, 0.1), q);
        const Tensor a = randomTensor(rng, {m, s.k});
        Tensor c({m, s.n});
        ms += medianMs(budget, [&] { gemmQuantized(a, false, w, true, c); });
        flops += 2.0 * static_cast<double>(m * s.k * s.n);
    }
    out.addLayer(format("tensor.%s.gflops", name), flops / (ms * 1e6),
                 "GFLOP/s");
    out.notes.push_back(format("tensor.%s: %.4g MFLOP per pass over 5 "
                               "weight roles, median %.4g ms",
                               name, flops / 1e6, ms));
}

/// The packed KV attention GEMVs for one head at contexts 64/256/448.
void
replayAttention(const Config &cfg, double budget, RunResult &out)
{
    const int64_t d = cfg.integer("model.d_model");
    const int64_t dh = d / cfg.integer("model.n_heads");
    const Quantizer q = Quantizer::byName("posit8");
    Rng rng(13);
    PackedKvScratch scratch;
    double dot_bytes = 0, dot_ms = 0, acc_bytes = 0, acc_ms = 0;
    for (const int64_t ctx : {64, 256, 448}) {
        const PackedTensor kv =
            PackedTensor::pack(randomTensor(rng, {ctx, d}), q);
        const Tensor qv = randomTensor(rng, {1, dh});
        const Tensor wv = randomTensor(rng, {1, ctx});
        std::vector<float> scores(static_cast<size_t>(ctx));
        std::vector<float> ctx_out(static_cast<size_t>(dh));
        dot_ms += medianMs(budget, [&] {
            packedDotRows(qv.data(), kv.codes(), kv.table(), ctx, dh, d,
                          scores.data(), scratch);
        });
        acc_ms += medianMs(budget, [&] {
            packedAccumRows(wv.data(), kv.codes(), kv.table(), ctx, dh, d,
                            ctx_out.data(), scratch);
        });
        const double codes = static_cast<double>(ctx * dh);
        dot_bytes += codes + 4.0 * static_cast<double>(dh + ctx);
        acc_bytes += codes + 4.0 * static_cast<double>(ctx + dh);
    }
    out.addLayer("tensor.attn_dot.gbps", dot_bytes / (dot_ms * 1e6), "GB/s");
    out.addLayer("tensor.attn_accum.gbps", acc_bytes / (acc_ms * 1e6),
                 "GB/s");
    out.notes.push_back(format("tensor.attn: dot %.4g kB in %.4g ms, accum "
                               "%.4g kB in %.4g ms (contexts 64/256/448, "
                               "one head)",
                               dot_bytes / 1e3, dot_ms, acc_bytes / 1e3,
                               acc_ms));
}

/// fp32 gemm at the fine-tune shapes (m = batch * seq rows), in all
/// three transpose forms a training step uses: forward y = x W^T,
/// input gradient dx = dy W, weight gradient dW = dy^T x.
void
replayGemmTrain(const Config &cfg, double budget, RunResult &out)
{
    const int64_t m = cfg.integer("lora.batch") * cfg.integer("lora.seq");
    const int64_t d = cfg.integer("lora.d_model");
    const int64_t ff = cfg.integer("lora.d_ff");
    Rng rng(17);
    double flops = 0.0, ms = 0.0;
    for (const Shape &s : std::vector<Shape>{{d, d}, {ff, d}, {d, ff}}) {
        const Tensor x = randomTensor(rng, {m, s.k});
        const Tensor w = randomTensor(rng, {s.n, s.k});
        const Tensor dy = randomTensor(rng, {m, s.n});
        Tensor y({m, s.n}), dx({m, s.k}), dw({s.n, s.k});
        ms += medianMs(budget, [&] { gemm(x, false, w, true, y); });
        ms += medianMs(budget, [&] { gemm(dy, false, w, false, dx); });
        ms += medianMs(budget, [&] { gemm(dy, true, x, false, dw); });
        flops += 3 * 2.0 * static_cast<double>(m * s.k * s.n);
    }
    out.addLayer("tensor.gemm_train.gflops", flops / (ms * 1e6), "GFLOP/s");
    out.notes.push_back(format("tensor.gemm_train: %.4g MFLOP per pass "
                               "(m=%lld, 3 shapes x 3 transposes), %.4g ms",
                               flops / 1e6, static_cast<long long>(m), ms));
}

/// Quantizer::quantizeInPlace for the fine-tune forward format and the
/// per-tensor-scaled backward format at the fine-tune activation sizes.
void
replayQuantize(const Config &cfg, double budget, RunResult &out)
{
    const QuantConfig qc = QuantConfig::posit8();
    const int64_t m = cfg.integer("lora.batch") * cfg.integer("lora.seq");
    Rng rng(19);
    TensorScaler scaler(qc.bwd);
    double elems = 0.0, ms = 0.0;
    for (const int64_t width :
         {cfg.integer("lora.d_model"), cfg.integer("lora.d_ff")}) {
        const Tensor src = randomTensor(rng, {m, width}, 4.0);
        Tensor buf = src;
        const size_t n = static_cast<size_t>(src.numel());
        const auto timed = [&](auto &&quantize) {
            return medianMs(budget, [&] {
                std::memcpy(buf.data(), src.data(), n * sizeof(float));
                quantize();
            });
        };
        const double copy_ms = timed([] {});
        ms += timed([&] { qc.fwd.quantizeInPlace(buf.data(), n); }) - copy_ms;
        ms += timed([&] { scaler.quantizeInPlace(buf.data(), n); }) - copy_ms;
        elems += 2.0 * static_cast<double>(n);
    }
    out.addLayer("numerics.quantize.melem_s", elems / (ms * 1e3),
                 "Melem/s");
    out.notes.push_back(format("numerics.quantize: %.4g Melem per pass "
                               "(fwd + scaled bwd), %.4g ms",
                               elems / 1e6, ms));
}

/// Host ceilings at the pinned kernel thread count: streaming copy
/// bandwidth (read + write bytes) and a register-resident multiply-add
/// rate, compiled with the library's own flags.
void
replayHost(double budget, RunResult &out)
{
    const int threads = kernelThreads();
    const size_t n = size_t{8} << 20; // floats per buffer (32 MiB)
    std::vector<float> src(n, 1.0f), dst(n, 0.0f);
    const double copy_ms = medianMs(budget, [&] {
#pragma omp parallel for schedule(static) num_threads(threads)
        for (int t = 0; t < threads; ++t) {
            const size_t lo = n * static_cast<size_t>(t) / threads;
            const size_t hi = n * static_cast<size_t>(t + 1) / threads;
            std::memcpy(dst.data() + lo, src.data() + lo,
                        (hi - lo) * sizeof(float));
        }
    });
    out.addLayer("host.copy_gbps",
                 2.0 * static_cast<double>(n * sizeof(float)) /
                     (copy_ms * 1e6),
                 "GB/s");

    constexpr int kLanes = 64;
    constexpr int kIters = 1 << 16;
    std::vector<float> sink(static_cast<size_t>(threads));
    const double fma_ms = medianMs(budget, [&] {
#pragma omp parallel for schedule(static) num_threads(threads)
        for (int t = 0; t < threads; ++t) {
            float acc[kLanes];
            for (int l = 0; l < kLanes; ++l)
                acc[l] = static_cast<float>(l + t);
            for (int i = 0; i < kIters; ++i)
                for (int l = 0; l < kLanes; ++l)
                    acc[l] = acc[l] * 0.999999f + 1e-7f;
            float s = 0.0f;
            for (int l = 0; l < kLanes; ++l)
                s += acc[l];
            sink[static_cast<size_t>(t)] = s;
        }
    });
    const double flops = 2.0 * kLanes * kIters * threads;
    out.addLayer("host.fma_gflops", flops / (fma_ms * 1e6), "GFLOP/s");
    out.notes.push_back(format("host: copy %.4g MB in %.4g ms, %.4g MFLOP "
                               "multiply-add in %.4g ms, %d threads "
                               "(sink %.3g)",
                               2.0 * n * sizeof(float) / 1e6, copy_ms,
                               flops / 1e6, fma_ms, threads,
                               static_cast<double>(sink[0])));
}

} // namespace

void
replayKernels(const Config &cfg, RunResult &out)
{
    const double budget = cfg.num("replay.ms_per_kernel");
    replayGemmQ(cfg, 1, "gemmq_m1", budget, out);
    replayGemmQ(cfg, 32, "gemmq_m32", budget, out);
    replayAttention(cfg, budget, out);
    replayGemmTrain(cfg, budget, out);
    replayQuantize(cfg, budget, out);
    replayHost(budget, out);
}

} // namespace qt8bench
