#include "nn/linear.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/trace.h"

namespace qt8 {

int64_t
countTrainable(const ParamList &params)
{
    int64_t n = 0;
    for (const Param *p : params)
        if (p->trainable)
            n += p->numel();
    return n;
}

int64_t
countTotal(const ParamList &params)
{
    int64_t n = 0;
    for (const Param *p : params)
        n += p->numel();
    return n;
}

void
copyParamValues(const ParamList &dst, const ParamList &src)
{
    assert(dst.size() == src.size());
    for (size_t i = 0; i < dst.size(); ++i) {
        assert(dst[i]->value.sameShape(src[i]->value));
        dst[i]->value = src[i]->value;
    }
}

Linear::Linear(int64_t in, int64_t out, Rng &rng, const std::string &name,
               int slot)
    : in_(in), out_(out), slot_(slot)
{
    Tensor w({out, in});
    // Fan-in-scaled Gaussian init (keeps pre-activations at unit scale
    // for any width; BERT's fixed 0.02 assumes d~768).
    rng.fillNormal(w, 1.0 / std::sqrt(static_cast<double>(in)));
    weight.init(name + ".weight", std::move(w));
    bias.init(name + ".bias", Tensor({out}));
}

void
Linear::enableLora(int rank, float alpha, Rng &rng)
{
    lora_rank_ = rank;
    lora_alpha_ = alpha;
    weight.trainable = false;
    bias.trainable = false;
    Tensor a({rank, in_});
    rng.fillNormal(a, 0.02);
    lora_a.init(weight.name + ".lora_a", std::move(a));
    lora_b.init(weight.name + ".lora_b", Tensor({out_, rank}));
}

Tensor
Linear::effectiveWeight(QuantSession &qs)
{
    if (!loraEnabled()) {
        Tensor wq = weight.value;
        qs.quantWeight(wq);
        return wq;
    }
    // Eq. 7: quant(W0_8 + alpha * quant(B) quant(A)).
    // LoRA factors live in the 16-bit carrier and are quantized to the
    // 8-bit forward type before their product.
    aq_ = lora_a.value;
    qs.quantWeight(aq_);
    bq_ = lora_b.value;
    qs.quantWeight(bq_);

    Tensor w0q = weight.value;
    qs.quantWeight(w0q); // frozen base weight kept in 8-bit
    Tensor delta({out_, in_});
    gemm(bq_, false, aq_, false, delta, lora_alpha_);
    addInPlace(w0q, delta);
    qs.quantWeight(w0q); // merged weights re-quantized to 8-bit
    return w0q;
}

bool
Linear::packedUsable(const QuantSession &qs) const
{
    const QuantConfig &cfg = qs.config();
    return cfg.weights_packed && cfg.quant_gemm && !cfg.fwd.isIdentity() &&
           !cfg.int8_per_channel_weights && PackedTensor::packable(cfg.fwd) &&
           !loraEnabled() && !(is_head_ && cfg.fuse_head);
}

void
Linear::ensurePacked(const Quantizer &q)
{
    if (!packed_.empty() && packed_.format() == q.name())
        return;
    if (trace::collecting()) {
        // The unfused path re-quantizes the weight each forward and
        // accumulates its health; in packed mode the quantization
        // happens once here, so the "weight" point is recorded once
        // per (re)pack instead of once per forward.
        Tensor wq = weight.value;
        QuantHealth h;
        q.quantizeInPlace(wq.data(), static_cast<size_t>(wq.numel()), h);
        trace::healthAccumulate("weight", h);
    }
    // Keep W^T ([in, out], one copy): op(W) column j is then code
    // column j, so each k step of a decode GEMV reads 8 contiguous codes
    // per output strip, the layout gemmQuantized's small-m gather arm
    // wants.
    packed_ = PackedTensor::pack(weight.value, q).transposed();
}

Tensor
Linear::forwardPacked(QuantSession &qs, const Tensor &x,
                      const LinearFusedTail *tail)
{
    const QuantConfig &cfg = qs.config();
    ensurePacked(cfg.fwd);

    // Input path identical to the unfused forward (tap + quantize).
    Tensor xq = x;
    qs.quantFwd(OpClass::kGemm, xq);

    // Epilogue mirrors the separate passes stage for stage. At most 3
    // quant stages: Linear's carrier, the tail's op-class point, the
    // tail's trailing carrier.
    GemmEpilogue epi;
    std::array<QuantHealth, 3> healths{};
    std::array<const char *, 3> points{};
    size_t nh = 0;
    const bool track = trace::collecting();
    auto quantStage = [&](const Quantizer &q, const char *point) {
        if (q.isIdentity())
            return;
        if (track) {
            points[nh] = point;
            epi.quant(&q, &healths[nh]);
            ++nh;
        } else {
            epi.quant(&q);
        }
    };

    epi.bias(bias.value.data());
    quantStage(cfg.carrier, "carrier");
    if (tail != nullptr && tail->activation_gelu) {
        // quantFwd(kActivation) + geluInPlace + carrier.
        if (cfg.activeFwd(OpClass::kActivation))
            quantStage(cfg.fwd, "fwd/activation");
        else
            quantStage(cfg.carrier, "carrier");
        epi.gelu();
        quantStage(cfg.carrier, "carrier");
    } else if (tail != nullptr && tail->residual != nullptr) {
        // Branch side of residualAdd: quantFwd(kResidual) + add against
        // the pre-quantized skip + carrier (IEEE addition commutes, so
        // branch + skip lands on the same bits as skip + branch).
        if (cfg.activeFwd(OpClass::kResidual))
            quantStage(cfg.fwd, "fwd/residual");
        else
            quantStage(cfg.carrier, "carrier");
        epi.residual(tail->residual);
        quantStage(cfg.carrier, "carrier");
    }

    Tensor y({xq.dim(0), out_});
    gemmQuantized(xq, false, packed_, false, y, 1.0f, 0.0f, &epi);
    for (size_t s = 0; s < nh; ++s)
        trace::healthAccumulate(points[s], healths[s]);

    // Inference-only: no activation cache for backward.
    xq_ = Tensor();
    wq_ = Tensor();
    packed_fwd_ = true;
    return y;
}

Tensor
Linear::forward(QuantSession &qs, const Tensor &x)
{
    if (packedUsable(qs))
        return forwardPacked(qs, x);
    packed_fwd_ = false;
    const bool head_fused = is_head_ && qs.config().fuse_head;
    xq_ = x;
    if (head_fused) {
        qs.carrier(xq_);
        wq_ = weight.value;
        qs.carrier(wq_);
    } else {
        qs.quantFwd(OpClass::kGemm, xq_);
        wq_ = effectiveWeight(qs);
    }

    Tensor y = matmul(xq_, wq_, false, true);
    addRowBias(y, bias.value);
    qs.carrier(y);
    return y;
}

Tensor
Linear::backward(QuantSession &qs, const Tensor &gy)
{
    if (packed_fwd_)
        throw std::logic_error(
            "Linear::backward: the weights_packed forward path is "
            "inference-only (no activation cache)");
    const bool head_fused = is_head_ && qs.config().fuse_head;
    Tensor gyq = gy;
    if (head_fused)
        qs.carrier(gyq);
    else
        qs.quantBwd(OpClass::kGemm, gyq, slot_);

    // Bias gradient (fused row-sum accumulate; same rounding as
    // sumRows + addInPlace without the temporary).
    if (bias.trainable)
        sumRowsAdd(bias.grad, gyq);

    if (!loraEnabled()) {
        if (weight.trainable) {
            // dW += gy^T . x  (wgrad GEMM, fused accumulation).
            gemm(gyq, true, xq_, false, weight.grad, 1.0f, 1.0f);
        }
    } else {
        // Straight-through gradients to the LoRA factors:
        // dB = alpha * gy^T (x A^T), dA = alpha * (gy B)^T x.
        const Tensor xa = matmul(xq_, aq_, false, true);     // [m, r]
        gemm(gyq, true, xa, false, lora_b.grad, lora_alpha_, 1.0f);
        const Tensor gyb = matmul(gyq, bq_, false, false);   // [m, r]
        gemm(gyb, true, xq_, false, lora_a.grad, lora_alpha_, 1.0f);
    }

    // dx = gy . W (dgrad GEMM).
    Tensor gx = matmul(gyq, wq_, false, false);
    qs.carrier(gx);
    return gx;
}

void
Linear::collectParams(ParamList &out)
{
    out.push_back(&weight);
    out.push_back(&bias);
    if (loraEnabled()) {
        out.push_back(&lora_a);
        out.push_back(&lora_b);
    }
}

} // namespace qt8
