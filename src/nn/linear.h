/**
 * @file
 * Dense layer with quantization hooks and optional LoRA (paper
 * section 5.3). In LoRA mode the base weight W0 is frozen and stored in
 * the 8-bit forward format, the low-rank factors A and B are carried in
 * 16-bit, and the effective weight follows Eq. 7:
 *
 *     W = quant( W0_8 + alpha * quant(B_16) * quant(A_16) )
 *
 * so that the GEMM runs on a single 8-bit data type, unlike int8 LoRA
 * which must upconvert and merge in high precision.
 */
#ifndef QT8_NN_LINEAR_H
#define QT8_NN_LINEAR_H

#include "nn/param.h"
#include "quant/config.h"
#include "tensor/packed.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace qt8 {

/**
 * Element-wise consumer fused into a packed Linear's GEMM epilogue
 * (QuantConfig::weights_packed mode). At most one of the two options:
 *
 *  - activation_gelu: the FFN fc1 tail — activation-point quantization,
 *    GeLU, carrier — runs inside the GEMM's output tiles.
 *  - residual: the FFN fc2 tail — branch-side residual-point
 *    quantization, the residual addition against @p residual, carrier.
 *    @p residual is the skip operand [m, out], *already quantized at
 *    the residual point* by the caller, and must outlive the call.
 */
struct LinearFusedTail
{
    bool activation_gelu = false;
    const float *residual = nullptr;
};

/// y = x . W^T + b, with explicit backward.
class Linear
{
  public:
    /**
     * @param in Input features.
     * @param out Output features.
     * @param rng Initializer stream (Gaussian, std 0.02-like scaled).
     * @param name Parameter name prefix.
     * @param slot Backward-scaling slot id (unique per instance).
     */
    Linear(int64_t in, int64_t out, Rng &rng, const std::string &name,
           int slot);

    /**
     * Enable LoRA with the given rank and scaling alpha: freezes the
     * base weight and bias, initializes A ~ N(0, 0.02), B = 0.
     */
    void enableLora(int rank, float alpha, Rng &rng);

    /// Forward: x is [m, in]; returns [m, out]. Caches activations.
    /// Routes to the packed 8-bit path when packedUsable().
    Tensor forward(QuantSession &qs, const Tensor &x);

    /**
     * True when this forward can run on packed 8-bit weight codes:
     * QuantConfig::weights_packed is set, the forward format is a
     * packable (<=256-value) grid, GEMM quantization is on, and the
     * layer is neither LoRA-merged nor a fused head (both re-derive the
     * effective weight per forward in fp32).
     */
    bool packedUsable(const QuantSession &qs) const;

    /**
     * Inference forward over packed weight codes via gemmQuantized,
     * with bias + carrier (and optionally @p tail) fused into the GEMM
     * epilogue. Bit-identical to forward() followed by the tail's
     * separate passes. Does not cache activations: a subsequent
     * backward() throws std::logic_error.
     */
    Tensor forwardPacked(QuantSession &qs, const Tensor &x,
                         const LinearFusedTail *tail = nullptr);

    /// Drop the packed weight cache (call after mutating weight.value,
    /// e.g. an optimizer step, before the next packed forward).
    void invalidatePacked() { packed_ = PackedTensor(); }

    /// Backward: gy is [m, out]; accumulates parameter gradients and
    /// returns dL/dx [m, in].
    Tensor backward(QuantSession &qs, const Tensor &gy);

    void collectParams(ParamList &out);

    /// Mark as the model's task head: when QuantConfig::fuse_head is
    /// set, this layer's inputs/weights skip 8-bit quantization (the
    /// artifact's "--op_fusion classifier" training-stability option).
    void markAsHead() { is_head_ = true; }

    int64_t inFeatures() const { return in_; }
    int64_t outFeatures() const { return out_; }
    bool loraEnabled() const { return lora_rank_ > 0; }

    Param weight; ///< [out, in]
    Param bias;   ///< [out]
    Param lora_a; ///< [r, in]
    Param lora_b; ///< [out, r]

  private:
    /// Effective (quantized) weight for this forward pass.
    Tensor effectiveWeight(QuantSession &qs);

    /// (Re)build the packed code cache for format @p q if stale.
    void ensurePacked(const Quantizer &q);

    int64_t in_;
    int64_t out_;
    int slot_;
    int lora_rank_ = 0;
    float lora_alpha_ = 1.0f;
    bool is_head_ = false;

    // Forward cache.
    Tensor xq_;      ///< Quantized input.
    Tensor wq_;      ///< Quantized effective weight.
    Tensor aq_, bq_; ///< Quantized LoRA factors (LoRA mode).
    bool packed_fwd_ = false; ///< Last forward ran the packed path.

    // Packed 8-bit codes of W^T ([in, out]), cached across forwards
    // (weights are static at inference; invalidatePacked() after
    // mutating them).
    PackedTensor packed_;
};

} // namespace qt8

#endif // QT8_NN_LINEAR_H
