/**
 * @file
 * True 8-bit packed weight storage and the fused quantized GEMM.
 *
 * Every earlier layer of this codebase *fake*-quantizes: tensors are
 * rounded onto an 8-bit format's value grid but stay resident as fp32,
 * so the paper's formats buy accuracy results and zero speed or memory.
 * PackedTensor makes the codes real: a tensor whose values live on a
 * grid format's value grid is stored as one uint8 *code* per element
 * (the index into Quantizer::gridValues(), i.e. the same 256-entry
 * decode table the paper's hardware uses, section 4) plus a per-tensor
 * power-of-two scale — 1 byte/element instead of 4.
 *
 * gemmQuantized() consumes the codes directly: the tile micro-kernel
 * decodes a code panel through the code table right before the FMA
 * loop (AVX2 / NEON behind a portable fallback, see packed_simd.h; on
 * AVX-512F hosts shared by register-blocked rows from m = 8 on) — or,
 * at decode-sized m on AVX-512F hosts, gathers the table straight into
 * the FMA with no panel at all — and applies the consumer's
 * element-wise epilogue — bias add, GeLU, residual add, quantize-back —
 * on the output tile while it is hot, instead of as separate
 * full-tensor passes. This is the paper's "operation fusion" (section
 * 4.2) turned into a speed feature.
 *
 * Numerics contract: gemmQuantized is **bit-identical** to
 * decode-to-fp32 followed by gemm()/gemmReference() plus the separate
 * epilogue passes. Each output element is accumulated in double in
 * ascending-k order (float*float products are exact in double, so FMA
 * contraction cannot change a bit), the SIMD width spans *output
 * columns* rather than the k dimension, and every epilogue stage
 * replicates the element-wise math of the pass it replaces.
 */
#ifndef QT8_TENSOR_PACKED_H
#define QT8_TENSOR_PACKED_H

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/quantizer.h"
#include "tensor/tensor.h"

namespace qt8 {

/**
 * Contiguous row-major uint8 codes + per-tensor scale for a rank-2
 * tensor quantized onto a <=256-value grid format.
 *
 * Packing quantizes x*scale onto the grid and stores the grid index;
 * decoding returns gridValues()[code] * (1/scale) with the same float
 * rounding TensorScaler uses, folded into the decode table so the
 * kernel pays nothing for it. With scale == 1 (the weight path —
 * QuantSession::quantWeight applies no per-tensor scale) the decoded
 * value is bit-identical to Quantizer::quantize of the original.
 */
class PackedTensor
{
  public:
    PackedTensor() = default;

    /// True when @p q's grid fits 8-bit codes (grid format with at most
    /// 256 representable values: posit(8,*), E4M3, E5M2, ...).
    static bool packable(const Quantizer &q)
    {
        return !q.gridValues().empty() && q.gridValues().size() <= 256;
    }

    /**
     * Quantize @p t (element-wise, times @p scale) onto @p q's grid and
     * pack the codes. Throws std::invalid_argument for non-packable
     * quantizers, non-rank-2 tensors, and NaN elements (no grid code
     * represents NaN).
     */
    static PackedTensor pack(const Tensor &t, const Quantizer &q,
                             float scale = 1.0f);

    /// Decode every code back to fp32 (the reference the fused kernel
    /// is tested against). Bit-identical to quantize-then-scale of the
    /// original tensor.
    Tensor unpack() const;

    /// The codes of the transposed tensor ([cols, rows]), same table,
    /// scale and format: pack(t).transposed() decodes exactly like
    /// pack(t^T), without an fp32 transpose.
    PackedTensor transposed() const;

    bool empty() const { return codes_.empty(); }
    const std::vector<int64_t> &shape() const { return shape_; }
    int64_t dim(int i) const { return shape_[static_cast<size_t>(i)]; }
    int64_t numel() const { return static_cast<int64_t>(codes_.size()); }

    const uint8_t *codes() const { return codes_.data(); }
    /// 256-entry decode table: table()[code] is the decoded value with
    /// the 1/scale fold applied (exact doubles of float values).
    const double *table() const { return table_.data(); }

    float scale() const { return scale_; }
    const std::string &format() const { return format_; }

    /// Resident bytes of the packed representation (codes; the decode
    /// table is 2 KB per tensor). 4x smaller than the fp32 panel it
    /// replaces.
    size_t packedBytes() const { return codes_.size(); }
    /// Bytes of the fp32 tensor this packs (the GEMM's former operand).
    size_t fp32Bytes() const { return codes_.size() * sizeof(float); }

  private:
    std::vector<int64_t> shape_; ///< Rank 2 (rows, cols).
    std::vector<uint8_t> codes_;
    std::vector<double> table_; ///< 256 entries, zero-padded.
    float scale_ = 1.0f;
    std::string format_;
};

/**
 * Element-wise epilogue fused into gemmQuantized's output tiles,
 * applied in stage order to each output element after alpha/beta:
 *
 *  - kBias:     y += data[j]               (addRowBias)
 *  - kGelu:     y = geluScalar(y)          (geluInPlace)
 *  - kResidual: y += data[i * n + j]       (residualAdd's addInPlace;
 *               the operand must already be residual-point quantized)
 *  - kQuant:    y = quant->quantize(y), accumulating the same
 *               per-element QuantHealth counters as the health-aware
 *               Quantizer::quantizeInPlace overload into *health when
 *               non-null (per-thread partials, merged once at the end;
 *               counts are exact, double sums may differ from the
 *               serial pass in the last ulp).
 *
 * Stage data is borrowed; it must outlive the gemmQuantized call.
 */
struct GemmEpilogue
{
    struct Stage
    {
        enum class Kind { kBias, kGelu, kResidual, kQuant };
        Kind kind;
        const float *data = nullptr;      ///< kBias [n] / kResidual [m,n].
        const Quantizer *quant = nullptr; ///< kQuant.
        QuantHealth *health = nullptr;    ///< kQuant, optional.
    };

    std::vector<Stage> stages;

    GemmEpilogue &bias(const float *row)
    {
        stages.push_back({Stage::Kind::kBias, row, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &gelu()
    {
        stages.push_back({Stage::Kind::kGelu, nullptr, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &residual(const float *full)
    {
        stages.push_back({Stage::Kind::kResidual, full, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &quant(const Quantizer *q, QuantHealth *health = nullptr)
    {
        stages.push_back({Stage::Kind::kQuant, nullptr, q, health});
        return *this;
    }
};

/**
 * C = alpha * op(A) . op(W) + beta * C, then the fused epilogue.
 * A is fp32 (m x k after optional transpose); W is packed 8-bit codes
 * (k x n after optional transpose: trans_w=true takes W stored [n, k],
 * the Linear weight layout). Accumulation is double in ascending-k
 * order per output element — bit-identical to gemm()/gemmReference()
 * over unpack(W), with the epilogue matching the separate passes bit
 * for bit. Parallel over (64-row x panel-width) output tiles, so m=1
 * decode GEMVs still spread over cores. The arm follows m and the host
 * (detail::gemmQuantizedArm), all with the same per-element
 * ascending-k double sums, so the same bits:
 *
 *  - m < 8, trans_w == false (W^T stored [k, n], the Linear layout), on
 *    AVX-512F hosts: 32-column work items, each k step gathering the 8
 *    contiguous codes of a strip through the table once for all m rows
 *    (detail::gatherAccum).
 *  - m >= 8 on AVX-512F hosts: each [kc x 32] code panel is decoded
 *    once per 64-row tile and shared by 4-row register blocks
 *    (detail::panelRows32).
 *  - otherwise: each [kc x 8] panel runs through a one-row
 *    column-vectorized FMA loop (AVX2/NEON when available).
 *
 * An epilogue holding quant(q) -> gelu -> quant(c) with q a grid format
 * (the FFN fc1 tail) runs those three stages as one lookup on q's code
 * into a 256-entry table built per call: the same bits and health.
 */
void gemmQuantized(const Tensor &a, bool trans_a, const PackedTensor &w,
                   bool trans_w, Tensor &c, float alpha = 1.0f,
                   float beta = 0.0f, const GemmEpilogue *epi = nullptr);

/**
 * The unfused reference: unpack W to fp32, run gemmReference, then
 * apply the epilogue stages as separate serial element-wise passes.
 * Bit-identical to gemmQuantized (the equivalence tests' oracle).
 */
void gemmQuantizedReference(const Tensor &a, bool trans_a,
                            const PackedTensor &w, bool trans_w, Tensor &c,
                            float alpha = 1.0f, float beta = 0.0f,
                            const GemmEpilogue *epi = nullptr);

/**
 * Scratch for the packed KV-cache attention GEMVs below: the decoded
 * [kc x 8] double panel (panel arm) or the per-column accumulators
 * (gather arm), reused across calls so a decode step allocates it once
 * per attention forward instead of once per (batch, head).
 */
struct PackedKvScratch
{
    std::vector<double> panel;
};

/**
 * Decode-in-kernel QK^T GEMV over a packed KV panel:
 *
 *   out[r] = float( sum_{c=0}^{cols-1} q[c] * table[codes[r*stride + c]] )
 *
 * for r in [0, rows) — i.e. gemm(q[1 x cols], false, K[rows x cols],
 * true, out) where K's rows live as uint8 codes with row stride
 * @p stride (a head's d_head-column slice of a [*, d_model] code
 * panel). Accumulation is double in ascending-c order per output with
 * one final float cast, so the result is bit-identical to extracting
 * the head into fp32 and calling gemm()/gemmReference(). Eight outputs
 * advance together: on AVX-512F hosts through an in-register 8x8 code
 * transpose and one table gather per column (detail::gatherDot8),
 * elsewhere through the decoded panel and the SIMD dot kernel
 * (AVX2/NEON/portable). Codes >= the format's grid size decode to NaN
 * and poison only the outputs that read them. A wrapper over
 * packedDotRowsPaged with one page spanning all rows.
 */
void packedDotRows(const float *q, const uint8_t *codes,
                   const double *table, int64_t rows, int64_t cols,
                   int64_t stride, float *out, PackedKvScratch &scratch);

/**
 * Decode-in-kernel attn.V GEMV over a packed KV panel:
 *
 *   out[c] = float( sum_{r=0}^{rows-1} w[r] * table[codes[r*stride + c]] )
 *
 * for c in [0, cols) — i.e. gemm(w[1 x rows], false, V[rows x cols],
 * false, out) with V stored as codes. Same ascending-r double
 * accumulation and single final float cast as gemm(); bit-identical to
 * the fp32 head-extract path. On AVX-512F hosts each row's 8 contiguous
 * codes per strip are gathered straight into the FMA
 * (detail::gatherAccum). A wrapper over packedAccumRowsPaged with one
 * page spanning all rows.
 */
void packedAccumRows(const float *w, const uint8_t *codes,
                     const double *table, int64_t rows, int64_t cols,
                     int64_t stride, float *out, PackedKvScratch &scratch);

/**
 * packedDotRows through a page table: logical row r of the sequence
 * lives at physical code row
 *
 *   pages[r / page_size] * page_size + r % page_size
 *
 * of the arena-wide panel @p codes. Only the address computation
 * differs from a contiguous slab — the accumulation order (double,
 * ascending c, one final float cast per output) is unchanged, so the
 * result is bit-identical to gathering the pages into a contiguous
 * slab and calling packedDotRows.
 */
void packedDotRowsPaged(const float *q, const uint8_t *codes,
                        const double *table, const int32_t *pages,
                        int64_t page_size, int64_t rows, int64_t cols,
                        int64_t stride, float *out,
                        PackedKvScratch &scratch);

/**
 * packedAccumRows through a page table (see packedDotRowsPaged for the
 * addressing). The per-output double accumulator persists across row
 * chunks — and therefore across page boundaries — exactly as in the
 * contiguous kernel, so no intermediate float rounding is introduced
 * at page seams: bit-identical to the slab kernel on the same rows.
 */
void packedAccumRowsPaged(const float *w, const uint8_t *codes,
                          const double *table, const int32_t *pages,
                          int64_t page_size, int64_t rows, int64_t cols,
                          int64_t stride, float *out,
                          PackedKvScratch &scratch);

namespace detail {

/**
 * The kernel arms behind gemmQuantized. Each accumulates every output
 * in double in ascending k, so all of them produce the same bits; the
 * public entry point picks one from m, trans_w and the host, with no
 * knob. Tests and benches run the others through gemmQuantizedOn.
 */
enum class GemmArm {
    kGather,   ///< m < 8, trans_w false: table gather into the FMA, no
               ///< panel (AVX-512F).
    kPanel32,  ///< [kc x 32] panel decoded once per 64-row tile, 4 rows
               ///< x 4 zmm strips (AVX-512F).
    kPanelRow, ///< [kc x 8] panel, one row at a time (the AVX2 / NEON
               ///< dot kernel, else scalar).
    kPanelPortable, ///< kPanelRow with the scalar dot kernel.
};

/// The arm gemmQuantized takes: on AVX-512F hosts kGather for m < 8
/// with trans_w false and kPanel32 for m >= 8; kPanelRow otherwise.
GemmArm gemmQuantizedArm(int64_t m, bool trans_w);

/// True when @p arm runs on this host (kGather also needs m < 8 and
/// trans_w false).
bool gemmArmAvailable(GemmArm arm);

/// Short arm name for bench output ("gather", "panel32", ...).
const char *gemmArmName(GemmArm arm);

/// gemmQuantized on the given arm; std::invalid_argument when the arm
/// cannot run this shape on this host.
void gemmQuantizedOn(GemmArm arm, const Tensor &a, bool trans_a,
                     const PackedTensor &w, bool trans_w, Tensor &c,
                     float alpha = 1.0f, float beta = 0.0f,
                     const GemmEpilogue *epi = nullptr);

/**
 * The KV GEMV panel kernels alone (the hosts without AVX-512F run
 * these); tests compare them with the gather kernels on one host.
 */
void packedDotRowsPagedPanel(const float *q, const uint8_t *codes,
                             const double *table, const int32_t *pages,
                             int64_t page_size, int64_t rows, int64_t cols,
                             int64_t stride, float *out,
                             PackedKvScratch &scratch);
void packedAccumRowsPagedPanel(const float *w, const uint8_t *codes,
                               const double *table, const int32_t *pages,
                               int64_t page_size, int64_t rows,
                               int64_t cols, int64_t stride, float *out,
                               PackedKvScratch &scratch);

} // namespace detail

} // namespace qt8

#endif // QT8_TENSOR_PACKED_H
