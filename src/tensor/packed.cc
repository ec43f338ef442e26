#include "tensor/packed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"
#include "tensor/packed_simd.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace qt8 {

PackedTensor
PackedTensor::pack(const Tensor &t, const Quantizer &q, float scale)
{
    if (!packable(q))
        throw std::invalid_argument(
            "PackedTensor: format not packable (need a <=256-value "
            "grid): " + q.name());
    if (t.rank() != 2)
        throw std::invalid_argument("PackedTensor: rank-2 tensors only");

    PackedTensor p;
    p.shape_ = t.shape();
    p.format_ = q.name();
    p.scale_ = scale;

    // Decode table with the 1/scale fold. The float multiply matches
    // TensorScaler's `quantize(x*s) * (float)(1/s)` rounding; scale==1
    // makes both multiplies exact identities.
    const std::vector<float> &vals = q.gridValues();
    const float inv = static_cast<float>(1.0 / static_cast<double>(scale));
    p.table_.assign(256, 0.0);
    for (size_t i = 0; i < vals.size(); ++i)
        p.table_[i] = static_cast<double>(vals[i] * inv);

    const int64_t numel = t.numel();
    p.codes_.resize(static_cast<size_t>(numel));
    const float *src = t.data();
    for (int64_t i = 0; i < numel; ++i) {
        const float x = src[i];
        if (std::isnan(x))
            throw std::invalid_argument(
                "PackedTensor: NaN element has no grid code");
        p.codes_[static_cast<size_t>(i)] =
            static_cast<uint8_t>(q.gridIndex(x * scale));
    }
    return p;
}

Tensor
PackedTensor::unpack() const
{
    Tensor out(shape_);
    float *dst = out.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        dst[i] = static_cast<float>(table_[codes_[static_cast<size_t>(i)]]);
    return out;
}

PackedTensor
PackedTensor::transposed() const
{
    PackedTensor p = *this;
    const int64_t rows = dim(0), cols = dim(1);
    p.shape_ = {cols, rows};
    // 32x32 blocks: with a power-of-two row count the strided writes of
    // one source row land in a few L1 sets, which 32 lines still fit.
    constexpr int64_t kB = 32;
    const uint8_t *src = codes_.data();
    uint8_t *dst = p.codes_.data();
    for (int64_t r0 = 0; r0 < rows; r0 += kB)
        for (int64_t c0 = 0; c0 < cols; c0 += kB)
            for (int64_t r = r0; r < std::min(rows, r0 + kB); ++r)
                for (int64_t c = c0; c < std::min(cols, c0 + kB); ++c)
                    dst[c * rows + r] = src[r * cols + c];
    return p;
}

namespace {

using detail::GemmArm;

/// Output tiles are 64 rows by one panel width: 8 columns (the AVX2 /
/// NEON accumulator width) or 32 for the AVX-512 blocked arm.
constexpr int64_t kPackedMBlock = 64;
constexpr int64_t kPackedNR = 8;
constexpr int64_t kWideNR = 32;
/// k-chunk of the decoded panel: 256 x 8 doubles = 16 KB for the
/// one-row arm, 128 x 32 = 32 KB for the wide panel, L1-resident and
/// shared by every row of the tile before the next chunk is decoded.
constexpr int64_t kPackedKChunk = 256;
constexpr int64_t kWideKChunk = 128;
/// Same parallelism work threshold as the fp32 blocked GEMM.
constexpr int64_t kPackedParallelFlops = 16384;
/// The gather arm runs gemmQuantized for m < kGatherMaxM (its
/// register-resident accumulators fit at most 7 rows), kGatherNCols
/// output columns (4 strips) per work item. From the same m on, the
/// register-blocked panel arms take over.
constexpr int64_t kGatherMaxM = 8;
constexpr int64_t kGatherNCols = 32;

/// Scalar fallback for the column-interleaved dot (same loop the SIMD
/// kernel vectorizes; products are exact in double either way).
void
dotChunk8Portable(const float *a, const double *w, int64_t kc, double *acc)
{
    for (int64_t t = 0; t < kc; ++t) {
        const double av = static_cast<double>(a[t]);
        for (int jj = 0; jj < kPackedNR; ++jj)
            acc[jj] += av * w[t * kPackedNR + jj];
    }
}

using DotFn = void (*)(const float *, const double *, int64_t, double *);

DotFn
pickDotKernel()
{
    return detail::packedSimdAvailable() ? detail::dotChunk8Simd
                                         : dotChunk8Portable;
}

/// Record one quantize point's health for input @p y rounded to @p q,
/// matching the health-aware Quantizer::quantizeInPlace overload.
void
noteQuant(QuantHealth &h, const Quantizer &quant, float y, float q)
{
    ++h.count;
    if (std::isfinite(y)) {
        const double a = std::fabs(static_cast<double>(y));
        if (a > h.amax)
            h.amax = a;
        if (a > quant.maxRepresentable())
            ++h.saturated;
        if (y != 0.0f && q == 0.0f)
            ++h.underflow;
        h.abs_err_sum +=
            std::fabs(static_cast<double>(y) - static_cast<double>(q));
    } else {
        ++h.nonfinite;
    }
}

/**
 * A GemmEpilogue prepared for one call. When the stages hold
 * quant(q) -> gelu -> quant(c) with q a grid format (the FFN fc1 tail),
 * every non-NaN input reaches the GeLU as one of q's <=256
 * grid values, so the run collapses to lookups on q's code:
 * gelu[i] = geluScalar(q.gridValues()[i]) and out[i] = c.quantize(gelu[i]).
 * Both tables are computed by the very calls the staged path makes,
 * so the result and each stage's health are bit-identical; a NaN has
 * no code and takes the staged path.
 */
struct PreparedEpilogue
{
    const GemmEpilogue *epi = nullptr;
    size_t gelu_at = SIZE_MAX; ///< Stage index of the tabled quant(q).
    std::array<float, 256> gelu{};
    std::array<float, 256> out{};

    explicit PreparedEpilogue(const GemmEpilogue *e) : epi(e)
    {
        using Kind = GemmEpilogue::Stage::Kind;
        const std::vector<GemmEpilogue::Stage> &st = e->stages;
        for (size_t s = 0; s + 2 < st.size(); ++s) {
            if (st[s].kind != Kind::kQuant ||
                !PackedTensor::packable(*st[s].quant) ||
                st[s + 1].kind != Kind::kGelu ||
                st[s + 2].kind != Kind::kQuant)
                continue;
            const std::vector<float> &vals = st[s].quant->gridValues();
            for (size_t i = 0; i < vals.size(); ++i) {
                gelu[i] = geluScalar(vals[i]);
                out[i] = st[s + 2].quant->quantize(gelu[i]);
            }
            gelu_at = s;
            return;
        }
    }

    /// Apply the stages in place to the output run y[0, len) of row @p i
    /// starting at column @p j0, stage by stage (each element sees the
    /// same operations in the same order as the separate passes).
    /// @p local holds one QuantHealth per stage (per-thread; merged by
    /// the caller).
    void apply(QuantHealth *local, float *y, int64_t len, int64_t i,
               int64_t j0, int64_t n) const
    {
        using Kind = GemmEpilogue::Stage::Kind;
        const std::vector<GemmEpilogue::Stage> &stages = epi->stages;
        for (size_t s = 0; s < stages.size(); ++s) {
            const GemmEpilogue::Stage &st = stages[s];
            if (s == gelu_at) {
                const GemmEpilogue::Stage &last = stages[s + 2];
                for (int64_t jj = 0; jj < len; ++jj)
                    y[jj] = geluRun(local + s, st, last, y[jj]);
                s += 2;
                continue;
            }
            switch (st.kind) {
              case Kind::kBias:
                for (int64_t jj = 0; jj < len; ++jj)
                    y[jj] += st.data[j0 + jj];
                break;
              case Kind::kGelu:
                for (int64_t jj = 0; jj < len; ++jj)
                    y[jj] = geluScalar(y[jj]);
                break;
              case Kind::kResidual:
                for (int64_t jj = 0; jj < len; ++jj)
                    y[jj] += st.data[i * n + j0 + jj];
                break;
              case Kind::kQuant:
                for (int64_t jj = 0; jj < len; ++jj) {
                    const float q = st.quant->quantize(y[jj]);
                    if (st.health != nullptr)
                        noteQuant(local[s], *st.quant, y[jj], q);
                    y[jj] = q;
                }
                break;
            }
        }
    }

  private:
    /// quant(q) -> gelu -> quant(c) on one element; @p h points at the
    /// quant(q) stage's health slot (the quant(c) slot is h + 2).
    float geluRun(QuantHealth *h, const GemmEpilogue::Stage &first,
                  const GemmEpilogue::Stage &last, float y) const
    {
        if (std::isnan(y)) {
            // No code for NaN: the staged path, call for call.
            const float q = first.quant->quantize(y);
            if (first.health != nullptr)
                noteQuant(h[0], *first.quant, y, q);
            const float g = geluScalar(q);
            const float o = last.quant->quantize(g);
            if (last.health != nullptr)
                noteQuant(h[2], *last.quant, g, o);
            return o;
        }
        const uint16_t code = first.quant->gridIndex(y);
        if (first.health != nullptr)
            noteQuant(h[0], *first.quant, y, first.quant->gridValues()[code]);
        if (last.health != nullptr)
            noteQuant(h[2], *last.quant, gelu[code], out[code]);
        return out[code];
    }
};

void
checkQuantizedShapes(const Tensor &a, bool trans_a, const PackedTensor &w,
                     bool trans_w, const Tensor &c, int64_t &m, int64_t &n,
                     int64_t &k)
{
    if (a.rank() != 2 || c.rank() != 2 || w.shape().size() != 2)
        throw std::invalid_argument("gemmQuantized: rank-2 operands only");
    m = trans_a ? a.dim(1) : a.dim(0);
    k = trans_a ? a.dim(0) : a.dim(1);
    const int64_t wk = trans_w ? w.dim(1) : w.dim(0);
    n = trans_w ? w.dim(0) : w.dim(1);
    if (k != wk || c.dim(0) != m || c.dim(1) != n)
        throw std::invalid_argument("gemmQuantized: shape mismatch");
}

/// Operands and shape of one gemmQuantized call, shared by the arms.
struct GemmCall
{
    const float *pa;
    int64_t lda;
    bool trans_a;
    const uint8_t *codes;
    int64_t ldw; ///< Code-row stride.
    bool trans_w;
    const double *table;
    float *pc;
    int64_t m, n, k;
    float alpha, beta;
    const PreparedEpilogue *epi; ///< Null without an epilogue.
    bool par;                    ///< Run the tiles in parallel.

    size_t stages() const
    {
        return epi != nullptr ? epi->epi->stages.size() : 0;
    }
};

/// alpha/beta + fused epilogue for the output block [i0, i0+bm) x
/// [j0, j0+bn) while it is hot. @p acc holds its double sums with row
/// stride @p ldacc; the final rounding matches gemm() exactly (double
/// alpha*acc + beta*prev, one cast to float).
void
storeBlock(const GemmCall &g, const double *acc, int64_t ldacc, int64_t i0,
           int64_t bm, int64_t j0, int64_t bn, QuantHealth *local)
{
    for (int64_t ii = 0; ii < bm; ++ii) {
        float *rc = g.pc + (i0 + ii) * g.n + j0;
        for (int64_t jj = 0; jj < bn; ++jj) {
            const double prev =
                g.beta == 0.0f ? 0.0 : static_cast<double>(g.beta) * rc[jj];
            rc[jj] = static_cast<float>(
                static_cast<double>(g.alpha) * acc[ii * ldacc + jj] + prev);
        }
        if (g.epi != nullptr)
            g.epi->apply(local, rc, bn, i0 + ii, j0, g.n);
    }
}

/// Merge one thread's per-stage health partials into the stages' sinks.
void
mergeHealth(const GemmCall &g, const std::vector<QuantHealth> &local)
{
    if (local.empty())
        return;
#pragma omp critical(qt8_gemm_quantized_health)
    for (size_t s = 0; s < local.size(); ++s) {
        const GemmEpilogue::Stage &st = g.epi->epi->stages[s];
        if (st.health != nullptr)
            st.health->merge(local[s]);
    }
}

/// Small m, op(W) column j = code column j: each k step gathers a
/// strip's 8 contiguous codes once for all m rows, no panel.
void
gatherArm(const GemmCall &g)
{
#pragma omp parallel if (g.par)
    {
        // Work item: up to kGatherNCols output columns of every row.
        const int64_t groups = (g.n + kGatherNCols - 1) / kGatherNCols;
        double acc[kGatherMaxM * kGatherNCols];
        std::vector<QuantHealth> local(g.stages());
#pragma omp for schedule(static)
        for (int64_t grp = 0; grp < groups; ++grp) {
            const int64_t j0 = grp * kGatherNCols;
            const int64_t bn = std::min(g.n - j0, kGatherNCols);
            std::fill(acc, acc + g.m * kGatherNCols, 0.0);
            detail::gatherAccum(g.pa, g.trans_a ? 1 : g.lda,
                                g.trans_a ? g.lda : 1, g.m, g.k,
                                g.codes + j0, g.ldw, bn, g.table, acc,
                                kGatherNCols);
            storeBlock(g, acc, kGatherNCols, 0, g.m, j0, bn, local.data());
        }
        mergeHealth(g, local);
    }
}

/// The one-row panel arm: decode each [kc x 8] panel, then run every
/// row of the 64-row tile through the dot kernel on its own.
void
rowArm(const GemmCall &g, DotFn dot)
{
    const float *pa = g.pa;
    const uint8_t *codes = g.codes;
    const double *table = g.table;
    const int64_t lda = g.lda;
    const int64_t ldw = g.ldw;
    const bool trans_a = g.trans_a;
    const bool trans_w = g.trans_w;
    const int64_t m = g.m, n = g.n, k = g.k;
    const int64_t tiles_m = (m + kPackedMBlock - 1) / kPackedMBlock;
    const int64_t strips_n = (n + kPackedNR - 1) / kPackedNR;
    const int64_t tiles = tiles_m * strips_n;

#pragma omp parallel if (g.par)
    {
        // Per-thread scratch: the op(A) pack for trans_a (full-k rows,
        // as in the fp32 blocked GEMM), the decoded [kc x 8] weight
        // panel, the per-row accumulators, and per-stage health
        // partials (merged once at the end).
        std::vector<float> a_pack;
        std::vector<double> wdec(
            static_cast<size_t>(kPackedKChunk * kPackedNR));
        std::vector<double> acc(
            static_cast<size_t>(kPackedMBlock * kPackedNR));
        std::vector<QuantHealth> local(g.stages());

#pragma omp for schedule(static)
        for (int64_t tile = 0; tile < tiles; ++tile) {
            const int64_t i0 = (tile / strips_n) * kPackedMBlock;
            const int64_t j0 = (tile % strips_n) * kPackedNR;
            const int64_t i1 = std::min(m, i0 + kPackedMBlock);
            const int64_t bm = i1 - i0;
            const int64_t bn = std::min(n - j0, kPackedNR);

            if (trans_a) {
                // op(A) row i is column i of A: stride-lda gather.
                a_pack.resize(static_cast<size_t>(bm) * k);
                for (int64_t t = 0; t < k; ++t) {
                    const float *src = pa + t * lda + i0;
                    for (int64_t ii = 0; ii < bm; ++ii)
                        a_pack[static_cast<size_t>(ii) * k + t] = src[ii];
                }
            }

            std::fill(acc.begin(),
                      acc.begin() + static_cast<size_t>(bm) * kPackedNR,
                      0.0);

            for (int64_t k0 = 0; k0 < k; k0 += kPackedKChunk) {
                const int64_t kc = std::min(kPackedKChunk, k - k0);
                // Decode the code panel through the 256-entry table
                // into column-interleaved doubles; lanes beyond bn are
                // zero so their (discarded) accumulators stay inert.
                if (bn < kPackedNR)
                    std::fill(wdec.begin(),
                              wdec.begin() +
                                  static_cast<size_t>(kc) * kPackedNR,
                              0.0);
                if (trans_w) {
                    // op(W) column j is code row j: contiguous k run.
                    for (int64_t jj = 0; jj < bn; ++jj) {
                        const uint8_t *row = codes + (j0 + jj) * ldw + k0;
                        for (int64_t t = 0; t < kc; ++t)
                            wdec[static_cast<size_t>(t * kPackedNR + jj)] =
                                table[row[t]];
                    }
                } else {
                    // op(W) column j is code column j: stride-ldw walk.
                    for (int64_t t = 0; t < kc; ++t) {
                        const uint8_t *row = codes + (k0 + t) * ldw + j0;
                        for (int64_t jj = 0; jj < bn; ++jj)
                            wdec[static_cast<size_t>(t * kPackedNR + jj)] =
                                table[row[jj]];
                    }
                }

                for (int64_t ii = 0; ii < bm; ++ii) {
                    const float *ra = trans_a
                        ? a_pack.data() + ii * k + k0
                        : pa + (i0 + ii) * lda + k0;
                    dot(ra, wdec.data(), kc,
                        acc.data() + ii * kPackedNR);
                }
            }

            storeBlock(g, acc.data(), kPackedNR, i0, bm, j0, bn,
                       local.data());
        }

        mergeHealth(g, local);
    }
}

/// Decode op(W) columns [j0, j0+bn) x k rows [k0, k0+kc), bn < 32,
/// through the table into a column-interleaved [kc x 32] panel; lanes
/// beyond bn are zero so their (discarded) accumulators stay inert.
/// Full-width panels take detail::decodePanel32 instead.
void
decodeEdgePanel(const GemmCall &g, int64_t j0, int64_t bn, int64_t k0,
                int64_t kc, double *panel)
{
    std::fill(panel, panel + kc * kWideNR, 0.0);
    for (int64_t jj = 0; jj < bn; ++jj)
        for (int64_t t = 0; t < kc; ++t)
            panel[t * kWideNR + jj] =
                g.table[g.trans_w ? g.codes[(j0 + jj) * g.ldw + k0 + t]
                                  : g.codes[(k0 + t) * g.ldw + j0 + jj]];
}

/// The register-blocked panel arm (AVX-512F): decode each [kc x 32]
/// panel once per 64-row tile, convert the tile's op(A) chunk to double
/// (exact), and run four rows against every panel load
/// (detail::panelRows32).
void
panel32Arm(const GemmCall &g)
{
    const int64_t tiles_m = (g.m + kPackedMBlock - 1) / kPackedMBlock;
    const int64_t strips_n = (g.n + kWideNR - 1) / kWideNR;
#pragma omp parallel if (g.par)
    {
        std::vector<double> ad(
            static_cast<size_t>(kPackedMBlock * kWideKChunk));
        std::vector<double> panel(static_cast<size_t>(kWideKChunk * kWideNR));
        std::vector<double> acc(static_cast<size_t>(kPackedMBlock * kWideNR));
        std::vector<QuantHealth> local(g.stages());

#pragma omp for schedule(static)
        for (int64_t tile = 0; tile < tiles_m * strips_n; ++tile) {
            const int64_t i0 = (tile / strips_n) * kPackedMBlock;
            const int64_t j0 = (tile % strips_n) * kWideNR;
            const int64_t bm = std::min(g.m, i0 + kPackedMBlock) - i0;
            const int64_t bn = std::min(g.n - j0, kWideNR);

            std::fill(acc.begin(), acc.begin() + bm * kWideNR, 0.0);
            for (int64_t k0 = 0; k0 < g.k; k0 += kWideKChunk) {
                const int64_t kc = std::min(kWideKChunk, g.k - k0);
                double *pd = ad.data();
                if (g.trans_a) {
                    for (int64_t t = 0; t < kc; ++t) {
                        const float *src = g.pa + (k0 + t) * g.lda + i0;
                        for (int64_t ii = 0; ii < bm; ++ii)
                            pd[ii * kc + t] = src[ii];
                    }
                } else {
                    for (int64_t ii = 0; ii < bm; ++ii) {
                        const float *src = g.pa + (i0 + ii) * g.lda + k0;
                        for (int64_t t = 0; t < kc; ++t)
                            pd[ii * kc + t] = src[t];
                    }
                }
                if (bn == kWideNR)
                    detail::decodePanel32(
                        g.codes + (g.trans_w ? j0 * g.ldw + k0
                                             : k0 * g.ldw + j0),
                        g.ldw, g.trans_w, kc, g.table, panel.data());
                else
                    decodeEdgePanel(g, j0, bn, k0, kc, panel.data());
                detail::panelRows32(pd, kc, bm, panel.data(), kc,
                                    acc.data());
            }
            storeBlock(g, acc.data(), kWideNR, i0, bm, j0, bn, local.data());
        }
        mergeHealth(g, local);
    }
}

void
gemmQuantizedImpl(GemmArm arm, const Tensor &a, bool trans_a,
                  const PackedTensor &w, bool trans_w, Tensor &c,
                  float alpha, float beta, const GemmEpilogue *epi)
{
    QT8_TRACE_SCOPE("gemm_quantized");
    int64_t m, n, k;
    checkQuantizedShapes(a, trans_a, w, trans_w, c, m, n, k);
    if (!detail::gemmArmAvailable(arm) ||
        (arm == GemmArm::kGather && (m >= kGatherMaxM || trans_w)))
        throw std::invalid_argument(
            std::string("gemmQuantized: arm cannot run here: ") +
            detail::gemmArmName(arm));

    std::optional<PreparedEpilogue> prepared;
    if (epi != nullptr)
        prepared.emplace(epi);
    const GemmCall g{a.data(), a.dim(1), trans_a, w.codes(), w.dim(1),
                     trans_w, w.table(), c.data(), m, n, k, alpha, beta,
                     prepared ? &*prepared : nullptr,
                     m * n * k > kPackedParallelFlops &&
                         kernelThreads() > 1};
    switch (arm) {
      case GemmArm::kGather:
        return gatherArm(g);
      case GemmArm::kPanel32:
        return panel32Arm(g);
      case GemmArm::kPanelRow: {
        static const DotFn dot = pickDotKernel();
        return rowArm(g, dot);
      }
      case GemmArm::kPanelPortable:
        return rowArm(g, dotChunk8Portable);
    }
}

/// Physical code row of logical row @p r through a page table.
inline int64_t
physRow(const int32_t *pages, int64_t page_size, int64_t r)
{
    return static_cast<int64_t>(pages[r / page_size]) * page_size +
           r % page_size;
}

void
dotRowsPagedImpl(bool allow_gather, const float *q, const uint8_t *codes,
                 const double *table, const int32_t *pages,
                 int64_t page_size, int64_t rows, int64_t cols,
                 int64_t stride, float *out, PackedKvScratch &scratch)
{
    if (allow_gather && detail::packedGatherAvailable()) {
        // Eight K rows at a time, transposed in registers: each column
        // costs one gather for all eight rows and no panel is built. A
        // ragged last group repeats its last row (outputs discarded).
        for (int64_t r0 = 0; r0 < rows; r0 += kPackedNR) {
            const int64_t bn = std::min(rows - r0, kPackedNR);
            const uint8_t *rp[kPackedNR];
            for (int64_t jj = 0; jj < kPackedNR; ++jj)
                rp[jj] = codes + physRow(pages, page_size,
                                         r0 + std::min(jj, bn - 1)) *
                                     stride;
            double acc[kPackedNR] = {};
            detail::gatherDot8(q, rp, cols, table, acc);
            for (int64_t jj = 0; jj < bn; ++jj)
                out[r0 + jj] = static_cast<float>(acc[jj]);
        }
        return;
    }

    static const DotFn dot = pickDotKernel();
    scratch.panel.resize(
        static_cast<size_t>(kPackedKChunk * kPackedNR));
    double *wdec = scratch.panel.data();
    double acc[kPackedNR];

    for (int64_t r0 = 0; r0 < rows; r0 += kPackedNR) {
        const int64_t bn = std::min(rows - r0, kPackedNR);
        std::fill(acc, acc + kPackedNR, 0.0);
        // The k dimension here is the column run of each code row
        // (contiguous), chunked so the decoded panel stays L1-resident.
        for (int64_t c0 = 0; c0 < cols; c0 += kPackedKChunk) {
            const int64_t kc = std::min(kPackedKChunk, cols - c0);
            if (bn < kPackedNR)
                std::fill(wdec, wdec + kc * kPackedNR, 0.0);
            for (int64_t jj = 0; jj < bn; ++jj) {
                const uint8_t *row =
                    codes + physRow(pages, page_size, r0 + jj) * stride +
                    c0;
                for (int64_t t = 0; t < kc; ++t)
                    wdec[t * kPackedNR + jj] = table[row[t]];
            }
            dot(q + c0, wdec, kc, acc);
        }
        for (int64_t jj = 0; jj < bn; ++jj)
            out[r0 + jj] = static_cast<float>(acc[jj]);
    }
}

void
accumRowsPagedImpl(bool allow_gather, const float *w, const uint8_t *codes,
                   const double *table, const int32_t *pages,
                   int64_t page_size, int64_t rows, int64_t cols,
                   int64_t stride, float *out, PackedKvScratch &scratch)
{
    if (allow_gather && detail::packedGatherAvailable()) {
        // Each page is a contiguous run of V rows: the gather kernel
        // walks it for every column at once (8 contiguous codes per
        // strip per row), the double accumulators carried across page
        // seams in ascending r.
        scratch.panel.assign(static_cast<size_t>(cols), 0.0);
        double *acc = scratch.panel.data();
        for (int64_t r0 = 0; r0 < rows;) {
            const int64_t run =
                std::min(page_size - r0 % page_size, rows - r0);
            detail::gatherAccum(w + r0, 0, 1, 1, run,
                                codes + physRow(pages, page_size, r0) *
                                            stride,
                                stride, cols, table, acc, cols);
            r0 += run;
        }
        for (int64_t c = 0; c < cols; ++c)
            out[c] = static_cast<float>(acc[c]);
        return;
    }

    static const DotFn dot = pickDotKernel();
    scratch.panel.resize(
        static_cast<size_t>(kPackedKChunk * kPackedNR));
    double *wdec = scratch.panel.data();
    double acc[kPackedNR];

    for (int64_t c0 = 0; c0 < cols; c0 += kPackedNR) {
        const int64_t bn = std::min(cols - c0, kPackedNR);
        std::fill(acc, acc + kPackedNR, 0.0);
        // The k dimension is the cache length: stride-@p stride walk
        // down the rows, ascending so accumulation order matches gemm.
        // acc persists across every r chunk and page seam.
        for (int64_t r0 = 0; r0 < rows; r0 += kPackedKChunk) {
            const int64_t kc = std::min(kPackedKChunk, rows - r0);
            if (bn < kPackedNR)
                std::fill(wdec, wdec + kc * kPackedNR, 0.0);
            for (int64_t t = 0; t < kc; ++t) {
                const uint8_t *row =
                    codes + physRow(pages, page_size, r0 + t) * stride +
                    c0;
                for (int64_t jj = 0; jj < bn; ++jj)
                    wdec[t * kPackedNR + jj] = table[row[jj]];
            }
            dot(w + r0, wdec, kc, acc);
        }
        for (int64_t jj = 0; jj < bn; ++jj)
            out[c0 + jj] = static_cast<float>(acc[jj]);
    }
}

} // namespace

void
gemmQuantized(const Tensor &a, bool trans_a, const PackedTensor &w,
              bool trans_w, Tensor &c, float alpha, float beta,
              const GemmEpilogue *epi)
{
    const int64_t m = trans_a ? a.dim(1) : a.dim(0);
    gemmQuantizedImpl(detail::gemmQuantizedArm(m, trans_w), a, trans_a, w,
                      trans_w, c, alpha, beta, epi);
}

void
packedDotRows(const float *q, const uint8_t *codes, const double *table,
              int64_t rows, int64_t cols, int64_t stride, float *out,
              PackedKvScratch &scratch)
{
    // One page spanning every row: physical row == logical row (the
    // max keeps the page size nonzero when there are no rows).
    const int32_t page0 = 0;
    packedDotRowsPaged(q, codes, table, &page0, std::max<int64_t>(rows, 1),
                       rows, cols, stride, out, scratch);
}

void
packedAccumRows(const float *w, const uint8_t *codes, const double *table,
                int64_t rows, int64_t cols, int64_t stride, float *out,
                PackedKvScratch &scratch)
{
    const int32_t page0 = 0;
    packedAccumRowsPaged(w, codes, table, &page0,
                         std::max<int64_t>(rows, 1), rows, cols, stride,
                         out, scratch);
}

void
packedDotRowsPaged(const float *q, const uint8_t *codes,
                   const double *table, const int32_t *pages,
                   int64_t page_size, int64_t rows, int64_t cols,
                   int64_t stride, float *out, PackedKvScratch &scratch)
{
    dotRowsPagedImpl(true, q, codes, table, pages, page_size, rows, cols,
                     stride, out, scratch);
}

void
packedAccumRowsPaged(const float *w, const uint8_t *codes,
                     const double *table, const int32_t *pages,
                     int64_t page_size, int64_t rows, int64_t cols,
                     int64_t stride, float *out, PackedKvScratch &scratch)
{
    accumRowsPagedImpl(true, w, codes, table, pages, page_size, rows, cols,
                       stride, out, scratch);
}

namespace detail {

GemmArm
gemmQuantizedArm(int64_t m, bool trans_w)
{
    // m = 1 with trans_w stays on the one-row arm: decoding a 32-wide
    // panel for a single row measured slower than the 8-wide one.
    if (m < kGatherMaxM)
        return !trans_w && packedGatherAvailable() ? GemmArm::kGather
                                                   : GemmArm::kPanelRow;
    return packedGatherAvailable() ? GemmArm::kPanel32 : GemmArm::kPanelRow;
}

bool
gemmArmAvailable(GemmArm arm)
{
    switch (arm) {
      case GemmArm::kGather:
      case GemmArm::kPanel32:
        return packedGatherAvailable();
      case GemmArm::kPanelRow:
      case GemmArm::kPanelPortable:
        return true;
    }
    return false;
}

const char *
gemmArmName(GemmArm arm)
{
    switch (arm) {
      case GemmArm::kGather: return "gather";
      case GemmArm::kPanel32: return "panel32";
      case GemmArm::kPanelRow: return "panel";
      case GemmArm::kPanelPortable: return "portable";
    }
    return "?";
}

void
gemmQuantizedOn(GemmArm arm, const Tensor &a, bool trans_a,
                const PackedTensor &w, bool trans_w, Tensor &c, float alpha,
                float beta, const GemmEpilogue *epi)
{
    gemmQuantizedImpl(arm, a, trans_a, w, trans_w, c, alpha, beta, epi);
}

void
packedDotRowsPagedPanel(const float *q, const uint8_t *codes,
                        const double *table, const int32_t *pages,
                        int64_t page_size, int64_t rows, int64_t cols,
                        int64_t stride, float *out,
                        PackedKvScratch &scratch)
{
    dotRowsPagedImpl(false, q, codes, table, pages, page_size, rows, cols,
                     stride, out, scratch);
}

void
packedAccumRowsPagedPanel(const float *w, const uint8_t *codes,
                          const double *table, const int32_t *pages,
                          int64_t page_size, int64_t rows, int64_t cols,
                          int64_t stride, float *out,
                          PackedKvScratch &scratch)
{
    accumRowsPagedImpl(false, w, codes, table, pages, page_size, rows,
                       cols, stride, out, scratch);
}

} // namespace detail

void
gemmQuantizedReference(const Tensor &a, bool trans_a, const PackedTensor &w,
                       bool trans_w, Tensor &c, float alpha, float beta,
                       const GemmEpilogue *epi)
{
    const Tensor wf = w.unpack();
    gemmReference(a, trans_a, wf, trans_w, c, alpha, beta);
    if (epi == nullptr)
        return;

    // Unfused semantics: each stage is a separate full-tensor pass
    // (addRowBias / geluInPlace / addInPlace / quantizeInPlace), which
    // is what the fused kernel must reproduce bit for bit.
    const int64_t m = c.dim(0);
    const int64_t n = c.dim(1);
    float *pc = c.data();
    for (const GemmEpilogue::Stage &st : epi->stages) {
        switch (st.kind) {
          case GemmEpilogue::Stage::Kind::kBias:
            for (int64_t i = 0; i < m; ++i)
                for (int64_t j = 0; j < n; ++j)
                    pc[i * n + j] += st.data[j];
            break;
          case GemmEpilogue::Stage::Kind::kGelu:
            for (int64_t i = 0; i < m * n; ++i)
                pc[i] = geluScalar(pc[i]);
            break;
          case GemmEpilogue::Stage::Kind::kResidual:
            for (int64_t i = 0; i < m * n; ++i)
                pc[i] += st.data[i];
            break;
          case GemmEpilogue::Stage::Kind::kQuant:
            if (st.health != nullptr) {
                st.quant->quantizeInPlace(
                    pc, static_cast<size_t>(m * n), *st.health);
            } else {
                st.quant->quantizeInPlace(pc,
                                          static_cast<size_t>(m * n));
            }
            break;
        }
    }
}

} // namespace qt8
