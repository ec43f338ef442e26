#include "tensor/packed.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

/// Output tile: 64 rows x 8 columns (8 = the SIMD accumulator width).
constexpr int64_t kPackedMBlock = 64;
constexpr int64_t kPackedNR = 8;
/// k-chunk of the decoded panel: 256 x 8 doubles = 16 KB, L1-resident,
/// shared by every row of the tile before the next chunk is decoded.
constexpr int64_t kPackedKChunk = 256;
/// Same parallelism work threshold as the fp32 blocked GEMM.
constexpr int64_t kPackedParallelFlops = 16384;
/// The gather arm runs gemmQuantized for m < kGatherMaxM (its
/// register-resident accumulators fit at most 7 rows), kGatherNCols
/// output columns (4 strips) per work item.
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

/**
 * Apply the epilogue stages to one output element. @p local holds one
 * QuantHealth per stage (per-thread; merged by the caller) so the
 * health counters match the health-aware quantizeInPlace overload
 * element for element.
 */
inline float
applyEpilogue(const GemmEpilogue &epi, QuantHealth *local, float y,
              int64_t i, int64_t j, int64_t n)
{
    for (size_t s = 0; s < epi.stages.size(); ++s) {
        const GemmEpilogue::Stage &st = epi.stages[s];
        switch (st.kind) {
          case GemmEpilogue::Stage::Kind::kBias:
            y += st.data[j];
            break;
          case GemmEpilogue::Stage::Kind::kGelu:
            y = geluScalar(y);
            break;
          case GemmEpilogue::Stage::Kind::kResidual:
            y += st.data[i * n + j];
            break;
          case GemmEpilogue::Stage::Kind::kQuant: {
            const float q = st.quant->quantize(y);
            if (st.health != nullptr) {
                QuantHealth &h = local[s];
                ++h.count;
                if (std::isfinite(y)) {
                    const double a = std::fabs(static_cast<double>(y));
                    if (a > h.amax)
                        h.amax = a;
                    if (a > st.quant->maxRepresentable())
                        ++h.saturated;
                    if (y != 0.0f && q == 0.0f)
                        ++h.underflow;
                    h.abs_err_sum += std::fabs(
                        static_cast<double>(y) - static_cast<double>(q));
                } else {
                    ++h.nonfinite;
                }
            }
            y = q;
            break;
          }
        }
    }
    return y;
}

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

/// alpha/beta + fused epilogue for the output block [i0, i0+bm) x
/// [j0, j0+bn) while it is hot. @p acc holds its double sums with row
/// stride @p ldacc; the final rounding matches gemm() exactly (double
/// alpha*acc + beta*prev, one cast to float).
void
storeBlock(const double *acc, int64_t ldacc, int64_t i0, int64_t bm,
           int64_t j0, int64_t bn, int64_t n, float alpha, float beta,
           const GemmEpilogue *epi, QuantHealth *local, float *pc)
{
    for (int64_t ii = 0; ii < bm; ++ii) {
        float *rc = pc + (i0 + ii) * n;
        for (int64_t jj = 0; jj < bn; ++jj) {
            const int64_t j = j0 + jj;
            const double prev =
                beta == 0.0f ? 0.0 : static_cast<double>(beta) * rc[j];
            float y = static_cast<float>(
                static_cast<double>(alpha) * acc[ii * ldacc + jj] + prev);
            if (epi != nullptr)
                y = applyEpilogue(*epi, local, y, i0 + ii, j, n);
            rc[j] = y;
        }
    }
}

/// Merge one thread's per-stage health partials into the stages' sinks.
void
mergeHealth(const GemmEpilogue *epi, const std::vector<QuantHealth> &local)
{
    if (local.empty())
        return;
#pragma omp critical(qt8_gemm_quantized_health)
    for (size_t s = 0; s < local.size(); ++s) {
        if (epi->stages[s].health != nullptr)
            epi->stages[s].health->merge(local[s]);
    }
}

void
gemmQuantizedImpl(bool allow_gather, const Tensor &a, bool trans_a,
                  const PackedTensor &w, bool trans_w, Tensor &c,
                  float alpha, float beta, const GemmEpilogue *epi)
{
    QT8_TRACE_SCOPE("gemm_quantized");
    int64_t m, n, k;
    checkQuantizedShapes(a, trans_a, w, trans_w, c, m, n, k);

    static const DotFn dot = pickDotKernel();

    const float *pa = a.data();
    float *pc = c.data();
    const uint8_t *codes = w.codes();
    const double *table = w.table();
    const int64_t lda = a.dim(1);
    const int64_t ldw = w.dim(1); // code-row stride

    // Small m, op(W) column j = code column j: the gather arm reads each
    // k step's 8 contiguous codes per strip once for all m rows. From
    // m = 8 on, the panel arm shares each decoded chunk by up to 64
    // rows.
    const bool gather =
        allow_gather && detail::gemmQuantizedUsesGather(m, trans_w);
    const int64_t tiles_m = (m + kPackedMBlock - 1) / kPackedMBlock;
    const int64_t strips_n = (n + kPackedNR - 1) / kPackedNR;
    const int64_t tiles = tiles_m * strips_n;
    const bool par =
        m * n * k > kPackedParallelFlops && kernelThreads() > 1;
    const size_t n_stages = epi != nullptr ? epi->stages.size() : 0;

    if (gather) {
#pragma omp parallel if (par)
        {
            // Work item: up to kGatherNCols output columns of every row.
            const int64_t groups = (n + kGatherNCols - 1) / kGatherNCols;
            double acc[kGatherMaxM * kGatherNCols];
            std::vector<QuantHealth> local(n_stages);
#pragma omp for schedule(static)
            for (int64_t g = 0; g < groups; ++g) {
                const int64_t j0 = g * kGatherNCols;
                const int64_t bn = std::min(n - j0, kGatherNCols);
                std::fill(acc, acc + m * kGatherNCols, 0.0);
                detail::gatherAccum(pa, trans_a ? 1 : lda, trans_a ? lda : 1,
                                    m, k, codes + j0, ldw, bn, table, acc,
                                    kGatherNCols);
                storeBlock(acc, kGatherNCols, 0, m, j0, bn, n, alpha, beta,
                           epi, local.data(), pc);
            }
            mergeHealth(epi, local);
        }
        return;
    }

#pragma omp parallel if (par)
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
        std::vector<QuantHealth> local(n_stages);

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

            storeBlock(acc.data(), kPackedNR, i0, bm, j0, bn, n, alpha, beta,
                       epi, local.data(), pc);
        }

        mergeHealth(epi, local);
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
    gemmQuantizedImpl(true, a, trans_a, w, trans_w, c, alpha, beta, epi);
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

bool
gemmQuantizedUsesGather(int64_t m, bool trans_w)
{
    return m < kGatherMaxM && !trans_w && packedGatherAvailable();
}

void
gemmQuantizedPanel(const Tensor &a, bool trans_a, const PackedTensor &w,
                   bool trans_w, Tensor &c, float alpha, float beta,
                   const GemmEpilogue *epi)
{
    gemmQuantizedImpl(false, a, trans_a, w, trans_w, c, alpha, beta, epi);
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
