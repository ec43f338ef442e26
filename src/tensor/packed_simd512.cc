#include "tensor/packed_simd.h"

#include <cstdlib>
#include <cstring>

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace qt8::detail {

#if defined(__AVX512F__) && defined(__FMA__)

namespace {

/// Eight codes starting at @p p, byte t in bits [8t, 8t+8). @p n < 8
/// (a ragged tail) reads only n bytes; the other bytes are code 0.
inline uint64_t
loadCodes(const uint8_t *p, int64_t n)
{
    uint64_t v = 0;
    if (n == 8)
        std::memcpy(&v, p, 8);
    else
        std::memcpy(&v, p, static_cast<size_t>(n));
    return v;
}

/// Decoded table values at eight code positions. The merge-masked
/// form with a zero source is the plain gather, spelled without the
/// undefined source register GCC warns about.
inline __m512d
gather(const uint8_t *p, int64_t n, const double *table)
{
    const __m256i idx = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(loadCodes(p, n))));
    return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, table,
                                    8);
}

/**
 * One group of NS 8-column strips for M rows: M*NS accumulators stay
 * in registers across all k while each k step gathers NS strips'
 * decoded weights once and shares them between the M rows. The last
 * strip may be ragged (@p tail columns, masked load/store).
 */
template <int M, int NS>
void
stripGroup(const float *a, int64_t a_rs, int64_t a_cs, int64_t k,
           const uint8_t *codes, int64_t ldw, int64_t tail,
           const double *table, double *acc, int64_t ldacc)
{
    const __mmask8 last = static_cast<__mmask8>((1u << tail) - 1u);
    __m512d c[M][NS];
    for (int i = 0; i < M; ++i)
        for (int s = 0; s < NS; ++s)
            c[i][s] = _mm512_maskz_loadu_pd(s + 1 < NS ? 0xFF : last,
                                            acc + i * ldacc + 8 * s);
    for (int64_t t = 0; t < k; ++t) {
        const uint8_t *row = codes + t * ldw;
        __m512d w[NS];
        for (int s = 0; s < NS; ++s)
            w[s] = gather(row + 8 * s, s + 1 < NS ? 8 : tail, table);
        for (int i = 0; i < M; ++i) {
            // Both factors are float values, so the product is exact in
            // double and the FMA rounds once, like the scalar add.
            const __m512d av =
                _mm512_set1_pd(static_cast<double>(a[i * a_rs + t * a_cs]));
            for (int s = 0; s < NS; ++s)
                c[i][s] = _mm512_fmadd_pd(av, w[s], c[i][s]);
        }
    }
    for (int i = 0; i < M; ++i)
        for (int s = 0; s < NS; ++s)
            _mm512_mask_storeu_pd(acc + i * ldacc + 8 * s,
                                  s + 1 < NS ? 0xFF : last, c[i][s]);
}

template <int M>
void
gatherAccumM(const float *a, int64_t a_rs, int64_t a_cs, int64_t k,
             const uint8_t *codes, int64_t ldw, int64_t ncols,
             const double *table, double *acc, int64_t ldacc)
{
    // Strips per group: enough independent FMA chains to cover the FMA
    // latency, while M*NS accumulators + NS gathered panels fit the 32
    // zmm registers.
    constexpr int kNS = M <= 4 ? 4 : 2;
    int64_t j = 0;
    for (; j + 8 * kNS <= ncols; j += 8 * kNS)
        stripGroup<M, kNS>(a, a_rs, a_cs, k, codes + j, ldw, 8, table,
                           acc + j, ldacc);
    for (; j < ncols; j += 8) {
        const int64_t bn = ncols - j < 8 ? ncols - j : 8;
        stripGroup<M, 1>(a, a_rs, a_cs, k, codes + j, ldw, bn, table,
                         acc + j, ldacc);
    }
}

} // namespace

bool
packedGatherAvailable()
{
    // Compiled with -mavx512f -mfma whatever the build host; gate at
    // runtime like the AVX2 kernel.
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("fma");
    return ok;
}

void
gatherAccum(const float *a, int64_t a_rs, int64_t a_cs, int64_t m,
            int64_t k, const uint8_t *codes, int64_t ldw, int64_t ncols,
            const double *table, double *acc, int64_t ldacc)
{
    switch (m) {
      case 1: return gatherAccumM<1>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 2: return gatherAccumM<2>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 3: return gatherAccumM<3>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 4: return gatherAccumM<4>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 5: return gatherAccumM<5>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 6: return gatherAccumM<6>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      case 7: return gatherAccumM<7>(a, a_rs, a_cs, k, codes, ldw, ncols,
                                     table, acc, ldacc);
      default: break;
    }
}

void
gatherDot8(const float *q, const uint8_t *const *rows, int64_t cols,
           const double *table, double *acc)
{
    // Row r's 8 codes for columns c0..c0+7 sit in 64-bit lane r; the low
    // byte of every lane, shifted down 8 bits per column, is the 8-row
    // index vector of column c0+t — an in-register 8x8 transpose
    // feeding one gather per column.
    const __m512i byte = _mm512_set1_epi64(0xFF);
    __m512d c = _mm512_loadu_pd(acc);
    auto columns = [&](__m512i lanes, const float *qc, int64_t tc) {
        for (int64_t t = 0; t < tc; ++t) {
            const __m512d w = _mm512_mask_i64gather_pd(
                _mm512_setzero_pd(), 0xFF, _mm512_and_si512(lanes, byte),
                table, 8);
            c = _mm512_fmadd_pd(_mm512_set1_pd(static_cast<double>(qc[t])),
                                w, c);
            lanes = _mm512_maskz_srli_epi64(0xFF, lanes, 8);
        }
    };
    auto lanesAt = [&](int64_t c0, int64_t n) {
        const auto lane = [&](int r) {
            return static_cast<long long>(loadCodes(rows[r] + c0, n));
        };
        return _mm512_set_epi64(lane(7), lane(6), lane(5), lane(4),
                                lane(3), lane(2), lane(1), lane(0));
    };
    int64_t c0 = 0;
    for (; c0 + 8 <= cols; c0 += 8)
        columns(lanesAt(c0, 8), q + c0, 8);
    if (c0 < cols)
        columns(lanesAt(c0, cols - c0), q + c0, cols - c0);
    _mm512_storeu_pd(acc, c);
}

void
decodePanel32(const uint8_t *codes, int64_t ldw, bool trans_w, int64_t kc,
              const double *table, double *panel)
{
    if (!trans_w) {
        // Code row t holds the panel's 32 columns contiguously.
        for (int64_t t = 0; t < kc; ++t)
            for (int s = 0; s < 4; ++s)
                _mm512_storeu_pd(panel + t * 32 + 8 * s,
                                 gather(codes + t * ldw + 8 * s, 8, table));
        return;
    }
    // Code row j holds column j along k: 8 rows' 8 codes sit in the 8
    // 64-bit lanes, and the low byte of every lane, shifted down 8 bits
    // per k step, indexes one panel row's 8 columns (gatherDot8's
    // transpose).
    const __m512i byte = _mm512_set1_epi64(0xFF);
    for (int s = 0; s < 4; ++s) {
        const uint8_t *rows = codes + 8 * s * ldw;
        for (int64_t t0 = 0; t0 < kc; t0 += 8) {
            const int64_t tc = kc - t0 < 8 ? kc - t0 : 8;
            const auto lane = [&](int r) {
                return static_cast<long long>(
                    loadCodes(rows + r * ldw + t0, tc));
            };
            __m512i lanes =
                _mm512_set_epi64(lane(7), lane(6), lane(5), lane(4),
                                 lane(3), lane(2), lane(1), lane(0));
            for (int64_t t = 0; t < tc; ++t) {
                _mm512_storeu_pd(
                    panel + (t0 + t) * 32 + 8 * s,
                    _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF,
                                             _mm512_and_si512(lanes, byte),
                                             table, 8));
                lanes = _mm512_maskz_srli_epi64(0xFF, lanes, 8);
            }
        }
    }
}

namespace {

/// R rows x 32 columns: 4R zmm accumulators stay in registers across kc
/// while each panel row's 4 strips are loaded once for all R rows.
template <int R>
void
panelBlock32(const double *a, int64_t lda, const double *panel, int64_t kc,
             double *acc)
{
    __m512d c[R][4];
    for (int i = 0; i < R; ++i)
        for (int s = 0; s < 4; ++s)
            c[i][s] = _mm512_loadu_pd(acc + i * 32 + 8 * s);
    for (int64_t t = 0; t < kc; ++t) {
        __m512d w[4];
        for (int s = 0; s < 4; ++s)
            w[s] = _mm512_loadu_pd(panel + t * 32 + 8 * s);
        for (int i = 0; i < R; ++i) {
            // Float-valued doubles on both sides: the product is exact
            // and the FMA rounds once, like the scalar add.
            const __m512d av = _mm512_set1_pd(a[i * lda + t]);
            for (int s = 0; s < 4; ++s)
                c[i][s] = _mm512_fmadd_pd(av, w[s], c[i][s]);
        }
    }
    for (int i = 0; i < R; ++i)
        for (int s = 0; s < 4; ++s)
            _mm512_storeu_pd(acc + i * 32 + 8 * s, c[i][s]);
}

} // namespace

void
panelRows32(const double *a, int64_t lda, int64_t rows, const double *panel,
            int64_t kc, double *acc)
{
    int64_t i = 0;
    for (; i + 4 <= rows; i += 4)
        panelBlock32<4>(a + i * lda, lda, panel, kc, acc + i * 32);
    switch (rows - i) {
      case 3: return panelBlock32<3>(a + i * lda, lda, panel, kc,
                                     acc + i * 32);
      case 2: return panelBlock32<2>(a + i * lda, lda, panel, kc,
                                     acc + i * 32);
      case 1: return panelBlock32<1>(a + i * lda, lda, panel, kc,
                                     acc + i * 32);
      default: break;
    }
}

#else

bool
packedGatherAvailable()
{
    return false;
}

// Never dispatched (packedGatherAvailable() is false); scalar bodies so
// the symbols link on every platform.
void
gatherAccum(const float *a, int64_t a_rs, int64_t a_cs, int64_t m,
            int64_t k, const uint8_t *codes, int64_t ldw, int64_t ncols,
            const double *table, double *acc, int64_t ldacc)
{
    for (int64_t i = 0; i < m; ++i)
        for (int64_t t = 0; t < k; ++t)
            for (int64_t j = 0; j < ncols; ++j)
                acc[i * ldacc + j] +=
                    static_cast<double>(a[i * a_rs + t * a_cs]) *
                    table[codes[t * ldw + j]];
}

void
gatherDot8(const float *q, const uint8_t *const *rows, int64_t cols,
           const double *table, double *acc)
{
    for (int r = 0; r < 8; ++r)
        for (int64_t c = 0; c < cols; ++c)
            acc[r] += static_cast<double>(q[c]) * table[rows[r][c]];
}

// The blocked arm's kernels only link here: gemmArmAvailable() refuses
// kPanel32 on these builds, so they are unreachable.
void
decodePanel32(const uint8_t *, int64_t, bool, int64_t, const double *,
              double *)
{
    std::abort();
}

void
panelRows32(const double *, int64_t, int64_t, const double *, int64_t,
            double *)
{
    std::abort();
}

#endif

} // namespace qt8::detail
