/**
 * @file
 * SIMD micro-kernel behind gemmQuantized and the packed KV-cache
 * attention GEMVs (packedDotRows / packedAccumRows). The one routine
 * worth vectorizing without breaking bit-identity is the column-wide
 * FMA: 8 output columns advance together through ascending k, each
 * column's accumulator summed in exactly the scalar order. Products of
 * two floats are exact in double, so hardware FMA (one rounding of an
 * already-exact product) produces the same bits as mul-then-add.
 *
 * Compiled as its own translation unit so only this file gets -mavx2
 * -mfma (x86) — the dispatcher checks __builtin_cpu_supports at
 * runtime, keeping the library safe on older cores. On aarch64 the
 * NEON path compiles under the default flags; anywhere else the
 * portable fallback in packed.cc is used.
 *
 * The small-m gather kernels (gatherAccum / gatherDot8) live in
 * packed_simd512.cc, the only file built with -mavx512f: they skip the
 * decoded panel and gather the 256-entry table straight into the FMA
 * (one _mm512_i32gather_pd per 8 codes), which pays off only when few
 * rows share each decode. AVX2 gathers measured no faster than the
 * panel, so they have no AVX2 twin.
 */
#ifndef QT8_TENSOR_PACKED_SIMD_H
#define QT8_TENSOR_PACKED_SIMD_H

#include <cstdint>

namespace qt8::detail {

/// True when the SIMD dot kernel can run on this machine (checked once).
bool packedSimdAvailable();

/// The packed kernel arms this machine runs, surfaced by the kernel
/// benches: the panel kernel ("avx2", "neon" or "portable"), plus
/// "+avx512-gather" when packedGatherAvailable().
const char *packedSimdName();

/// True when the AVX-512F gather kernels below can run (compiled in and
/// supported by this CPU; checked once).
bool packedGatherAvailable();

/**
 * acc[jj] += sum over t in [0, kc) of a[t] * w[t*8 + jj], jj in 0..7.
 * @p w is the decoded weight panel, 8 doubles per k step (column-
 * interleaved); @p acc holds 8 running double accumulators. Ascending-k
 * per lane: bit-identical to the scalar loop.
 *
 * Only call when packedSimdAvailable(); the portable build compiles a
 * scalar body so the symbol always links.
 */
void dotChunk8Simd(const float *a, const double *w, int64_t kc,
                   double *acc);

/**
 * acc[i*ldacc + j] += sum over t in [0, k) of
 *     a[i*a_rs + t*a_cs] * table[codes[t*ldw + j]]
 * for i in [0, m), m in 1..7, and j in [0, ncols). Each k step loads 8
 * contiguous codes per strip, gathers their decoded values once and
 * feeds every row's FMA; per-element ascending-t double accumulation,
 * so bit-identical to the panel kernel. Reads exactly the codes named
 * (ragged strips load only their own bytes).
 *
 * Only call when packedGatherAvailable().
 */
void gatherAccum(const float *a, int64_t a_rs, int64_t a_cs, int64_t m,
                 int64_t k, const uint8_t *codes, int64_t ldw,
                 int64_t ncols, const double *table, double *acc,
                 int64_t ldacc);

/**
 * acc[r] += sum over c in [0, cols) of q[c] * table[rows[r][c]] for the
 * 8 code rows @p rows (a caller short of 8 rows repeats one), ascending
 * c in double. Transposes 8 columns of the 8 rows in registers so one
 * gather decodes one column for all rows.
 *
 * Only call when packedGatherAvailable().
 */
void gatherDot8(const float *q, const uint8_t *const *rows, int64_t cols,
                const double *table, double *acc);

} // namespace qt8::detail

#endif // QT8_TENSOR_PACKED_SIMD_H
