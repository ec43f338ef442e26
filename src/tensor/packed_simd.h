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
 *
 * From m = 8 on, the decoded panel is shared by enough rows to pay for
 * itself, and the kernels are register-blocked over rows instead:
 * panelRows32 (AVX-512F, a [kc x 32] panel, 4 rows x 4 zmm strips). It
 * reads the activations pre-converted to double, so the inner loop is
 * broadcast loads and FMAs only. Other hosts keep the one-row panel
 * kernel at every m.
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

/**
 * Decode a full [kc x 32] weight panel through the table:
 * panel[t*32 + j] = table[code(t, j)] for t in [0, kc), j in [0, 32),
 * where code(t, j) is codes[t*ldw + j] (@p trans_w false: W^T stored
 * [k, n]) or codes[j*ldw + t] (@p trans_w true: W stored [n, k]). One
 * gather per 8 codes; trans_w transposes 8x8 code blocks in registers
 * first, as gatherDot8 does.
 *
 * Only call when packedGatherAvailable().
 */
void decodePanel32(const uint8_t *codes, int64_t ldw, bool trans_w,
                   int64_t kc, const double *table, double *panel);

/**
 * acc[i*32 + j] += sum over t in [0, kc) of a[i*lda + t] * panel[t*32 + j]
 * for i in [0, rows), j in [0, 32): 4 rows x 4 zmm strips = 16
 * accumulators in registers, each panel row loaded once per 4 rows.
 * @p a holds float values converted to double. Ascending t per element,
 * so bit-identical to the one-row panel kernel.
 *
 * Only call when packedGatherAvailable().
 */
void panelRows32(const double *a, int64_t lda, int64_t rows,
                 const double *panel, int64_t kc, double *acc);

} // namespace qt8::detail

#endif // QT8_TENSOR_PACKED_SIMD_H
