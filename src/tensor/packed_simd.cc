#include "tensor/packed_simd.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace qt8::detail {

#if defined(__AVX2__) && defined(__FMA__)

bool
packedSimdAvailable()
{
    // This TU is compiled with -mavx2 -mfma whether or not the running
    // CPU has them; gate at runtime so the rest of the binary stays
    // safe on older x86 cores.
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
}

const char *
packedSimdName()
{
    // Every AVX-512F core also has AVX2, so the gather arm only ever
    // runs beside the AVX2 panel kernel.
    if (!packedSimdAvailable())
        return "portable";
    return packedGatherAvailable() ? "avx2+avx512-gather" : "avx2";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    __m256d acc0 = _mm256_loadu_pd(acc);
    __m256d acc1 = _mm256_loadu_pd(acc + 4);
    for (int64_t t = 0; t < kc; ++t) {
        // One broadcast activation against 8 decoded weight columns.
        // a[t] and w[..] both hold float-valued doubles, so the fmadd
        // product is exact and the single add per lane lands on the
        // same bits as the scalar mul-then-add.
        const __m256d av = _mm256_set1_pd(static_cast<double>(a[t]));
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + t * 8), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + t * 8 + 4), acc1);
    }
    _mm256_storeu_pd(acc, acc0);
    _mm256_storeu_pd(acc + 4, acc1);
}

#elif defined(__aarch64__) && defined(__ARM_NEON)

bool
packedSimdAvailable()
{
    return true; // NEON (incl. float64x2) is baseline on aarch64.
}

const char *
packedSimdName()
{
    return "neon";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    float64x2_t acc0 = vld1q_f64(acc);
    float64x2_t acc1 = vld1q_f64(acc + 2);
    float64x2_t acc2 = vld1q_f64(acc + 4);
    float64x2_t acc3 = vld1q_f64(acc + 6);
    for (int64_t t = 0; t < kc; ++t) {
        const float64x2_t av = vdupq_n_f64(static_cast<double>(a[t]));
        acc0 = vfmaq_f64(acc0, av, vld1q_f64(w + t * 8));
        acc1 = vfmaq_f64(acc1, av, vld1q_f64(w + t * 8 + 2));
        acc2 = vfmaq_f64(acc2, av, vld1q_f64(w + t * 8 + 4));
        acc3 = vfmaq_f64(acc3, av, vld1q_f64(w + t * 8 + 6));
    }
    vst1q_f64(acc, acc0);
    vst1q_f64(acc + 2, acc1);
    vst1q_f64(acc + 4, acc2);
    vst1q_f64(acc + 6, acc3);
}

#else

bool
packedSimdAvailable()
{
    return false;
}

const char *
packedSimdName()
{
    return "portable";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    // Never dispatched (packedSimdAvailable() is false); scalar body so
    // the symbol links on every platform.
    for (int64_t t = 0; t < kc; ++t) {
        const double av = static_cast<double>(a[t]);
        for (int jj = 0; jj < 8; ++jj)
            acc[jj] += av * w[t * 8 + jj];
    }
}

#endif

} // namespace qt8::detail
