/**
 * @file
 * AVX2 extraction kernels (compiled with -mavx2 -mfma; empty TU
 * otherwise): the Linear partial-sum row (inN products per important
 * neuron, each a single multiply, so bit-identical to the scalar loop)
 * and the ranked argmax that successive selection passes run over a
 * row's unselected tail.
 */

#include "psum_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX2

#include <algorithm>

#include <immintrin.h>

#include "nn/layer.hh"

namespace ptolemy::nn::detail
{

static_assert(sizeof(PartialSum) == 8,
              "interleaved stores assume packed {u32 index, f32 value}");

void
avx2PartialProducts(const float *w, const float *x, std::uint32_t n,
                    PartialSum *out)
{
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i step = _mm256_set1_epi32(8);
    __m256i iv = iota;
    std::uint32_t i = 0;
    auto *dst = reinterpret_cast<__m256i *>(out);
    for (; i + 8 <= n; i += 8) {
        const __m256 pv = _mm256_mul_ps(_mm256_loadu_ps(w + i),
                                        _mm256_loadu_ps(x + i));
        const __m256i pvi = _mm256_castps_si256(pv);
        // Interleave indices and values into (index, value) pairs:
        // unpack works per 128-bit half, the permutes stitch the halves
        // back into memory order.
        const __m256i lo = _mm256_unpacklo_epi32(iv, pvi);
        const __m256i hi = _mm256_unpackhi_epi32(iv, pvi);
        _mm256_storeu_si256(dst++, _mm256_permute2x128_si256(lo, hi, 0x20));
        _mm256_storeu_si256(dst++, _mm256_permute2x128_si256(lo, hi, 0x31));
        iv = _mm256_add_epi32(iv, step);
    }
    for (; i < n; ++i)
        out[i] = {i, w[i] * x[i]};
}

namespace
{

// 8 structs as two 32-byte loads, v0 = {i0 f0 i1 f1 | i2 f2 i3 f3} and
// v1 = {i4 f4 ... f7}; shuffle_ps picks (per 128-bit half) the value or
// the index slots. The lane order is scrambled but the same for both,
// which is all a max or a min needs.
inline __m256
load4(const PartialSum *q)
{
    return _mm256_loadu_ps(reinterpret_cast<const float *>(q));
}

inline __m256
values8(const PartialSum *q)
{
    return _mm256_shuffle_ps(load4(q), load4(q + 4), 0xDD);
}

inline __m256i
indices8(const PartialSum *q)
{
    return _mm256_castps_si256(
        _mm256_shuffle_ps(load4(q), load4(q + 4), 0x88));
}

/** Folds every 8-struct window of p[0, n) (n >= 8) into two independent
 *  accumulators, so the fold's latency stays off the critical path. The
 *  last window is the overlapping [n - 8, n): max, min and "any match"
 *  do not mind visiting an element twice. */
template <typename V, typename Fold>
V
sweep(const PartialSum *p, std::size_t n, V init, Fold fold)
{
    V a = init, b = init;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        a = fold(p + i, a);
        b = fold(p + i + 8, b);
    }
    for (; i < n; i += 8)
        a = fold(p + std::min(i, n - 8), a);
    return fold.combine(a, b);
}

} // namespace

std::size_t
avx2ArgmaxRanked(const PartialSum *p, std::size_t n)
{
    // The scalar scan keeps p[0] when it is NaN (every compare against
    // it is false) and never adopts a NaN anywhere else.
    if (p[0].value != p[0].value)
        return 0;

    // Pass 1: the maximum value. max(v, m) returns m when v is NaN, and
    // the accumulators start at the non-NaN p[0], so NaNs never enter.
    struct MaxFold
    {
        __m256 operator()(const PartialSum *q, __m256 m) const
        {
            return _mm256_max_ps(values8(q), m);
        }
        __m256 combine(__m256 a, __m256 b) const
        {
            __m256 m = _mm256_max_ps(a, b);
            m = _mm256_max_ps(m, _mm256_permute2f128_ps(m, m, 1));
            m = _mm256_max_ps(m, _mm256_shuffle_ps(m, m, 0x4E));
            return _mm256_max_ps(m, _mm256_shuffle_ps(m, m, 0xB1));
        }
    };
    const __m256 m = sweep(p, n, _mm256_set1_ps(p[0].value), MaxFold{});

    // Pass 2: the smallest inputIndex among the entries equal to the
    // max (== also equates -0.0 and +0.0, as the scalar order does);
    // other entries contribute UINT32_MAX.
    struct MinIndexFold
    {
        __m256 max;
        __m256i operator()(const PartialSum *q, __m256i k) const
        {
            const __m256i eq = _mm256_castps_si256(
                _mm256_cmp_ps(values8(q), max, _CMP_EQ_OQ));
            return _mm256_min_epu32(
                _mm256_or_si256(indices8(q),
                                _mm256_andnot_si256(
                                    eq, _mm256_set1_epi32(-1))),
                k);
        }
        __m256i combine(__m256i a, __m256i b) const
        {
            __m256i k = _mm256_min_epu32(a, b);
            k = _mm256_min_epu32(k, _mm256_permute2x128_si256(k, k, 1));
            k = _mm256_min_epu32(k, _mm256_shuffle_epi32(k, 0x4E));
            return _mm256_min_epu32(k, _mm256_shuffle_epi32(k, 0xB1));
        }
    };
    const __m256i k = sweep(p, n, _mm256_set1_epi32(-1), MinIndexFold{m});

    // Pass 3: the position of that (distinct) inputIndex. Compare the
    // raw interleaved words and keep the index slots' mask bits (the
    // even ones), so a value's bit pattern never matches.
    auto hits = [&](const PartialSum *q) {
        return static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                _mm256_castps_si256(load4(q)), k))));
    };
    for (std::size_t i = 0;; i += 8) {
        const std::size_t at = std::min(i, n - 8);
        const unsigned hit =
            (hits(p + at) | hits(p + at + 4) << 8) & 0x5555u;
        if (hit)
            return at + static_cast<std::size_t>(__builtin_ctz(hit)) / 2;
    }
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX2
