/**
 * @file
 * Internal AVX2 kernel interface for partial-sum construction, shared
 * between the dispatching layers (linear.cc, conv.cc) and the AVX2 TU
 * (psum_avx2.cc). Same arrangement as gemm_kernels.hh: only
 * psum_avx2.cc is compiled with -mavx2 -mfma.
 *
 * Partial-sum values are single products w[i] * x[i] — one rounding
 * each — so the vector kernels are bit-identical to the scalar loops
 * by construction; there is no accumulation order to preserve.
 */

#ifndef PTOLEMY_NN_PSUM_KERNELS_HH
#define PTOLEMY_NN_PSUM_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace ptolemy::nn
{
struct PartialSum;
}

namespace ptolemy::nn::detail
{

#ifdef PTOLEMY_HAVE_AVX2

/**
 * out[i] = { i, w[i] * x[i] } for i in [0, n): the full partial-sum
 * row of one Linear output neuron. @p out must already hold n entries.
 * 8 products per iteration, index iota and product vectors interleaved
 * into (index, value) pairs with unpack/permute; scalar tail.
 */
void avx2PartialProducts(const float *w, const float *x, std::uint32_t n,
                         PartialSum *out);

/**
 * Array position of the ranked-first entry of p[0, n): highest value,
 * ties broken by the smaller inputIndex (the extraction total order;
 * inputIndex values are distinct within a row). A NaN at p[0] wins and
 * a NaN anywhere else never does, exactly as in the scalar scan. Three
 * throughput-bound passes — value max, min inputIndex among the
 * entries equal to it, position of that index — of pure comparisons,
 * so the result is exactly the scalar scan's. n must be >= 8.
 */
std::size_t avx2ArgmaxRanked(const PartialSum *p, std::size_t n);

#endif // PTOLEMY_HAVE_AVX2

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_NN_PSUM_KERNELS_HH
