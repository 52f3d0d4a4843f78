/**
 * @file
 * Bit-identity tests for the single-core fast-path kernels: AVX2 vs
 * scalar BitVector popcount family (unaligned ranges, widths that are
 * not lane multiples, degenerate all-zero/all-ones words), AVX2 vs
 * scalar partial-sum construction and ranked-argmax selection (ties,
 * signed zeros, infinities, NaNs), and conv partial-sum rows against a
 * naive per-tap reference.
 * Everything here asserts exact equality: the fast paths are drop-in
 * replacements, not approximations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/test_models.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/psum_kernels.hh"
#include "path/extractor.hh"
#include "util/bitvector.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace ptolemy
{
namespace
{

/** RAII guard restoring the process-wide SIMD mode. */
struct SimdModeGuard
{
    SimdMode saved = simdMode();
    ~SimdModeGuard() { simdMode() = saved; }
};

BitVector
randomBits(std::size_t nbits, Rng &rng, double density)
{
    BitVector v(nbits);
    for (std::size_t i = 0; i < nbits; ++i)
        if (rng.uniform() < density)
            v.set(i);
    return v;
}

TEST(BitVectorSimd, Avx2MatchesScalarAcrossWidthsAndDensities)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0xB17);

    // Widths straddling the 4-word vector block and the kAvx2MinWords
    // dispatch floor, none a multiple of 256 bits; densities including
    // the all-zero and all-one corner words.
    const std::size_t widths[] = {1, 63, 300, 511, 4096 + 7, 65536 + 17};
    const double densities[] = {0.0, 0.02, 0.5, 1.0};
    for (std::size_t nbits : widths) {
        for (double d : densities) {
            const BitVector a = randomBits(nbits, rng, d);
            const BitVector b = randomBits(nbits, rng, 1.0 - d * 0.5);

            simdMode() = SimdMode::Scalar;
            const std::size_t pop_s = a.popcount();
            const std::size_t and_s = a.andPopcount(b);
            const double jac_s = a.jaccard(b);
            simdMode() = SimdMode::Avx2;
            EXPECT_EQ(a.popcount(), pop_s) << nbits << " d=" << d;
            EXPECT_EQ(a.andPopcount(b), and_s) << nbits << " d=" << d;
            // Exact double equality: both paths divide the same exact
            // intersection/union integers.
            EXPECT_EQ(a.jaccard(b), jac_s) << nbits << " d=" << d;
        }
    }
}

TEST(BitVectorSimd, RangeKernelsMatchScalarOnUnalignedRanges)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0xCAFE);
    const std::size_t nbits = 4096 + 300; // interior spans + ragged tail
    const BitVector a = randomBits(nbits, rng, 0.3);
    const BitVector b = randomBits(nbits, rng, 0.6);

    for (int trial = 0; trial < 200; ++trial) {
        // Deliberately word-unaligned endpoints (off-by-one around word
        // and vector-block boundaries included by density of trials).
        const std::size_t lo = rng.below(nbits);
        const std::size_t hi = lo + rng.below(nbits - lo + 1);
        simdMode() = SimdMode::Scalar;
        const std::size_t pop_s = a.popcountRange(lo, hi);
        const std::size_t and_s = a.andPopcountRange(b, lo, hi);
        simdMode() = SimdMode::Avx2;
        EXPECT_EQ(a.popcountRange(lo, hi), pop_s)
            << "[" << lo << ", " << hi << ")";
        EXPECT_EQ(a.andPopcountRange(b, lo, hi), and_s)
            << "[" << lo << ", " << hi << ")";
    }
}

std::uint32_t
bitsOf(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

/** Same (inputIndex, value) sequence, values compared bit for bit. */
void
expectPartialSumsEqual(const std::vector<nn::PartialSum> &a,
                       const std::vector<nn::PartialSum> &b,
                       const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].inputIndex, b[i].inputIndex) << what << " i=" << i;
        EXPECT_EQ(bitsOf(a[i].value), bitsOf(b[i].value))
            << what << " i=" << i;
    }
}

TEST(PartialSumsSimd, LinearRowsMatchScalarBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0x75);

    // Odd fan-in exercises the 8-wide interleave tail.
    nn::Linear fc("fc", 333, 5);
    for (auto &w : fc.weights())
        w = static_cast<float>(rng.uniform(-1.0, 1.0));
    nn::Tensor x(nn::flatShape(333));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<nn::PartialSum> s, v;
    for (std::size_t o = 0; o < 5; ++o) {
        simdMode() = SimdMode::Scalar;
        fc.partialSums(x, o, s);
        simdMode() = SimdMode::Avx2;
        fc.partialSums(x, o, v);
        expectPartialSumsEqual(s, v, "fc o=" + std::to_string(o));
    }
}

/** Naive per-tap conv row: every in-image tap of the window, in
 *  (ic, ky, kx) order, value = w * x. */
std::vector<nn::PartialSum>
naiveConvRow(nn::Conv2d &conv, const nn::Tensor &x, std::size_t o)
{
    const int k = conv.kernel(), s = conv.strideOf(), p = conv.padOf();
    const int ih = x.shape().h, iw = x.shape().w;
    const nn::Shape os = conv.outputShape({x.shape()});
    const int oc = static_cast<int>(o / (os.h * os.w));
    const int oy = static_cast<int>(o % (os.h * os.w)) / os.w;
    const int ox = static_cast<int>(o % (os.h * os.w)) % os.w;
    const auto &w = conv.weights();
    std::vector<nn::PartialSum> row;
    for (int ic = 0; ic < conv.inChannels(); ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx) {
                const int iy = oy * s - p + ky, ix = ox * s - p + kx;
                if (iy < 0 || iy >= ih || ix < 0 || ix >= iw)
                    continue;
                const float wv =
                    w[((static_cast<std::size_t>(oc) * conv.inChannels() +
                        ic) * k + ky) * k + kx];
                row.push_back({static_cast<std::uint32_t>(x.index(ic, iy, ix)),
                               wv * x.at(ic, iy, ix)});
            }
    return row;
}

TEST(PartialSums, ConvRowsMatchNaivePerTapReferenceBitwise)
{
    Rng rng(0xC0);
    std::vector<nn::PartialSum> got;
    for (int k : {1, 3, 5})
        for (int stride : {1, 2})
            for (int pad : {0, 1, 2}) {
                // Non-square map, large enough for k=5 without padding.
                nn::Conv2d conv("c", 3, 2, k, stride, pad);
                for (auto &w : conv.weights())
                    w = static_cast<float>(rng.uniform(-1.0, 1.0));
                nn::Tensor x(nn::mapShape(3, 7, 6));
                for (std::size_t i = 0; i < x.size(); ++i)
                    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
                const std::size_t n_out =
                    conv.outputShape({x.shape()}).numel();
                for (std::size_t o = 0; o < n_out; ++o) {
                    conv.partialSums(x, o, got);
                    expectPartialSumsEqual(
                        naiveConvRow(conv, x, o), got,
                        "k=" + std::to_string(k) + " s=" +
                            std::to_string(stride) + " p=" +
                            std::to_string(pad) + " o=" + std::to_string(o));
                }
            }
}

/** The scalar ranked-argmax loop: value descending, inputIndex
 *  ascending on ties, a strict compare so a NaN never displaces the
 *  incumbent. */
std::size_t
scalarArgmaxRanked(const std::vector<nn::PartialSum> &p)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < p.size(); ++i) {
        const bool better =
            p[i].value > p[best].value ||
            (p[i].value == p[best].value &&
             p[i].inputIndex < p[best].inputIndex);
        best = better ? i : best;
    }
    return best;
}

TEST(ArgmaxSimd, RankedArgmaxMatchesScalarOnEdgeCases)
{
#ifndef PTOLEMY_HAVE_AVX2
    GTEST_SKIP() << "AVX2 kernels not compiled in";
#else
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 not supported by this CPU";
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(0xA7);

    std::vector<std::size_t> lengths;
    for (std::size_t n = 8; n <= 40; ++n)
        lengths.push_back(n);
    for (std::size_t n : {57, 64, 65, 256})
        lengths.push_back(n);

    // Each row: distinct inputIndex values in shuffled order (after the
    // selection head swaps, position order no longer follows index
    // order), then one of the edge-case value patterns.
    auto row = [&](std::size_t n) {
        std::vector<nn::PartialSum> p(n);
        for (std::size_t i = 0; i < n; ++i)
            p[i] = {static_cast<std::uint32_t>(3 * i + 7),
                    static_cast<float>(rng.uniform(-1.0, 1.0))};
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(p[i].inputIndex, p[rng.below(i + 1)].inputIndex);
        return p;
    };
    std::size_t cases = 0;
    auto check = [&](const std::vector<nn::PartialSum> &p,
                     const std::string &what) {
        ++cases;
        EXPECT_EQ(nn::detail::avx2ArgmaxRanked(p.data(), p.size()),
                  scalarArgmaxRanked(p))
            << what << " n=" << p.size();
    };
    for (std::size_t n : lengths) {
        for (int rep = 0; rep < 4; ++rep) {
            check(row(n), "random");

            // Ties at the max: the smaller inputIndex sits later.
            auto t = row(n);
            const std::size_t a = rng.below(n - 1), b = a + 1 + rng.below(n - a - 1);
            t[a].value = t[b].value = 2.0f;
            if (t[a].inputIndex < t[b].inputIndex)
                std::swap(t[a].inputIndex, t[b].inputIndex);
            check(t, "tie, lower index later");
            t[rng.below(n)].value = 2.0f; // maybe a three-way tie
            check(t, "tie, three-way");

            // Signed zeros as the max, with -inf and negatives below.
            auto z = row(n);
            for (auto &e : z)
                e.value = -std::abs(e.value) - 0.5f;
            z[rng.below(n)].value = -0.0f;
            z[rng.below(n)].value = 0.0f;
            z[rng.below(n)].value = -inf;
            check(z, "signed zeros");

            // All negative, some -inf; and all -inf.
            auto neg = row(n);
            for (auto &e : neg)
                e.value = rng.uniform() < 0.2 ? -inf
                                              : -std::abs(e.value) - 1e-3f;
            check(neg, "all negative");
            for (auto &e : neg)
                e.value = -inf;
            check(neg, "all -inf");

            // NaN at position 0 wins; anywhere else it never does.
            auto n0 = row(n);
            n0[0].value = nan;
            check(n0, "NaN at p[0]");
            auto nm = row(n);
            nm[n / 2].value = nan;
            check(nm, "NaN in the middle");
            auto nt = row(n);
            nt[n - 1].value = nan;
            nt[n - 1 - rng.below(std::min<std::size_t>(n - 1, 7))].value =
                nan;
            check(nt, "NaN in the tail");
        }
    }
    EXPECT_GT(cases, 1000u);
#endif
}

/** Extraction over the shared trained world: every selection strategy
 *  (reference full sort, scan/heap hybrid, AVX2 argmax) and SIMD mode
 *  must produce the same path bits for every sample. theta=0.98 forces
 *  prefixes past the scan-pass cap so the heap fallback is exercised
 *  too. */
TEST(ExtractionSimd, PathBitsInvariantAcrossSelectionAndSimdModes)
{
    SimdModeGuard guard;
    auto &w = testing::world();
    const int layers = static_cast<int>(w.net.weightedNodes().size());
    constexpr int kSamples = 6;
    for (double theta : {0.5, 0.98}) {
        path::PathExtractor ex(w.net,
                               path::ExtractionConfig::bwCu(layers, theta));
        nn::Network::Record rec;
        path::ExtractionWorkspace ws;

        std::vector<std::vector<BitVector>> got; // [mode][sample]
        std::vector<std::string> label;
        std::vector<SimdMode> modes = {SimdMode::Scalar};
        if (avx2Available())
            modes.push_back(SimdMode::Avx2);
        for (SimdMode mode : modes) {
            for (bool reference : {false, true}) {
                simdMode() = mode;
                ws.referenceSort = reference;
                std::vector<BitVector> paths(kSamples);
                for (int i = 0; i < kSamples; ++i) {
                    w.net.inferInto(w.dataset.test[i].input, rec);
                    ex.extractInto(rec, ws, paths[i]);
                }
                got.push_back(std::move(paths));
                label.push_back(std::string(simdModeName()) +
                                (reference ? "+refsort" : "+scan"));
            }
        }
        for (std::size_t m = 1; m < got.size(); ++m)
            for (int i = 0; i < kSamples; ++i) {
                const BitVector &a = got[m][i], &b = got[0][i];
                ASSERT_EQ(a.size(), b.size());
                EXPECT_GT(b.popcount(), 0u) << "sample " << i;
                EXPECT_EQ(a.popcount(), b.popcount())
                    << label[m] << " vs " << label[0] << " theta=" << theta
                    << " sample " << i;
                EXPECT_EQ(a.andPopcount(b), b.popcount())
                    << label[m] << " vs " << label[0] << " theta=" << theta
                    << " sample " << i;
            }
    }
}

} // namespace
} // namespace ptolemy
