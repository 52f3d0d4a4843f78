/**
 * @file
 * Batched forward + workspace-reuse equivalence: forwardBatch records
 * must match per-sample forward() records bitwise, extraction from
 * either must produce identical paths, a reused ExtractionWorkspace
 * must behave exactly like a fresh one, and the heap-prefix cumulative
 * selection must pick the same sets as the full-sort reference.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/test_models.hh"
#include "nn/network.hh"
#include "path/extractor.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace ptolemy::path
{
namespace
{

std::vector<nn::Tensor>
randomBatch(std::size_t n, nn::Shape shape, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Tensor> xs;
    xs.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        nn::Tensor x(shape);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        xs.push_back(std::move(x));
    }
    return xs;
}

TEST(ForwardBatch, RecordsMatchPerSampleForwardBitwise)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 3);
    const auto xs = randomBatch(6, net.inputShape(), 11);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    ASSERT_EQ(recs.size(), xs.size());

    for (std::size_t s = 0; s < xs.size(); ++s) {
        auto ref = net.forward(xs[s]);
        ASSERT_EQ(recs[s].outputs.size(), ref.outputs.size());
        for (std::size_t n = 0; n < ref.outputs.size(); ++n) {
            ASSERT_EQ(recs[s].outputs[n].shape(), ref.outputs[n].shape());
            for (std::size_t i = 0; i < ref.outputs[n].size(); ++i)
                ASSERT_EQ(recs[s].outputs[n][i], ref.outputs[n][i])
                    << "sample " << s << " node " << n << " elem " << i;
        }
    }
}

TEST(ForwardBatch, ThreadPoolProducesIdenticalRecords)
{
    // Every record must equal this SIMD mode's per-sample inferInto
    // bitwise, serial or at any pool width, in both weight layouts:
    // unpacked (the nets fitting and training use) and packed, which
    // puts AVX2 mode on the fused conv path DetectorModel serves with.
    struct SimdModeGuard
    {
        SimdMode saved = simdMode();
        ~SimdModeGuard() { simdMode() = saved; }
    } guard;
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 4);
    const auto xs = randomBatch(9, net.inputShape(), 12);

    std::vector<SimdMode> modes = {SimdMode::Scalar};
    if (avx2Available())
        modes.push_back(SimdMode::Avx2);
    for (const bool packed : {false, true}) {
        if (packed)
            net.prepackForServing();
        for (SimdMode mode : modes) {
            simdMode() = mode;
            std::vector<nn::Network::Record> ref(xs.size());
            for (std::size_t s = 0; s < xs.size(); ++s)
                net.inferInto(xs[s], ref[s]);
            // threads == 0: no pool, the serial forwardBatch.
            for (unsigned threads : {0u, 1u, 2u, 8u}) {
                std::unique_ptr<ThreadPool> pool;
                if (threads > 0)
                    pool = std::make_unique<ThreadPool>(threads);
                std::vector<nn::Network::Record> recs;
                net.forwardBatch(xs, recs, pool.get());
                ASSERT_EQ(recs.size(), ref.size());
                for (std::size_t s = 0; s < recs.size(); ++s) {
                    const auto &got = recs[s].outputs;
                    const auto &want = ref[s].outputs;
                    ASSERT_EQ(got.size(), want.size());
                    for (std::size_t n = 0; n < got.size(); ++n) {
                        ASSERT_EQ(got[n].size(), want[n].size());
                        ASSERT_EQ(0,
                                  std::memcmp(got[n].data(), want[n].data(),
                                              got[n].size() * sizeof(float)))
                            << "packed=" << packed
                            << " mode=" << simdModeName()
                            << " threads=" << threads << " sample " << s
                            << " node " << n;
                    }
                }
            }
        }
    }
}

TEST(ForwardBatch, ReusedRecordVectorIsRefilledCorrectly)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 5);
    const auto xs_a = randomBatch(4, net.inputShape(), 13);
    const auto xs_b = randomBatch(4, net.inputShape(), 14);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs_a, recs);
    net.forwardBatch(xs_b, recs); // reuse the same records
    for (std::size_t s = 0; s < xs_b.size(); ++s) {
        auto ref = net.forward(xs_b[s]);
        for (std::size_t i = 0; i < ref.logits().size(); ++i)
            ASSERT_EQ(recs[s].logits()[i], ref.logits()[i]);
    }
}

TEST(ExtractionWorkspace, BatchAndPerSampleExtractionBitwiseEqual)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 6);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    PathExtractor ex(net, ExtractionConfig::bwCu(n_w, 0.5));
    const auto xs = randomBatch(5, net.inputShape(), 15);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    ExtractionWorkspace ws;
    for (std::size_t s = 0; s < xs.size(); ++s) {
        auto per_sample = net.forward(xs[s]);
        const BitVector a = ex.extract(per_sample);     // fresh workspace
        const BitVector b = ex.extract(recs[s], ws);    // batch rec, reused ws
        EXPECT_EQ(a, b) << "sample " << s;
    }
}

TEST(ExtractionWorkspace, ReuseProducesIdenticalBitVectorsAcrossCalls)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 7);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(4, net.inputShape(), 16);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwAb(n_w, 0.01),
                     ExtractionConfig::fwAb(n_w, 0.1)}) {
        PathExtractor ex(net, cfg);
        // Reference paths, each from a pristine workspace.
        std::vector<BitVector> fresh;
        for (const auto &rec : recs)
            fresh.push_back(ex.extract(rec));
        // One workspace + one output vector reused across interleaved,
        // repeated extractions must reproduce them exactly.
        ExtractionWorkspace ws;
        BitVector bits;
        for (int round = 0; round < 3; ++round) {
            for (std::size_t s = 0; s < recs.size(); ++s) {
                ex.extractInto(recs[s], ws, bits);
                EXPECT_EQ(bits, fresh[s])
                    << "round " << round << " sample " << s << " variant "
                    << cfg.variantName();
            }
        }
    }
}

TEST(ExtractionWorkspace, HeapPrefixSelectionMatchesReferenceSort)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 8);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(6, net.inputShape(), 17);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    // Backward cumulative plus a forward-cumulative config (the heap
    // also serves the forward direction's activation-mass ranking).
    ExtractionConfig fw_cu;
    fw_cu.direction = Direction::Forward;
    fw_cu.layers.assign(
        static_cast<std::size_t>(n_w),
        LayerPolicy{true, ThresholdKind::Cumulative, 0.7, 0.0});

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwCu(n_w, 0.9), fw_cu}) {
        PathExtractor ex(net, cfg);
        ExtractionWorkspace heap_ws, sort_ws;
        sort_ws.referenceSort = true;
        for (std::size_t s = 0; s < recs.size(); ++s) {
            const BitVector a = ex.extract(recs[s], heap_ws);
            const BitVector b = ex.extract(recs[s], sort_ws);
            EXPECT_EQ(a, b) << "sample " << s;
        }
    }
}

TEST(ExtractionWorkspace, TracesUnaffectedByWorkspaceReuse)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 9);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    PathExtractor ex(net, ExtractionConfig::bwCu(n_w, 0.5));
    const auto xs = randomBatch(2, net.inputShape(), 18);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    ExtractionWorkspace ws;
    ExtractionTrace reused_trace;
    ex.extract(recs[1], ws);                // dirty the workspace
    ex.extract(recs[0], ws, &reused_trace); // then trace with reuse
    ExtractionTrace ref;
    ex.extract(recs[0], &ref);
    ASSERT_EQ(reused_trace.layers.size(), ref.layers.size());
    for (std::size_t l = 0; l < ref.layers.size(); ++l) {
        EXPECT_EQ(reused_trace.layers[l].importantOut,
                  ref.layers[l].importantOut);
        EXPECT_EQ(reused_trace.layers[l].importantIn,
                  ref.layers[l].importantIn);
        EXPECT_EQ(reused_trace.layers[l].psumsConsidered,
                  ref.layers[l].psumsConsidered);
    }
    EXPECT_EQ(reused_trace.pathBits, ref.pathBits);
}

TEST(ExtractionWorkspace, SurvivesReuseAcrossDifferentNetworks)
{
    // A workspace dirtied by a larger network must reset cleanly when
    // reused with a smaller one (stale touched ids would otherwise
    // index out of bounds).
    auto big = ptolemy::testing::makeTinyNet(10);
    nn::heInit(big, 21);
    nn::Network small("small", nn::flatShape(8));
    small.add(std::make_unique<nn::Linear>("fc", 8, 4));
    nn::heInit(small, 22);

    PathExtractor ex_big(
        big, ExtractionConfig::bwCu(
                 static_cast<int>(big.weightedNodes().size()), 0.5));
    PathExtractor ex_small(
        small, ExtractionConfig::bwCu(
                   static_cast<int>(small.weightedNodes().size()), 0.5));

    const auto xs = randomBatch(1, big.inputShape(), 23);
    auto rec_big = big.forward(xs[0]);
    Rng rng(24);
    nn::Tensor x_small(nn::flatShape(8));
    for (std::size_t i = 0; i < x_small.size(); ++i)
        x_small[i] = static_cast<float>(rng.uniform());
    auto rec_small = small.forward(x_small);

    ExtractionWorkspace ws;
    ex_big.extract(rec_big, ws); // dirties high node ids
    const BitVector got = ex_small.extract(rec_small, ws);
    const BitVector ref = ex_small.extract(rec_small);
    EXPECT_EQ(got, ref);
    // And back again to the big network.
    EXPECT_EQ(ex_big.extract(rec_big, ws), ex_big.extract(rec_big));
}

void
expectTracesEqual(const ExtractionTrace &a, const ExtractionTrace &b,
                  const std::string &what)
{
    EXPECT_EQ(a.direction, b.direction) << what;
    EXPECT_EQ(a.pathBits, b.pathBits) << what;
    EXPECT_EQ(a.totalMacs, b.totalMacs) << what;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        const LayerTrace &x = a.layers[l], &y = b.layers[l];
        const std::string at = what + " layer " + std::to_string(l);
        EXPECT_EQ(x.weightedIndex, y.weightedIndex) << at;
        EXPECT_EQ(x.nodeId, y.nodeId) << at;
        EXPECT_EQ(x.kind, y.kind) << at;
        EXPECT_EQ(x.inputFmapSize, y.inputFmapSize) << at;
        EXPECT_EQ(x.outputFmapSize, y.outputFmapSize) << at;
        EXPECT_EQ(x.rfSize, y.rfSize) << at;
        EXPECT_EQ(x.macs, y.macs) << at;
        EXPECT_EQ(x.importantOut, y.importantOut) << at;
        EXPECT_EQ(x.psumsConsidered, y.psumsConsidered) << at;
        EXPECT_EQ(x.sortedElems, y.sortedElems) << at;
        EXPECT_EQ(x.thresholdCmps, y.thresholdCmps) << at;
        EXPECT_EQ(x.masksWritten, y.masksWritten) << at;
        EXPECT_EQ(x.importantIn, y.importantIn) << at;
        EXPECT_EQ(x.selectScanPasses, y.selectScanPasses) << at;
        EXPECT_EQ(x.heapFallbackNeurons, y.heapFallbackNeurons) << at;
        EXPECT_EQ(x.heapPops, y.heapPops) << at;
    }
}

/** Sequential reference for profileBatch: extractInto one record at a
 *  time, in order, with one workspace. */
ExtractionTrace
sequentialProfile(const PathExtractor &ex,
                  const std::vector<nn::Network::Record> &recs,
                  std::vector<BitVector> &paths)
{
    ExtractionWorkspace ws;
    paths.resize(recs.size());
    std::vector<ExtractionTrace> traces(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        ex.extractInto(recs[i], ws, paths[i], &traces[i]);
    return averageTraces(traces);
}

TEST(ProfileBatch, MatchesSequentialExtractAcrossThreadCounts)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 31);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(13, net.inputShape(), 32);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwAb(n_w, 0.01),
                     ExtractionConfig::fwAb(n_w, 0.1)}) {
        PathExtractor ex(net, cfg);
        std::vector<BitVector> ref;
        const ExtractionTrace ref_trace = sequentialProfile(ex, recs, ref);

        // No pool at all: the serial loop.
        std::vector<BitVector> out;
        expectTracesEqual(ex.profileBatch(recs, nullptr, &out), ref_trace,
                          "serial " + cfg.variantName());
        EXPECT_EQ(out, ref) << "serial " << cfg.variantName();

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            const std::string what =
                "threads=" + std::to_string(threads) + " " +
                cfg.variantName();
            // Reuse the output vector: stale paths must be overwritten.
            expectTracesEqual(ex.profileBatch(recs, &pool, &out), ref_trace,
                              what);
            ASSERT_EQ(out.size(), ref.size()) << what;
            for (std::size_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(out[i], ref[i]) << what << " sample " << i;
        }
    }
}

TEST(ProfileBatch, NestedInWiderPoolWorkerMatchesSequential)
{
    // A profileBatch on a narrow pool issued from inside a wider pool's
    // worker runs inline under that worker's slot id, which is past the
    // narrow pool's width. Its per-slot workspace must clamp that id
    // instead of indexing past the table.
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 35);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(6, net.inputShape(), 36);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    PathExtractor ex(net, ExtractionConfig::bwCu(n_w, 0.5));
    std::vector<BitVector> ref;
    const ExtractionTrace ref_trace = sequentialProfile(ex, recs, ref);

    constexpr std::size_t kOuter = 8;
    ThreadPool outer(4), inner(2);
    std::vector<std::vector<BitVector>> paths(kOuter);
    std::vector<ExtractionTrace> traces(kOuter);
    outer.parallelFor(kOuter, [&](std::size_t k) {
        // Hold each task briefly so every outer worker takes one.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        traces[k] = ex.profileBatch(recs, &inner, &paths[k]);
    });
    for (std::size_t k = 0; k < kOuter; ++k) {
        const std::string what = "outer task " + std::to_string(k);
        expectTracesEqual(traces[k], ref_trace, what);
        EXPECT_EQ(paths[k], ref) << what;
    }
}

TEST(RecordBackward, BatchRecordsAreDifferentiable)
{
    // Layers keep no per-pass state, so any record — including one from
    // forwardBatch — carries everything backward needs, and the result
    // matches a fresh single-stream forward+backward bitwise.
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 33);
    const auto xs = randomBatch(2, net.inputShape(), 34);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    nn::Tensor seed(nn::flatShape(4));
    seed[0] = 1.0f;
    const nn::Tensor from_batch = net.backward(recs[1], seed);

    auto rec = net.forward(xs[1]);
    net.zeroGrads(); // param grads accumulated above are irrelevant here
    const nn::Tensor &fresh = net.backward(rec, seed);
    ASSERT_EQ(from_batch.size(), fresh.size());
    for (std::size_t i = 0; i < from_batch.size(); ++i)
        ASSERT_EQ(from_batch[i], fresh[i]) << "i=" << i;
}

TEST(RecordBackward, MismatchedRecordThrows)
{
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 37);
    nn::Tensor seed(nn::flatShape(4));
    seed[0] = 1.0f;
    nn::Network::Record empty;
    EXPECT_THROW(net.backward(empty, seed), std::logic_error);
}

TEST(GradArena, RepeatedBackwardReturnsIdenticalGradients)
{
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 35);
    const auto xs = randomBatch(2, net.inputShape(), 36);
    nn::Tensor seed(nn::flatShape(4));
    seed[1] = 1.0f;
    seed[3] = -0.5f;

    auto rec = net.forward(xs[0]);
    const nn::Tensor first = net.backward(rec, seed); // copy off the arena
    // Interleave another sample, then repeat the first: the arena must
    // not leak state between passes.
    rec = net.forward(xs[1]);
    net.backward(rec, seed);
    rec = net.forward(xs[0]);
    const nn::Tensor &second = net.backward(rec, seed);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i]) << "i=" << i;
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    // Outer loop on the pool; each body issues another parallelFor on
    // the same pool. Nested sections must run inline (no deadlock on
    // the single job slot, no thread explosion) and still cover every
    // index exactly once.
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    // Reuse: a second loop on the same pool must also run cleanly.
    std::atomic<int> sum{0};
    pool.parallelFor(100, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

} // namespace
} // namespace ptolemy::path
