/**
 * @file
 * Serving-API tests for the Engine/Session split: batched-vs-sequential
 * Decision bit-identity across thread counts, concurrent sessions over
 * one shared DetectorModel, allocation-free session steady state, the
 * DetectorModel save/load round trip, and the builder's batched fitting
 * loop against a sequential reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "common/alloc_probe.hh"
#include "common/test_models.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "models/zoo.hh"
#include "nn/init.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

// Shared with other test files through common/alloc_probe.hh (the
// replacement below can exist only once per program).
std::atomic<std::size_t> g_test_allocs{0};

namespace
{
std::atomic<std::size_t> &g_allocs = g_test_allocs;
} // namespace

// Count every heap allocation in the test binary (pure counting, no
// behavior change) so the session steady state can be shown to perform
// none — the same probe perf_smoke uses.
void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ptolemy::core
{
namespace
{

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

/** Mixed clean/perturbed inputs the decisions are probed on. */
std::vector<nn::Tensor>
probeInputs(std::size_t n)
{
    auto &w = ptolemy::testing::world();
    Rng rng(0xD37EC7);
    std::vector<nn::Tensor> xs;
    for (std::size_t i = 0; i < n; ++i) {
        nn::Tensor x = w.dataset.test[i % w.dataset.test.size()].input;
        if (i % 2 == 1)
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.08, 0.08));
        xs.push_back(std::move(x));
    }
    return xs;
}

/** One fully-fitted model (class paths + forest) over the shared
 *  trained world, built once per test process. */
const DetectorModel &
fittedModel()
{
    static const DetectorModel model = [] {
        auto &w = ptolemy::testing::world();
        DetectorBuilder bld(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
        bld.profileClassPaths(w.dataset.train, 30);

        // Fit on clean-vs-perturbed feature rows: cheap, deterministic,
        // and enough signal for the decisions to be non-degenerate.
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (std::size_t i = 0; i < 24; ++i) {
            const auto &s = w.dataset.test[i];
            clean.push_back(s.input);
            nn::Tensor x = s.input;
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(x));
        }
        classify::FeatureMatrix benign, adversarial;
        bld.featuresBatch(clean, benign);
        bld.featuresBatch(noisy, adversarial);
        bld.fitClassifier(benign, adversarial);
        return std::move(bld).build();
    }();
    return model;
}

void
expectDecisionsEqual(const Decision &a, const Decision &b,
                     const std::string &what)
{
    EXPECT_EQ(a.predictedClass, b.predictedClass) << what;
    EXPECT_EQ(a.adversarial, b.adversarial) << what;
    EXPECT_EQ(a.score, b.score) << what; // bitwise: doubles must match
    EXPECT_EQ(a.features.overall, b.features.overall) << what;
    ASSERT_EQ(a.features.perLayer.size(), b.features.perLayer.size())
        << what;
    for (std::size_t l = 0; l < a.features.perLayer.size(); ++l)
        EXPECT_EQ(a.features.perLayer[l], b.features.perLayer[l])
            << what << " layer " << l;
}

TEST(DetectorApi, DetectBatchMatchesSequentialAcrossThreadCounts)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(13);

    // Sequential reference: one warmed session, detect() per input.
    DetectorSession ref_sess(model);
    std::vector<Decision> ref;
    for (const auto &x : xs)
        ref.push_back(ref_sess.detect(x));

    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        DetectorSession sess(model);
        std::vector<Decision> out;
        // Round 2 reuses every warmed buffer: must be as clean as
        // round 1.
        for (int round = 0; round < 2; ++round) {
            sess.detectBatch(xs, out, &pool);
            ASSERT_EQ(out.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                expectDecisionsEqual(
                    out[i], ref[i],
                    "threads=" + std::to_string(threads) + " round=" +
                        std::to_string(round) + " sample " +
                        std::to_string(i));
        }
    }
}

TEST(DetectorApi, TwoConcurrentSessionsShareOneModel)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(16);

    DetectorSession ref_sess(model);
    std::vector<Decision> ref;
    for (const auto &x : xs)
        ref.push_back(ref_sess.detect(x));

    // Two client threads, each with its own session, hammering the one
    // shared (immutable) model concurrently. This is the test the CI
    // ThreadSanitizer leg runs.
    std::vector<Decision> got_a(xs.size()), got_b(xs.size());
    auto client = [&](std::vector<Decision> &got) {
        DetectorSession sess(model);
        for (int round = 0; round < 3; ++round)
            for (std::size_t i = 0; i < xs.size(); ++i)
                got[i] = sess.detect(xs[i]);
    };
    std::thread ta(client, std::ref(got_a));
    std::thread tb(client, std::ref(got_b));
    ta.join();
    tb.join();

    for (std::size_t i = 0; i < xs.size(); ++i) {
        expectDecisionsEqual(got_a[i], ref[i],
                             "session A sample " + std::to_string(i));
        expectDecisionsEqual(got_b[i], ref[i],
                             "session B sample " + std::to_string(i));
    }
}

TEST(DetectorApi, SessionReuseIsAllocationFreeAfterWarmup)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(8);
    std::vector<const nn::Tensor *> xptrs;
    for (const auto &x : xs)
        xptrs.push_back(&x);

    // A pinned 1-thread pool makes the warm-up deterministic: slot 0
    // sees every sample in the first batch, so its workspace high-water
    // marks are final after one round. (Multi-threaded 0-alloc steady
    // state is asserted by perf_smoke, whose warm-until-quiescent loop
    // matches the pool it measures under — with a dynamic slot↔sample
    // schedule, a slot can meet its costliest sample late, so a fixed
    // warm-up round count would be scheduling-dependent here.)
    ThreadPool pool(1);
    DetectorSession sess(model);
    std::vector<Decision> out(xs.size());
    const std::span<const nn::Tensor *const> xspan(xptrs.data(),
                                                   xptrs.size());
    const std::span<Decision> ospan(out.data(), out.size());

    // Two warm batches: the first grows every buffer, the second
    // settles copy-assign capacity effects.
    sess.detectBatch(xspan, ospan, &pool);
    sess.detectBatch(xspan, ospan, &pool);

    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i)
        sess.detectBatch(xspan, ospan, &pool);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
        << "steady-state detectBatch performed heap allocations";

    // Single-stream detect shares the warmed slot-0 scratch, but the
    // returned Decision owns vectors — route it through a warmed
    // destination instead.
    Decision d = sess.detect(xs[0]);
    const std::size_t before_single =
        g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i)
        sess.detectBatch(xspan.subspan(0, 1),
                         std::span<Decision>(&d, 1), &pool);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before_single)
        << "steady-state single-sample serving performed allocations";
}

TEST(DetectorApi, ResidualNetSessionIsAllocationFreeAfterOneWarmPass)
{
    // MiniResNet18's residual Adds take two inputs while its ReLUs and
    // pools take one: the extraction's shared backmap buffer must keep
    // both inner vectors' capacity across that alternation. BwCu 0.9 on
    // all 18 layers is the extraction-heavy serving configuration.
    nn::Network net = models::makeByName("resnet18", 10);
    nn::heInit(net, 18);
    const int layers = static_cast<int>(net.weightedNodes().size());
    const DetectorModel model(
        net, path::ExtractionConfig::bwCu(layers, 0.9), 10);

    Rng rng(0x2E5);
    std::vector<nn::Tensor> xs;
    std::vector<const nn::Tensor *> xptrs;
    for (int i = 0; i < 16; ++i) {
        nn::Tensor x(net.inputShape());
        for (std::size_t e = 0; e < x.size(); ++e)
            x[e] = static_cast<float>(rng.uniform());
        xs.push_back(std::move(x));
    }
    for (const auto &x : xs)
        xptrs.push_back(&x);
    std::vector<Decision> out(xs.size());
    const std::span<const nn::Tensor *const> xspan(xptrs.data(),
                                                   xptrs.size());
    const std::span<Decision> ospan(out.data(), out.size());

    // 1-thread pool: slot 0 meets every input in the warm pass.
    ThreadPool pool(1);
    DetectorSession sess(model);
    sess.detectBatch(xspan, ospan, &pool);
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    sess.detectBatch(xspan, ospan, &pool);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
        << "second detectBatch pass on resnet18 allocated";
}

TEST(DetectorApi, EmptyBatchIsANoOp)
{
    const auto &model = fittedModel();
    DetectorSession sess(model);

    // Span form: no pool touch, no scratch growth, no allocation.
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    sess.detectBatch(std::span<const nn::Tensor *const>(),
                     std::span<Decision>());
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
        << "empty detectBatch allocated";

    // Vector convenience form: out is cleared to match.
    std::vector<nn::Tensor> xs;
    std::vector<Decision> out(3);
    sess.detectBatch(xs, out);
    EXPECT_TRUE(out.empty());
}

TEST(DetectorApi, MismatchedSpanLengthsAreRejected)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(2);
    std::vector<const nn::Tensor *> xptrs{&xs[0], &xs[1]};
    std::vector<Decision> out(1); // one short: caller bug
    DetectorSession sess(model);

    const std::span<const nn::Tensor *const> xspan(xptrs.data(), 2);
    const std::span<Decision> ospan(out.data(), 1);
#ifdef NDEBUG
    EXPECT_THROW(sess.detectBatch(xspan, ospan), std::invalid_argument);
#else
    EXPECT_DEATH(sess.detectBatch(xspan, ospan), "span lengths differ");
#endif
}

TEST(DetectorApi, SaveLoadRoundTripDetectsBitIdentically)
{
    auto &w = ptolemy::testing::world();
    const auto &model = fittedModel();
    const auto xs = probeInputs(10);
    const std::string path = "detector_api_roundtrip.model";
    ASSERT_TRUE(model.save(path));

    // Load into a model constructed with a *different* config: load
    // must replace it wholesale (config travels with the artifacts).
    DetectorModel loaded(
        w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.3), 10);
    ASSERT_NO_THROW(loaded.load(path));
    EXPECT_EQ(loaded.variantName(), model.variantName());
    EXPECT_EQ(loaded.classPaths().numBits(), model.classPaths().numBits());

    DetectorSession s_orig(model), s_loaded(loaded);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(s_orig.detect(xs[i]), s_loaded.detect(xs[i]),
                             "round-trip sample " + std::to_string(i));

    // A different architecture must be rejected by signature, with the
    // typed load error (and the bool convenience wrapper agreeing).
    nn::Network other = ptolemy::testing::makeTinyNet(4);
    DetectorModel wrong(
        other,
        path::ExtractionConfig::bwCu(
            static_cast<int>(other.weightedNodes().size()), 0.5),
        4);
    EXPECT_THROW(wrong.load(path), ModelLoadError);
    EXPECT_FALSE(wrong.tryLoad(path));

    // Truncated files must be rejected, not half-applied.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        ASSERT_EQ(std::fclose(f), 0);
        ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
        DetectorModel fresh(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
        EXPECT_THROW(fresh.load(path), ModelLoadError);
    }
    std::remove(path.c_str());
}

TEST(DetectorApi, ProfileClassPathsMatchesSequentialLoop)
{
    // 120 samples span several fitting chunks (max(8, 4 x pool width))
    // at any thread count, and a cap of 6 fills classes mid-chunk, so
    // the batched loop's admission and in-order replay are both hit.
    auto &w = ptolemy::testing::world();
    const auto cfg = path::ExtractionConfig::bwCu(numWeighted(), 0.5);
    const nn::Dataset train(w.dataset.train.begin(),
                            w.dataset.train.begin() + 120);
    const std::size_t cap = 6;

    DetectorBuilder bld(w.net, cfg, 10);
    const std::size_t aggregated =
        bld.profileClassPaths(train, static_cast<int>(cap));

    // Hand-written sequential reference: forward -> extract ->
    // aggregate, one sample at a time.
    path::PathExtractor ex(w.net, cfg);
    path::ClassPathStore ref(10, ex.layout().totalBits());
    std::size_t ref_aggregated = 0;
    for (const auto &s : train) {
        if (ref.samplesSeen(s.label) >= cap)
            continue;
        const auto rec = w.net.forward(s.input);
        if (rec.predictedClass() != s.label)
            continue;
        ref.aggregate(s.label, ex.extract(rec));
        ++ref_aggregated;
    }

    EXPECT_EQ(aggregated, ref_aggregated);
    const auto &store = bld.model().classPaths();
    std::size_t full = 0;
    for (std::size_t c = 0; c < 10; ++c) {
        EXPECT_EQ(store.samplesSeen(c), ref.samplesSeen(c)) << "class " << c;
        EXPECT_TRUE(store.classPath(c) == ref.classPath(c)) << "class " << c;
        full += ref.samplesSeen(c) == cap;
    }
    EXPECT_GT(full, 0u) << "the cap must bind for the check to bite";
}

TEST(DetectorApi, FeaturesBatchMatchesDetectFeatures)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    bld.profileClassPaths(w.dataset.train, 20);
    const auto xs = probeInputs(75); // several fitting chunks

    classify::FeatureMatrix rows;
    std::vector<std::size_t> predicted;
    bld.featuresBatch(xs, rows, &predicted);
    ASSERT_EQ(rows.size(), xs.size());
    ASSERT_EQ(predicted.size(), xs.size());

    DetectorSession sess(bld.model());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const Decision d = sess.detect(xs[i]);
        EXPECT_EQ(predicted[i], d.predictedClass) << "sample " << i;
        EXPECT_EQ(rows[i], d.features.toVector()) << "sample " << i;
    }
}

TEST(DetectorApi, ProfileRejectsOutOfRangeLabels)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    nn::Dataset train(w.dataset.train.begin(),
                      w.dataset.train.begin() + 20);
    train.back().label = 10; // == numClasses(): one past the last class
    EXPECT_THROW(bld.profileClassPaths(train, 5), std::out_of_range);
    // Rejected before any aggregation: the store is untouched.
    for (std::size_t c = 0; c < 10; ++c)
        EXPECT_EQ(bld.model().classPaths().samplesSeen(c), 0u);
}

} // namespace
} // namespace ptolemy::core
