/**
 * @file
 * End-to-end detector tests: offline profiling, online detection, the
 * programming interface, and the evaluation harness.
 */

#include <gtest/gtest.h>

#include "attack/gradient_attacks.hh"
#include "common/test_models.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "core/program_builder.hh"

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

TEST(DetectorTest, BuildsClassPathsFromCorrectPredictionsOnly)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    const std::size_t aggregated =
        bld.profileClassPaths(w.dataset.train, 20);
    EXPECT_GT(aggregated, 100u); // most of 10 classes x 20 samples
    EXPECT_LE(aggregated, 200u);
    const auto &store = bld.model().classPaths();
    for (std::size_t c = 0; c < 10; ++c) {
        EXPECT_GT(store.classPath(c).popcount(), 0u) << "class " << c;
        EXPECT_LE(store.samplesSeen(c), 20u);
    }
}

TEST(DetectorTest, DetectsFgsmAdversariesWithHighAuc)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 60);
    attack::Fgsm fgsm;
    const auto result =
        evaluateAttack(w.net, bld, sess, fgsm, w.dataset.test, 60);
    EXPECT_EQ(result.attackName, "FGSM");
    EXPECT_GT(result.numPairs, 10u);
    EXPECT_GT(result.auc, 0.80) << "detection should clearly beat chance";
}

TEST(DetectorTest, DetectDecisionIsConsistentWithScore)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 40);
    attack::Fgsm fgsm;
    auto pairs = buildAttackPairs(w.net, fgsm, w.dataset.test, 40);
    ASSERT_GT(pairs.size(), 4u);
    fitAndScore(bld, sess, pairs, 0.5);

    const auto d = sess.detect(pairs[0].clean);
    EXPECT_EQ(d.adversarial, d.score >= 0.5);
    EXPECT_LT(d.predictedClass, 10u);
    EXPECT_FALSE(d.features.perLayer.empty());
}

TEST(DetectorTest, FeaturesIncludeOverallAndPerLayer)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 20);
    auto rec = w.net.forward(w.dataset.test[0].input);
    path::ExtractionTrace trace;
    const auto f = sess.featuresFor(rec, &trace);
    EXPECT_EQ(f.size(), static_cast<std::size_t>(numWeighted()) + 1);
    EXPECT_EQ(trace.layers.size(), static_cast<std::size_t>(numWeighted()));
}

TEST(DetectorTest, VariantNameReflectsConfig)
{
    auto &w = ptolemy::testing::world();
    DetectorModel m1(w.net,
                     path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    EXPECT_EQ(m1.variantName(), "BwCu");
    DetectorModel m2(w.net,
                     path::ExtractionConfig::fwAb(numWeighted(), 0.1), 10);
    EXPECT_EQ(m2.variantName(), "FwAb");
}

// ------------------------------------------------------ ProgramBuilder --

TEST(ProgramBuilderTest, ReproducesPaperFig6Shape)
{
    auto &w = ptolemy::testing::world();
    const int n = numWeighted();
    const auto cfg = ProgramBuilder(w.net)
                         .forwardExtraction()
                         .extractNone()
                         .extractLayer(n - 3, path::ThresholdKind::Absolute,
                                       0.2)
                         .extractLayer(n - 2, path::ThresholdKind::Absolute,
                                       0.2)
                         .extractLayer(n - 1,
                                       path::ThresholdKind::Cumulative, 0.5)
                         .build();
    EXPECT_EQ(cfg.direction, path::Direction::Forward);
    EXPECT_EQ(cfg.numExtracted(), 3);
    EXPECT_EQ(cfg.layers[n - 1].kind, path::ThresholdKind::Cumulative);
    EXPECT_EQ(cfg.layers[n - 2].kind, path::ThresholdKind::Absolute);
    EXPECT_DOUBLE_EQ(cfg.layers[n - 2].phi, 0.2);
}

TEST(ProgramBuilderTest, StartAtLayerImplementsSelectiveExtraction)
{
    auto &w = ptolemy::testing::world();
    const auto cfg =
        ProgramBuilder(w.net).backwardExtraction().startAtLayer(2).build();
    EXPECT_EQ(cfg.firstExtractedLayer(), 2);
}

TEST(ProgramBuilderTest, RejectsBadIndicesAndEmptyConfigs)
{
    auto &w = ptolemy::testing::world();
    EXPECT_THROW(ProgramBuilder(w.net).extractLayer(
                     99, path::ThresholdKind::Absolute, 0.1),
                 std::out_of_range);
    EXPECT_THROW(ProgramBuilder(w.net).extractNone().build(),
                 std::logic_error);
}

// --------------------------------------------------------- evaluation --

TEST(EvaluationTest, PairsComeFromCorrectlyClassifiedInputs)
{
    auto &w = ptolemy::testing::world();
    attack::Fgsm fgsm;
    const auto pairs = buildAttackPairs(w.net, fgsm, w.dataset.test, 30);
    for (const auto &p : pairs) {
        EXPECT_EQ(w.net.predict(p.clean), p.label);
        EXPECT_NE(w.net.predict(p.adversarial), p.label);
        EXPECT_GT(p.mse, 0.0);
    }
}

TEST(EvaluationTest, FitAndScoreHandlesDegenerateInputs)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    DetectorSession sess(bld.model());
    const auto scores = fitAndScore(bld, sess, {}, 0.5);
    EXPECT_TRUE(scores.heldOut.empty());
    EXPECT_DOUBLE_EQ(scores.auc, 0.5);
}

TEST(EvaluationTest, HeldOutIsBalanced)
{
    auto &w = ptolemy::testing::world();
    DetectorBuilder bld(w.net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 30);
    attack::Fgsm fgsm;
    auto pairs = buildAttackPairs(w.net, fgsm, w.dataset.test, 40);
    ASSERT_GT(pairs.size(), 6u);
    const auto ps = fitAndScore(bld, sess, pairs, 0.5);
    std::size_t adv = 0;
    for (const auto &s : ps.heldOut)
        adv += s.label;
    EXPECT_EQ(adv * 2, ps.heldOut.size()); // evenly split (paper setup)
}

} // namespace
} // namespace ptolemy::core
