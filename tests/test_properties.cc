/**
 * @file
 * Cross-variant property tests: invariants that must hold for every
 * extraction variant, every theta, and arbitrary ISA words.
 */

#include <gtest/gtest.h>

#include "attack/gradient_attacks.hh"
#include "common/test_models.hh"
#include "compiler/compiler.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "hw/simulator.hh"
#include "isa/instruction.hh"
#include "path/extractor.hh"
#include "util/rng.hh"

namespace ptolemy
{
namespace
{

int
numWeighted()
{
    return static_cast<int>(testing::world().net.weightedNodes().size());
}

/** Build a calibrated config for a named variant. */
path::ExtractionConfig
variantConfig(const std::string &name)
{
    auto &w = testing::world();
    const int n = numWeighted();
    path::ExtractionConfig cfg;
    if (name == "BwCu")
        cfg = path::ExtractionConfig::bwCu(n, 0.5);
    else if (name == "BwAb")
        cfg = path::ExtractionConfig::bwAb(n);
    else if (name == "FwAb")
        cfg = path::ExtractionConfig::fwAb(n);
    else
        cfg = path::ExtractionConfig::hybrid(n, 0.5);
    std::vector<nn::Tensor> samples;
    for (int i = 0; i < 6; ++i)
        samples.push_back(w.dataset.train[i * 19].input);
    path::calibrateAbsoluteThresholds(w.net, cfg, samples, 0.05);
    return cfg;
}

class VariantProperties : public ::testing::TestWithParam<std::string>
{
};

TEST_P(VariantProperties, ExtractionIsDeterministic)
{
    auto &w = testing::world();
    path::PathExtractor ex(w.net, variantConfig(GetParam()));
    auto rec = w.net.forward(w.dataset.test[4].input);
    const BitVector a = ex.extract(rec);
    const BitVector b = ex.extract(rec);
    EXPECT_EQ(a, b);
}

TEST_P(VariantProperties, PathBitsFitTheLayout)
{
    auto &w = testing::world();
    path::PathExtractor ex(w.net, variantConfig(GetParam()));
    for (int i = 0; i < 6; ++i) {
        auto rec = w.net.forward(w.dataset.test[i * 5].input);
        const BitVector p = ex.extract(rec);
        EXPECT_EQ(p.size(), ex.layout().totalBits());
        // Per-segment popcount never exceeds the segment width, and the
        // segment sums equal the total.
        std::size_t sum = 0;
        for (const auto &seg : ex.layout().segments()) {
            const std::size_t ones = p.popcountRange(
                seg.bitOffset, seg.bitOffset + seg.numBits);
            EXPECT_LE(ones, seg.numBits);
            sum += ones;
        }
        EXPECT_EQ(sum, p.popcount());
    }
}

TEST_P(VariantProperties, TraceCountsMatchPath)
{
    auto &w = testing::world();
    path::PathExtractor ex(w.net, variantConfig(GetParam()));
    auto rec = w.net.forward(w.dataset.test[2].input);
    path::ExtractionTrace trace;
    const BitVector p = ex.extract(rec, &trace);
    EXPECT_EQ(trace.pathBits, p.popcount());
    std::size_t bits = 0;
    for (const auto &lt : trace.layers) {
        bits += lt.importantIn;
        EXPECT_LE(lt.importantIn, lt.inputFmapSize);
    }
    EXPECT_EQ(bits, p.popcount());
}

TEST_P(VariantProperties, DetectorBeatsChanceOnFgsm)
{
    auto &w = testing::world();
    core::DetectorBuilder bld(w.net, variantConfig(GetParam()), 10);
    core::DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 40);
    attack::Fgsm fgsm;
    auto pairs = core::buildAttackPairs(w.net, fgsm, w.dataset.test, 40);
    ASSERT_GT(pairs.size(), 6u);
    EXPECT_GT(core::fitAndScore(bld, sess, pairs, 0.5).auc, 0.6)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantProperties,
                         ::testing::Values("BwCu", "BwAb", "FwAb",
                                           "Hybrid"),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------- ISA ----

TEST(IsaProperty, DecodeEncodeIdempotentOnRandomWords)
{
    Rng rng(0x15A);
    int valid = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint32_t word = rng.next() & 0xFFFFFF;
        const auto ins = isa::Instruction::decode(word);
        // Unknown opcodes decode to *something*; re-encoding a decoded
        // instruction must be a fixed point.
        const auto again = isa::Instruction::decode(ins.encode());
        EXPECT_EQ(ins, again);
        if (ins.op == isa::Opcode::Halt)
            continue;
        ++valid;
    }
    EXPECT_GT(valid, 0);
}

// ---------------------------------------------------------- simulator ----

TEST(SimulatorProperty, MoreWorkNeverFinishesEarlier)
{
    hw::Simulator sim;
    isa::InstrMeta m;
    std::uint64_t prev = 0;
    for (std::size_t macs : {1000u, 10000u, 100000u, 1000000u}) {
        m.macs = macs;
        const auto d = sim.durationOf(isa::makeInf(0, 2, 1), m, 0);
        EXPECT_GE(d, prev);
        prev = d;
    }
    prev = 0;
    isa::InstrMeta s;
    for (std::size_t len : {16u, 256u, 4096u, 65536u}) {
        s.seqLen = len;
        const auto d = sim.durationOf(isa::makeSort(1, 3, 6), s, len);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

TEST(SimulatorProperty, CyclesCoverEveryUnitsBusyTime)
{
    auto &w = testing::world();
    // Any simulated program: total cycles >= busy time of each unit.
    const auto prog = compiler::Compiler::inferenceOnly(w.net);
    hw::Simulator sim;
    const auto rep = sim.run(prog);
    for (int u = 0; u < hw::kNumFuncUnits; ++u)
        EXPECT_GE(rep.cycles, rep.unitBusyCycles[u]);
}

// -------------------------------------------------------- class paths ----

TEST(ClassPathProperty, AggregateIsIdempotentForSamePath)
{
    auto &w = testing::world();
    path::PathExtractor ex(w.net, variantConfig("BwCu"));
    auto rec = w.net.forward(w.dataset.train[0].input);
    const BitVector p = ex.extract(rec);
    path::ClassPathStore store(10, p.size());
    store.aggregate(0, p);
    const std::size_t pop = store.classPath(0).popcount();
    EXPECT_EQ(store.aggregate(0, p), 0u); // OR with itself adds nothing
    EXPECT_EQ(store.classPath(0).popcount(), pop);
}

TEST(ClassPathProperty, AggregationOrderDoesNotMatter)
{
    auto &w = testing::world();
    path::PathExtractor ex(w.net, variantConfig("BwCu"));
    std::vector<BitVector> paths;
    for (int i = 0; i < 5; ++i)
        paths.push_back(
            ex.extract(w.net.forward(w.dataset.train[i * 3].input)));
    path::ClassPathStore fwd(1, paths[0].size());
    path::ClassPathStore rev(1, paths[0].size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        fwd.aggregate(0, paths[i]);
        rev.aggregate(0, paths[paths.size() - 1 - i]);
    }
    EXPECT_EQ(fwd.classPath(0), rev.classPath(0));
}

} // namespace
} // namespace ptolemy
