/**
 * @file
 * Scenario from the paper's introduction: an object-recognition model in
 * a safety-critical loop, where a perturbed stop sign must not silently
 * become a yield sign.
 *
 * The synthetic "cross" texture family plays the stop sign. We deploy the
 * AlexNet-class model behind a Ptolemy detector configured for the
 * *deployment* trade-off the paper recommends for latency-critical
 * systems — forward extraction with absolute thresholds (FwAb), which
 * hides extraction behind inference — and show (a) end-to-end rejection
 * of attacked signs, and (b) what the detection costs on the modeled
 * accelerator.
 *
 * Build & run:  ./build/examples/traffic_sign_defense
 */

#include <cstdio>

#include "attack/gradient_attacks.hh"
#include "compiler/compiler.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "data/synthetic.hh"
#include "hw/simulator.hh"
#include "models/zoo.hh"
#include "nn/init.hh"
#include "nn/trainer.hh"
#include "path/extractor.hh"

using namespace ptolemy;

int
main()
{
    // The 10 texture classes play 10 sign types; class 8 (cross) is the
    // stop sign.
    constexpr std::size_t kStopSign = 8;

    data::DatasetSpec spec;
    spec.numClasses = 10;
    spec.trainPerClass = 80;
    spec.testPerClass = 20;
    auto dataset = data::makeSyntheticDataset(spec);

    auto net = models::makeMiniAlexNet(10);
    nn::heInit(net, 11);
    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.learningRate = 0.02;
    nn::Trainer(tc).train(net, dataset.train);
    std::printf("sign classifier accuracy: %.3f\n",
                nn::Trainer::evaluate(net, dataset.test));

    // Deployment config: FwAb with calibrated per-layer thresholds.
    const int n = static_cast<int>(net.weightedNodes().size());
    auto cfg = path::ExtractionConfig::fwAb(n);
    std::vector<nn::Tensor> calib;
    for (int i = 0; i < 8; ++i)
        calib.push_back(dataset.train[i * 37].input);
    path::calibrateAbsoluteThresholds(net, cfg, calib, 0.05);

    core::DetectorBuilder builder(net, cfg, 10);
    core::DetectorSession detector(builder.model());
    builder.profileClassPaths(dataset.train, 100);

    attack::Pgd pgd; // a determined physical-world-style attacker
    auto pairs = core::buildAttackPairs(net, pgd, dataset.test, 80);
    core::fitAndScore(builder, detector, pairs, 0.5);

    // Attack every correctly-classified stop sign in the test set.
    int signs = 0, fooled = 0, caught = 0;
    for (const auto &s : dataset.test) {
        if (s.label != kStopSign || net.predict(s.input) != kStopSign)
            continue;
        ++signs;
        auto res = pgd.run(net, s.input, kStopSign);
        if (!res.success)
            continue;
        ++fooled;
        const auto verdict = detector.detect(res.adversarial);
        if (verdict.adversarial)
            ++caught;
        else
            std::printf("  !! stop sign silently misread as class %zu\n",
                        verdict.predictedClass);
    }
    std::printf("\nstop signs tested: %d, successfully attacked: %d, "
                "rejected by Ptolemy: %d\n",
                signs, fooled, caught);

    // What does the defense cost on the modeled accelerator?
    path::PathExtractor ex(net, cfg);
    std::vector<path::ExtractionTrace> traces;
    for (int i = 0; i < 5; ++i) {
        auto rec = net.forward(dataset.test[i * 11].input);
        path::ExtractionTrace t;
        ex.extract(rec, &t);
        traces.push_back(std::move(t));
    }
    compiler::Compiler comp(net, cfg);
    hw::Simulator sim;
    const auto det_rep = sim.run(comp.compile(path::averageTraces(traces)));
    const auto inf_rep = sim.run(compiler::Compiler::inferenceOnly(net));
    std::printf("modeled hardware: inference %.1f us, with detection "
                "%.1f us (%.2fx)\n",
                inf_rep.latencyUs(250.0), det_rep.latencyUs(250.0),
                static_cast<double>(det_rep.cycles) / inf_rep.cycles);
    return 0;
}
