/**
 * @file
 * Network graph tests: topology, recording, backward consistency,
 * serialization, and the model zoo's structural invariants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>

#include "models/zoo.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/network.hh"
#include "util/rng.hh"

namespace ptolemy::nn
{
namespace
{

Tensor
randomImage(std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(mapShape(3, 16, 16));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform());
    return t;
}

Network
smallNet()
{
    Network net("small", mapShape(3, 16, 16));
    net.add(std::make_unique<Conv2d>("c1", 3, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 4 * 8 * 8, 5));
    heInit(net, 17);
    return net;
}

TEST(Network, RecordsEveryNodeOutput)
{
    auto net = smallNet();
    auto rec = net.forward(randomImage(1));
    EXPECT_EQ(rec.outputs.size(), 5u);
    EXPECT_EQ(rec.logits().size(), 5u);
    EXPECT_LT(rec.predictedClass(), 5u);
}

TEST(Network, WeightedNodesInTopologicalOrder)
{
    auto net = smallNet();
    const auto &w = net.weightedNodes();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_LT(w[0], w[1]);
    EXPECT_EQ(net.layerAt(w[0]).kind(), LayerKind::Conv);
    EXPECT_EQ(net.layerAt(w[1]).kind(), LayerKind::Linear);
}

TEST(Network, ConsumersOfInputAndNodes)
{
    auto net = smallNet();
    const auto input_consumers = net.consumersOf(-1);
    ASSERT_EQ(input_consumers.size(), 1u);
    EXPECT_EQ(input_consumers[0], 0);
    EXPECT_EQ(net.consumersOf(0), std::vector<int>{1});
}

TEST(Network, BackwardMatchesNumericalLossGradient)
{
    auto net = smallNet();
    const Tensor x = randomImage(2);
    const std::size_t label = 3;

    auto rec = net.forward(x);
    auto lg = softmaxCrossEntropy(rec.logits(), label);
    const Tensor analytic = net.backward(rec, lg.grad);

    // Spot-check a handful of input coordinates numerically.
    const float h = 1e-3f;
    Tensor xp = x;
    for (std::size_t i = 0; i < x.size(); i += 97) {
        xp[i] = x[i] + h;
        auto up = softmaxCrossEntropy(net.forward(xp).logits(), label).loss;
        xp[i] = x[i] - h;
        auto dn = softmaxCrossEntropy(net.forward(xp).logits(), label).loss;
        xp[i] = x[i];
        EXPECT_NEAR(analytic[i], (up - dn) / (2.0 * h), 5e-2)
            << "at " << i;
    }
}

TEST(Network, BackwardMultiWithLogitsSeedMatchesBackward)
{
    auto net = smallNet();
    const Tensor x = randomImage(3);
    auto rec = net.forward(x);
    Tensor seed(rec.logits().shape());
    seed[0] = 1.0f;
    seed[2] = -0.5f;

    const Tensor a = net.backward(rec, seed);
    const Tensor b =
        net.backwardMulti(rec, {{net.numNodes() - 1, seed}});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Network, SaveLoadRoundtrip)
{
    auto net = smallNet();
    const Tensor x = randomImage(4);
    const auto logits_before = net.forward(x).logits();

    const std::string path = ::testing::TempDir() + "/net_roundtrip.bin";
    ASSERT_TRUE(net.save(path));

    auto net2 = smallNet(); // same arch, different init seed state
    heInit(net2, 999);
    ASSERT_TRUE(net2.load(path));
    const auto logits_after = net2.forward(x).logits();
    for (std::size_t i = 0; i < logits_before.size(); ++i)
        EXPECT_FLOAT_EQ(logits_before[i], logits_after[i]);
    std::remove(path.c_str());
}

TEST(Network, LoadRejectsArchitectureMismatch)
{
    auto net = smallNet();
    const std::string path = ::testing::TempDir() + "/net_mismatch.bin";
    ASSERT_TRUE(net.save(path));
    auto other = models::makeMiniAlexNet(10);
    EXPECT_FALSE(other.load(path));
    std::remove(path.c_str());
}

/** smallNet plus a Norm2d, so the saved file also carries layer state. */
Network
normNet(std::uint64_t seed)
{
    Network net("norm", mapShape(3, 16, 16));
    net.add(std::make_unique<Conv2d>("c1", 3, 4, 3, 1, 1));
    net.add(std::make_unique<Norm2d>("n1", 4));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 4 * 8 * 8, 5));
    heInit(net, seed);
    return net;
}

/** Every params()/state() buffer of @p net, in save() order. */
std::vector<std::vector<float> *>
allBuffers(Network &net)
{
    std::vector<std::vector<float> *> out;
    for (int id = 0; id < net.numNodes(); ++id) {
        for (auto p : net.layerAt(id).params())
            out.push_back(p.value);
        for (auto p : net.layerAt(id).state())
            out.push_back(p.value);
    }
    return out;
}

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const char *data, std::size_t n)
{
    std::ofstream os(path, std::ios::binary);
    os.write(data, static_cast<std::streamsize>(n));
}

TEST(Network, FailedLoadLeavesEveryBufferUnchanged)
{
    auto src = normNet(17);
    const std::string good = ::testing::TempDir() + "/net_good.bin";
    const std::string bad = ::testing::TempDir() + "/net_bad.bin";
    ASSERT_TRUE(src.save(good));
    const std::vector<char> bytes = readBytes(good);

    // Target: different weights, non-zero biases and non-default norm
    // running stats in every buffer.
    auto dst = normNet(999);
    Rng rng(5);
    for (auto *buf : allBuffers(dst))
        for (auto &v : *buf)
            v = static_cast<float>(rng.uniform()) + 0.5f;
    std::vector<std::vector<float>> before;
    for (auto *buf : allBuffers(dst))
        before.push_back(*buf);
    auto expectUnchanged = [&](const char *what) {
        const auto now = allBuffers(dst);
        ASSERT_EQ(now.size(), before.size());
        for (std::size_t i = 0; i < now.size(); ++i)
            ASSERT_EQ(0, std::memcmp(now[i]->data(), before[i].data(),
                                     before[i].size() * sizeof(float)))
                << what << ": buffer " << i << " was modified";
    };

    // Truncated mid-buffer: early in the file, and inside the last
    // buffer after every other one parsed.
    for (std::size_t cut : {bytes.size() / 2, bytes.size() - 10}) {
        writeBytes(bad, bytes.data(), cut);
        EXPECT_FALSE(dst.load(bad)) << "cut at " << cut;
        expectUnchanged("truncated");
    }

    // A buffer count that disagrees with the network's, all buffers
    // intact. The count follows the length-prefixed signature.
    std::vector<char> patched = bytes;
    const std::size_t count_at = 8 + src.signature().size();
    ASSERT_LT(count_at, patched.size());
    patched[count_at] = static_cast<char>(patched[count_at] + 1);
    writeBytes(bad, patched.data(), patched.size());
    EXPECT_FALSE(dst.load(bad));
    expectUnchanged("n_bufs mismatch");

    // The intact file still loads, and replaces every buffer.
    ASSERT_TRUE(dst.load(good));
    const auto loaded = allBuffers(dst), want = allBuffers(src);
    for (std::size_t i = 0; i < loaded.size(); ++i)
        ASSERT_EQ(*loaded[i], *want[i]) << "buffer " << i;
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(Network, NumParamsCountsEverything)
{
    Network net("p", mapShape(1, 4, 4));
    net.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1)); // 18 + 2
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("l", 32, 3)); // 96 + 3
    EXPECT_EQ(net.numParams(), 18u + 2 + 96 + 3);
}

// ------------------------------------------------------------- model zoo --

struct ZooCase
{
    const char *name;
    int expectedWeighted;
};

class ModelZoo : public ::testing::TestWithParam<ZooCase>
{
};

TEST_P(ModelZoo, BuildsAndRuns)
{
    auto net = models::makeByName(GetParam().name, 10);
    heInit(net, 5);
    EXPECT_EQ(static_cast<int>(net.weightedNodes().size()),
              GetParam().expectedWeighted);
    auto rec = net.forward(randomImage(6));
    EXPECT_EQ(rec.logits().size(), 10u);
    // Gradients flow end-to-end.
    auto lg = softmaxCrossEntropy(rec.logits(), 0);
    const Tensor g = net.backward(rec, lg.grad);
    double mag = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        mag += std::abs(g[i]);
    EXPECT_GT(mag, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZoo,
    ::testing::Values(ZooCase{"alexnet", 8}, ZooCase{"resnet18", 18},
                      ZooCase{"resnet26", 26}, ZooCase{"vgg16", 16},
                      ZooCase{"inception", 6}, ZooCase{"densenet", 7}),
    [](const ::testing::TestParamInfo<ZooCase> &info) {
        return info.param.name;
    });

TEST(ModelZoo, UnknownNameThrows)
{
    EXPECT_THROW(models::makeByName("nope", 10), std::invalid_argument);
}

} // namespace
} // namespace ptolemy::nn
