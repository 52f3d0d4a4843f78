/**
 * @file
 * ThreadPool exception contract: a throwing task must never
 * std::terminate the process. Every index is still attempted, the
 * lowest-indexed exception is rethrown on the calling thread
 * (deterministically, at any thread count), and the pool remains fully
 * usable afterwards.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hh"

namespace ptolemy
{
namespace
{

TEST(ThreadPoolExceptions, ThrowingTaskRethrowsLowestIndexAtAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        constexpr std::size_t kN = 64;
        std::vector<std::atomic<int>> ran(kN);
        for (auto &r : ran)
            r.store(0);

        // Several indices throw; the lowest (index 5) must win
        // regardless of which worker reaches which index first.
        try {
            pool.parallelFor(kN, [&](std::size_t i) {
                ran[i].fetch_add(1);
                if (i == 5 || i == 23 || i == 41)
                    throw std::runtime_error("task " + std::to_string(i));
            });
            FAIL() << "expected rethrow (threads=" << threads << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 5") << "threads=" << threads;
        }

        // Deterministic executed set: every index was still attempted,
        // exactly once.
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(ran[i].load(), 1)
                << "threads=" << threads << " index " << i;

        // The pool must be fully usable after a rethrow.
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u) << "threads=" << threads;
    }
}

TEST(ThreadPoolExceptions, SingleThrowingIndexIsIsolated)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::atomic<int> completed{0};
        EXPECT_THROW(pool.parallelForWithTid(
                         8,
                         [&](std::size_t i, unsigned) {
                             if (i == 3)
                                 throw std::logic_error("boom");
                             completed.fetch_add(1);
                         }),
                     std::logic_error)
            << "threads=" << threads;
        EXPECT_EQ(completed.load(), 7) << "threads=" << threads;
    }
}

TEST(ThreadPoolExceptions, NestedInlineSectionPropagatesToOuterIndex)
{
    ThreadPool pool(2);
    // The outer loop's index 1 runs a nested section whose inner index
    // throws; the nested inline loop rethrows into the outer task,
    // which must surface it as outer index 1's exception.
    try {
        pool.parallelFor(4, [&](std::size_t outer) {
            pool.parallelFor(4, [&](std::size_t inner) {
                if (outer == 1 && inner == 2)
                    throw std::runtime_error("outer 1 inner 2");
            });
        });
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "outer 1 inner 2");
    }
}

TEST(SlotTable, GrowsNeverShrinksAndClampsForeignIds)
{
    SlotTable<std::vector<int>> t;
    t.growTo(2, 3, 7); // each new slot is vector<int>(3, 7)
    ASSERT_EQ(t.size(), 2u);
    t[1].push_back(42); // warm slot 1
    const std::vector<int> *slot1 = &t[1];
    const int *buffer1 = t[1].data();

    t.growTo(1); // a narrower pool keeps every slot in place
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(&t[1], slot1);

    t.growTo(4); // a wider pool moves slots but keeps their buffers
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[1], (std::vector<int>{7, 7, 7, 42}));
    EXPECT_EQ(t[1].data(), buffer1);
    EXPECT_TRUE(t[3].empty()); // built from this call's (no) args

    // An id past the table resolves to slot 0.
    EXPECT_EQ(t.index(4), 0u);
    EXPECT_EQ(t.index(99), 0u);
    EXPECT_EQ(&t[99], &t[0]);
    EXPECT_EQ(t.index(3), 3u);

    // Iteration runs in slot order.
    std::size_t n = 0;
    for (const auto &slot : t)
        EXPECT_EQ(&slot, &t[static_cast<unsigned>(n++)]);
    EXPECT_EQ(n, 4u);
}

} // namespace
} // namespace ptolemy
