// Process-wide heap-allocation counter: the benchmark's own operator
// new, so steady-state allocations show as a number per detection or
// request rather than as an abort.

#include <atomic>
#include <cstdlib>
#include <new>

#include <sys/resource.h>

#include "bench.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a) / a * a))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench
