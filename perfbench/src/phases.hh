/**
 * @file
 * The benchmark's phases. Each calls the library only through its
 * public entry points, checks every output against the reference
 * Decisions and reports metrics into a Report.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include "fixture.hh"

namespace perfbench
{

// batch.cc -------------------------------------------------------------

/** Closed-loop detectBatch in 64-request batches on @p pool, alternating
 *  with single-stream detect() on one thread, for @p seconds. Reports
 *  detect_per_s and detect_p50_us/p90_us (untraced) or the core.* batch
 *  metrics (traced). */
void runDetect(World &w, ThreadPool &pool, double seconds, Report &rep);

/** Traced: the decomposed detection (node walk, extraction, similarity,
 *  forest) with a span around every public call; checks the walk's
 *  Records against inferInto and its Decisions against the reference.
 *  Reports the nn.*, path.*_us and classify.* metrics. */
void runDecomposed(World &w, double seconds, Report &rep);

/** Traced: detectBatch rate at pool width nproc over a 1-thread pool,
 *  as the median of interleaved pairs (core.scaling_x). */
void runScaling(World &w, ThreadPool &wide, double seconds, Report &rep);

/** Traced: traced-walk vs plain detect() time, median of interleaved
 *  pair ratios minus one (trace.overhead_frac). */
void runTraceOverhead(World &w, double seconds, Report &rep);

// serve.cc -------------------------------------------------------------

/** Traced: open-loop serving through DetectorServer at the workload's
 *  fixed `lo` and `hi` rates, then up the fixed rate ladder; reports
 *  the serve.* metrics. */
void runServe(World &w, double seconds, Report &rep);

// probes.cc ------------------------------------------------------------

/** Exact extraction op counts over every seeded input (path.psums,
 *  path.scan_passes, path.heap_pops, path.path_bits). */
void probePathCounts(World &w, Report &rep);

/** TelemetryHub ingest and seal on the workload's real path bits, over
 *  a fixed number of windows. */
void probeTelemetry(World &w, Report &rep);

/** Compiler + cycle simulator on the workload's profiled trace. */
void probeHw(World &w, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
