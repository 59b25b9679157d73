// Bridges from process-wide cumulative counts to a metrics registry: the
// /metrics exposition of lock contention and of the process's own page
// faults and CPU time. Router::HandleMetrics calls both before exporting.
//
// sync/ sits below obs/ and therefore cannot publish into a
// MetricsRegistry itself; it only accumulates cumulative per-name atomics
// (sync::ContentionSnapshot). This bridge converts those cumulatives into
// registry instruments:
//
//   sync_contention_total{mutex="serve.batcher"}   counter
//   sync_wait_us{mutex="serve.batcher"}            histogram (1-2-5 us
//                                                  buckets, same layout as
//                                                  every duration histogram)
//
// Each call brings one registry up to the process-wide cumulative counts:
// the registry's own counter and histogram are the baseline, so every
// registry reports the process total whichever other registries publish,
// and concurrent or repeated /metrics scrapes never double-count.
// Router::HandleMetrics calls this before exporting.
#ifndef DAR_OBS_SYNC_METRICS_H_
#define DAR_OBS_SYNC_METRICS_H_

#include "obs/metrics.h"

namespace dar {
namespace obs {

/// Merges into `registry` the contention its series have not yet counted.
/// Mutex names that never saw contention still get their counter and
/// histogram registered (zero-valued) so dashboards see a stable series
/// set. Thread-safe; a scrape with no new contention reads a handful of
/// relaxed atomics per registered name and changes nothing.
void PublishSyncContentionMetrics(MetricsRegistry& registry);

/// Brings `registry` up to getrusage(RUSAGE_SELF) since process start:
///
///   process_minor_faults_total               counter
///   process_cpu_seconds_total{mode="user"}   gauge (seconds; it only grows)
///   process_cpu_seconds_total{mode="system"} gauge
///
/// A minor fault is the first touch of a page the kernel maps in without
/// I/O, such as a fresh large tensor buffer's: memory churn that no stage
/// timing shows. It also brings `registry` up to the kernel layer's
/// process-wide counters, which count into MetricsRegistry::Global():
///
///   matmul_flops_total                         counter
///   nn_bigru_forwards_total{threads="1"|"2"}   counter (nn/gru.h)
///   tensor_buffers_total{source="cache"|"resize"|"map"}
///                                              counter (tensor/storage.h)
///   tensor_mapped_bytes{state="live"|"cached"} gauge (tensor/storage.h)
///
/// The storage series say where the large tensor buffers came from (a
/// cached mapping, a resized one, a fresh mmap that faults every page in)
/// and how many bytes the mappings hold, so a slow training step's page
/// faults can be read next to process_minor_faults_total.
///
/// Thread-safe, and monotone across scrapes.
void PublishProcessMetrics(MetricsRegistry& registry);

}  // namespace obs
}  // namespace dar

#endif  // DAR_OBS_SYNC_METRICS_H_
