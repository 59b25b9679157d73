// Dynamic micro-batching for single-request traffic.
//
// Callers submit one text at a time and get a future; a pool of worker
// threads drains the shared queue. Batching is greedy: a free worker takes
// everything queued at that moment, up to `max_batch`, as one padded
// batch, runs a single forward through the session, and fulfills each
// request's future. It never waits for a batch to fill, so a request that
// finds a worker free starts its forward at once; batches form under load,
// from the requests that queue while every worker is mid-forward.
// Deterministic eval masks guarantee batched results are identical to the
// single-request path — padding cannot leak across rows because every op
// is gated on the validity mask.
//
// When the queue holds more requests than fit in one batch, workers pick a
// *length-homogeneous* subset from the front region of the queue instead
// of a strict FIFO slice: a padded batch costs O(max_batch x longest
// sequence), so batching a short request with a long one wastes compute on
// padding. The oldest request is always included, so selection never
// starves anyone.
#ifndef DAR_SERVE_BATCHER_H_
#define DAR_SERVE_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.h"
#include "serve/session.h"
#include "sync/mutex.h"

namespace dar {
namespace serve {

/// Tuning knobs for the micro-batcher.
struct BatcherConfig {
  /// Largest number of requests coalesced into one forward. A free worker
  /// takes min(queued, max_batch) requests at once and never waits for
  /// more.
  int64_t max_batch = 16;
  /// Worker threads draining the queue. What arrives while all of them are
  /// mid-forward queues up and becomes the next free worker's batch.
  int num_workers = 2;
  /// Admission bound: Submit blocks while this many requests are already
  /// queued (0 = unbounded). Backpressure keeps queueing delay and the
  /// queue's memory footprint bounded when producers outrun the model.
  int64_t max_queue = 0;
};

/// Multi-threaded micro-batching front of an InferenceSession.
class MicroBatcher {
 public:
  /// `session` must outlive the batcher.
  MicroBatcher(const InferenceSession& session, BatcherConfig config);

  /// Drains outstanding requests, then joins the workers.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one text; the future resolves once a worker has served it.
  /// Blocks while the queue is at `max_queue` (when bounded). Thread-safe;
  /// every Submit must have returned before Shutdown begins.
  std::future<InferenceResult> Submit(const std::string& text)
      DAR_EXCLUDES(mu_);

  /// Non-blocking Submit: nullopt when the queue is at `max_queue` instead
  /// of waiting for space ("queue full / would block" made observable —
  /// the HTTP front-end maps it to 503 so saturation sheds load rather
  /// than tying up connection threads). Unbounded queues never reject.
  /// Same thread-safety and shutdown contract as Submit.
  std::optional<std::future<InferenceResult>> TrySubmit(
      const std::string& text) DAR_EXCLUDES(mu_);

  /// Stops accepting requests, serves everything still queued, and joins
  /// the workers. Idempotent; also run by the destructor.
  void Shutdown() DAR_EXCLUDES(mu_);

  const BatcherConfig& config() const { return config_; }

 private:
  struct Pending {
    std::vector<int64_t> tokens;
    std::promise<InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// The submitting request's trace (null for untraced callers), picked
    /// up ambiently from obs::CurrentRequestTrace() at Submit time. The
    /// worker that serves the batch merges its batch/forward spans into
    /// every traced member before fulfilling the promise; the promise →
    /// future edge then hands ownership back to the submitting thread.
    std::shared_ptr<obs::TraceCollector> trace;
  };

  /// How far past one batch the length-aware selection looks into the
  /// queue; bounds selection cost to O(scan log scan) under the lock.
  static constexpr size_t kLengthScanFactor = 8;

  /// The body of Submit and TrySubmit: encodes `text`, stamps it and
  /// queues it. At `max_queue`, waits for space when `block` is set and
  /// returns nullopt otherwise.
  std::optional<std::future<InferenceResult>> Enqueue(const std::string& text,
                                                      bool block)
      DAR_EXCLUDES(mu_);

  /// Removes and returns `take` requests from the queue: the whole queue
  /// when it fits, otherwise a length-homogeneous subset that always
  /// includes the oldest request. Requires `take <= queue_.size()`.
  std::vector<Pending> TakeBatchLocked(size_t take) DAR_REQUIRES(mu_);

  void WorkerLoop() DAR_EXCLUDES(mu_);

  const InferenceSession* session_;
  BatcherConfig config_;

  /// kBatcher sits above the registry/cache band and below stats/obs:
  /// workers release mu_ before the forward, so the only locks taken
  /// while holding it are none — the rank just pins the batcher's place
  /// in the global order.
  sync::Mutex mu_{sync::Rank::kBatcher, "serve.batcher"};
  sync::CondVar cv_;
  sync::CondVar space_cv_;  // signaled when queued count drops
  std::deque<Pending> queue_ DAR_GUARDED_BY(mu_);
  bool stop_ DAR_GUARDED_BY(mu_) = false;
  /// Written by the constructor, joined/cleared by Shutdown (which checks
  /// emptiness under mu_ only to make Shutdown idempotent).
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_BATCHER_H_
