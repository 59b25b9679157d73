#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "tensor/check.h"

namespace dar {
namespace serve {

MicroBatcher::MicroBatcher(const InferenceSession& session,
                           BatcherConfig config)
    : session_(&session), config_(config) {
  DAR_CHECK_GT(config_.max_batch, 0);
  DAR_CHECK_GT(config_.num_workers, 0);
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

std::future<InferenceResult> MicroBatcher::Submit(const std::string& text) {
  return *Enqueue(text, /*block=*/true);
}

std::optional<std::future<InferenceResult>> MicroBatcher::TrySubmit(
    const std::string& text) {
  return Enqueue(text, /*block=*/false);
}

std::optional<std::future<InferenceResult>> MicroBatcher::Enqueue(
    const std::string& text, bool block) {
  obs::Span span("serve.enqueue");
  Pending pending;
  // Encoding before taking the lock keeps the critical section short; a
  // rejected request wastes one tokenization, which is cheap next to the
  // forward it is shedding.
  pending.tokens = session_->Encode(text);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.trace = obs::CurrentRequestTrace();
  std::future<InferenceResult> future = pending.promise.get_future();
  bool notify;
  {
    sync::MutexLock lock(mu_);
    DAR_CHECK(!stop_);
    if (config_.max_queue > 0) {
      while (static_cast<int64_t>(queue_.size()) >= config_.max_queue) {
        if (!block) return std::nullopt;
        space_cv_.Wait(mu_);
      }
      DAR_CHECK(!stop_);
    }
    queue_.push_back(std::move(pending));
    // Workers wait only while the queue is empty. Past one full batch the
    // wakes already sent, chained by each worker's post-take notify, cover
    // every worker that can take a batch, so another would be wasted work.
    notify = static_cast<int64_t>(queue_.size()) <= config_.max_batch;
  }
  if (notify) cv_.NotifyOne();
  return future;
}

void MicroBatcher::Shutdown() {
  {
    sync::MutexLock lock(mu_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  space_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

std::vector<MicroBatcher::Pending> MicroBatcher::TakeBatchLocked(size_t take) {
  std::vector<Pending> taken;
  taken.reserve(take);
  if (queue_.size() == take) {
    for (size_t i = 0; i < take; ++i) {
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return taken;
  }

  // Oversubscribed: the batch's forward costs O(take x longest sequence),
  // so mixing a short request with a long one pays for padding. Scan a
  // bounded front region of the queue, order it by length, and take the
  // `take`-wide window with the smallest maximum length among windows that
  // contain the oldest request — homogeneous lengths without starvation.
  const size_t scan = std::min(queue_.size(), take * kLengthScanFactor);
  std::vector<size_t> order(scan);  // queue indices, to be length-sorted
  for (size_t i = 0; i < scan; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return queue_[a].tokens.size() < queue_[b].tokens.size();
  });
  size_t oldest_pos = 0;  // position of queue front in sorted order
  for (size_t i = 0; i < scan; ++i) {
    if (order[i] == 0) {
      oldest_pos = i;
      break;
    }
  }
  const size_t lo = oldest_pos >= take - 1 ? oldest_pos - (take - 1) : 0;
  const size_t hi = std::min(oldest_pos, scan - take);
  size_t best = lo;
  for (size_t s = lo; s <= hi; ++s) {
    if (queue_[order[s + take - 1]].tokens.size() <
        queue_[order[best + take - 1]].tokens.size()) {
      best = s;
    }
  }

  std::vector<size_t> chosen(order.begin() + best, order.begin() + best + take);
  std::sort(chosen.begin(), chosen.end());
  for (size_t idx : chosen) taken.push_back(std::move(queue_[idx]));
  // Compact the scanned region: keep the unchosen entries, in order.
  std::vector<Pending> kept;
  kept.reserve(scan - take);
  size_t next_chosen = 0;
  for (size_t i = 0; i < scan; ++i) {
    if (next_chosen < chosen.size() && chosen[next_chosen] == i) {
      ++next_chosen;
    } else {
      kept.push_back(std::move(queue_[i]));
    }
  }
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(scan));
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  return taken;
}

void MicroBatcher::WorkerLoop() {
  for (;;) {
    std::vector<Pending> taken;
    {
      obs::Span collect_span("serve.batch_collect");
      sync::MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and fully drained
      // Greedy: serve what is queued now rather than wait for a fuller
      // batch. Under load the queue refills while this forward runs.
      taken = TakeBatchLocked(
          std::min(queue_.size(), static_cast<size_t>(config_.max_batch)));
    }
    // Another worker may still be needed for what remains in the queue,
    // and blocked submitters now have space.
    cv_.NotifyOne();
    if (config_.max_queue > 0) space_cv_.NotifyAll();

    std::vector<std::vector<int64_t>> sequences;
    sequences.reserve(taken.size());
    for (const Pending& p : taken) sequences.push_back(p.tokens);

    // One scratch collector times the shared forward when any member of
    // the batch is traced; afterwards its subtree is copied into every
    // traced request, with the co-batched trace ids recorded as links.
    bool any_traced = false;
    for (const Pending& p : taken) any_traced |= (p.trace != nullptr);
    std::vector<InferenceResult> results;
    std::unique_ptr<obs::TraceCollector> batch_trace;
    if (any_traced) {
      batch_trace = std::make_unique<obs::TraceCollector>(
          obs::MakeTraceContext());
      for (const Pending& p : taken) {
        if (p.trace != nullptr) batch_trace->AddLink(p.trace->context());
      }
      obs::ScopedActiveCollector guard(batch_trace.get());
      obs::Span batch_span("serve.batch");
      results = session_->PredictTokenBatch(sequences);
    } else {
      results = session_->PredictTokenBatch(sequences);
    }
    if (batch_trace != nullptr) {
      for (Pending& p : taken) {
        if (p.trace != nullptr) {
          p.trace->AdoptBatch(*batch_trace,
                              static_cast<int32_t>(taken.size()));
        }
      }
    }

    auto now = std::chrono::steady_clock::now();
    for (const Pending& p : taken) {
      auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
          now - p.enqueued);
      session_->stats().RecordLatencyUs(latency.count());
    }
    for (size_t i = 0; i < taken.size(); ++i) {
      taken[i].promise.set_value(std::move(results[i]));
    }
  }
}

}  // namespace serve
}  // namespace dar
