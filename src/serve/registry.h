// Named multi-model serving: one InferenceSession per checkpoint (e.g. one
// per dataset aspect), with request routing by model name.
#ifndef DAR_SERVE_REGISTRY_H_
#define DAR_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/session.h"
#include "sync/mutex.h"

namespace dar {
namespace serve {

/// Thread-safe name -> session map. Sessions are shared_ptr so a request
/// in flight keeps its model alive even if it is concurrently replaced.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Restores the ServingStats of every live session Register rebound —
  /// still registered, replaced or unregistered alike — to a private
  /// registry. Register rebinds session stats into the shared metrics
  /// registry (PublishMetrics), which the registry does not own and which
  /// routinely dies with the router that injected it — without this
  /// restore, a session outliving the registry is left holding instrument
  /// pointers into freed memory, and its next stats call is a
  /// use-after-free. Recorded counts are dropped (the BindStats contract);
  /// must not run while those sessions are serving traffic.
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Sets the metrics registry new registrations publish into (not owned;
  /// must outlive the registry; pass nullptr to stop). Every subsequent
  /// Register(name, session) rebinds the session's ServingStats onto this
  /// registry with a `{model="name"}` label, so one /metrics exposition
  /// carries per-model request/latency series for every routed model. Call
  /// before registering sessions — already-registered ones keep their
  /// previous stats binding.
  void PublishMetrics(obs::MetricsRegistry* metrics);

  /// Attaches the serving cache (not owned, must outlive the registry;
  /// pass nullptr to stop). Subsequent Register(name, session) calls
  /// enable the cache on the session under the `name` label, and
  /// replacing or unregistering a session sweeps its cache entries — a
  /// checkpoint reload through Register can never serve stale states.
  /// Like PublishMetrics, call before registering sessions.
  void AttachCache(ServeCache* cache);

  /// Registers (or hot-swaps) a session under `name`. When a metrics
  /// registry is attached (PublishMetrics), the session's stats are
  /// rebound to it under the `{model=name}` label — so register sessions
  /// before they serve traffic. When a cache is attached (AttachCache)
  /// the session joins it cold and the replaced session's entries are
  /// invalidated.
  void Register(const std::string& name,
                std::shared_ptr<InferenceSession> session);

  /// Removes `name`; returns false if it was not registered. In-flight
  /// requests holding the session keep it alive until they finish (its
  /// cache entries are invalidated immediately).
  bool Unregister(const std::string& name);

  /// The session for `name`, or nullptr.
  std::shared_ptr<InferenceSession> Get(const std::string& name) const;

  bool Contains(const std::string& name) const { return Get(name) != nullptr; }

  /// Routes one request to the named model. nullopt when `name` is not
  /// registered.
  std::optional<InferenceResult> Predict(const std::string& name,
                                         const std::string& text) const;

 private:
  /// kRegistry is the lowest rank band: Register holds mu_ while binding
  /// stats (obs registry, rank 50) and enabling the cache (cache table,
  /// rank 20), so everything it calls into must outrank it.
  mutable sync::Mutex mu_{sync::Rank::kRegistry, "serve.registry"};
  std::map<std::string, std::shared_ptr<InferenceSession>> sessions_
      DAR_GUARDED_BY(mu_);
  /// Every session whose stats Register rebound onto metrics_ — exactly
  /// the bindings the destructor must undo. A replaced or unregistered
  /// session can outlive its entry in sessions_, so they are kept here
  /// too, weakly; expired ones are dropped whenever one is added.
  std::vector<std::weak_ptr<InferenceSession>> rebound_ DAR_GUARDED_BY(mu_);
  obs::MetricsRegistry* metrics_ DAR_GUARDED_BY(mu_) = nullptr;
  ServeCache* cache_ DAR_GUARDED_BY(mu_) = nullptr;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_REGISTRY_H_
