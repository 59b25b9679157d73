// Named multi-model serving: one InferenceSession per checkpoint (e.g. one
// per dataset aspect), with request routing by model name.
#ifndef DAR_SERVE_REGISTRY_H_
#define DAR_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "serve/session.h"
#include "sync/mutex.h"

namespace dar {
namespace serve {

/// Thread-safe name -> session map. Sessions are shared_ptr so a request
/// in flight keeps its model alive even if it is concurrently replaced.
/// The registry binds nothing: a session serves with whatever stats and
/// cache it was given (net::Router::ServeModel binds the ones it serves).
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or hot-swaps) a session under `name`.
  void Register(const std::string& name,
                std::shared_ptr<InferenceSession> session);

  /// Removes `name`; returns false if it was not registered. In-flight
  /// requests holding the session keep it alive until they finish.
  bool Unregister(const std::string& name);

  /// The session for `name`, or nullptr.
  std::shared_ptr<InferenceSession> Get(const std::string& name) const;

  bool Contains(const std::string& name) const { return Get(name) != nullptr; }

  /// Routes one request to the named model. nullopt when `name` is not
  /// registered.
  std::optional<InferenceResult> Predict(const std::string& name,
                                         const std::string& text) const;

 private:
  /// kRegistry is the lowest rank band; mu_ guards only the map.
  mutable sync::Mutex mu_{sync::Rank::kRegistry, "serve.registry"};
  std::map<std::string, std::shared_ptr<InferenceSession>> sessions_
      DAR_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_REGISTRY_H_
