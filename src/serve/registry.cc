#include "serve/registry.h"

#include <utility>

#include "tensor/check.h"

namespace dar {
namespace serve {

void ModelRegistry::Register(const std::string& name,
                             std::shared_ptr<InferenceSession> session) {
  DAR_CHECK(session != nullptr);
  sync::MutexLock lock(mu_);
  sessions_[name] = std::move(session);
}

bool ModelRegistry::Unregister(const std::string& name) {
  sync::MutexLock lock(mu_);
  return sessions_.erase(name) > 0;
}

std::shared_ptr<InferenceSession> ModelRegistry::Get(
    const std::string& name) const {
  sync::MutexLock lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::optional<InferenceResult> ModelRegistry::Predict(
    const std::string& name, const std::string& text) const {
  std::shared_ptr<InferenceSession> session = Get(name);
  if (session == nullptr) return std::nullopt;
  return session->Predict(text);
}

}  // namespace serve
}  // namespace dar
