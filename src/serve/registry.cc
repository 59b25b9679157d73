#include "serve/registry.h"

#include <utility>

#include "tensor/check.h"

namespace dar {
namespace serve {

ModelRegistry::~ModelRegistry() {
  sync::MutexLock lock(mu_);
  for (const std::weak_ptr<InferenceSession>& rebound : rebound_) {
    if (std::shared_ptr<InferenceSession> session = rebound.lock()) {
      session->BindStats(nullptr, std::string());
    }
  }
}

void ModelRegistry::PublishMetrics(obs::MetricsRegistry* metrics) {
  sync::MutexLock lock(mu_);
  metrics_ = metrics;
}

void ModelRegistry::AttachCache(ServeCache* cache) {
  sync::MutexLock lock(mu_);
  cache_ = cache;
}

void ModelRegistry::Register(const std::string& name,
                             std::shared_ptr<InferenceSession> session) {
  DAR_CHECK(session != nullptr);
  sync::MutexLock lock(mu_);
  if (metrics_ != nullptr) {
    session->BindStats(metrics_, name);
    std::erase_if(rebound_, [](const std::weak_ptr<InferenceSession>& s) {
      return s.expired();
    });
    rebound_.push_back(session);
  }
  if (cache_ != nullptr) session->EnableCache(cache_, name);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) {
    // Hot swap: the outgoing session's entries become unreachable dead
    // bytes (the new session has a fresh cache model id) — reclaim them
    // now, and block the old session's in-flight inserts.
    it->second->InvalidateCacheEntries();
  }
  sessions_[name] = std::move(session);
}

bool ModelRegistry::Unregister(const std::string& name) {
  sync::MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return false;
  it->second->InvalidateCacheEntries();
  sessions_.erase(it);
  return true;
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
