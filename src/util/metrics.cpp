#include "util/metrics.h"

namespace dfx::metrics {

Counter& Registry::counter(std::string_view name) {
  const MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

json::Value Registry::snapshot() const {
  const MutexLock lock(mu_);
  json::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = json::Value(counter->value());
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  return json::Value(std::move(root));
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace dfx::metrics
