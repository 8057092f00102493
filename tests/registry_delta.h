// Test-only reader of MetricRegistry counter deltas: a test checks an
// event count as its counter's growth across the test body (gtest runs
// one test at a time, so no other test adds to it).

#ifndef FEDAQP_TESTS_REGISTRY_DELTA_H_
#define FEDAQP_TESTS_REGISTRY_DELTA_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace fedaqp {

/// `delta(name)`: the counter's growth since `delta` was constructed.
class RegistryDelta {
 public:
  RegistryDelta() {
    for (const obs::MetricSample& sample :
         obs::MetricRegistry::Global().Snapshot()) {
      if (sample.kind == obs::MetricSample::Kind::kCounter) {
        before_[sample.name] = static_cast<uint64_t>(sample.value);
      }
    }
  }

  uint64_t operator()(const std::string& name) const {
    const auto it = before_.find(name);
    return obs::MetricRegistry::Global().GetCounter(name)->Value() -
           (it == before_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, uint64_t> before_;
};

}  // namespace fedaqp

#endif  // FEDAQP_TESTS_REGISTRY_DELTA_H_
