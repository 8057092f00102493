#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Sample statistics and a minimal JSON object writer for the result line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Flat JSON object writer: keys in insertion order, numbers at full
/// precision, nested objects pre-rendered.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) quoted.push_back(c);
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Render());
  }
  JsonObject& Raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }
  bool empty() const { return fields_.empty(); }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
