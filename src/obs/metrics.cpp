#include "obs/metrics.hpp"

#include <cinttypes>
#include <sstream>

namespace nadfs::obs {

void MetricRegistry::counter_cell(std::string name, const std::uint64_t* cell) {
  Entry e;
  e.kind = Entry::Kind::kCounter;
  e.cell = cell;
  entries_[std::move(name)] = std::move(e);
}

void MetricRegistry::gauge(std::string name, std::function<long long()> fn) {
  Entry e;
  e.kind = Entry::Kind::kGauge;
  e.fn = std::move(fn);
  entries_[std::move(name)] = std::move(e);
}

void MetricRegistry::sketch(std::string name, const QuantileSketch& s) {
  Entry e;
  e.kind = Entry::Kind::kSketch;
  e.sketch = &s;
  entries_[std::move(name)] = std::move(e);
}

void MetricRegistry::remove_prefix(std::string_view prefix) {
  for (auto it = entries_.lower_bound(std::string(prefix)); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = entries_.erase(it);
  }
}

std::map<std::string, long long> MetricRegistry::snapshot() const {
  std::map<std::string, long long> out;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out[name] = static_cast<long long>(*e.cell);
        break;
      case Entry::Kind::kGauge:
        out[name] = e.fn();
        break;
      case Entry::Kind::kSketch: {
        const QuantileSketch& s = *e.sketch;
        out[name + ".count"] = static_cast<long long>(s.count());
        out[name + ".sum_ps"] = static_cast<long long>(s.sum_ps());
        out[name + ".min_ps"] = static_cast<long long>(s.min_ps());
        out[name + ".max_ps"] = static_cast<long long>(s.max_ps());
        for (std::size_t i = 0; i < QuantileSketch::kBuckets; ++i) {
          if (s.bucket(i) != 0)
            out[name + ".s" + std::to_string(i)] = static_cast<long long>(s.bucket(i));
        }
        break;
      }
    }
  }
  return out;
}

void MetricRegistry::export_json(std::ostream& os) const {
  const auto snap = snapshot();
  os << "{";
  bool first = true;
  for (const auto& [name, value] : snap) {
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "}" : "\n}");
}

std::string MetricRegistry::to_json() const {
  std::ostringstream os;
  export_json(os);
  return os.str();
}

}  // namespace nadfs::obs
