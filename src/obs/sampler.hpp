// sim::Periodic-driven timeseries sampler: polls registered probes
// (queue depths, HPU occupancy, egress credits, pending client ops, any
// gauge) on a fixed simulated cadence and keeps the rows for CSV/JSON
// export after the run.
//
// Unlike counters and span tracing, sampling *does* schedule simulator
// events (one per tick), so a sampled run executes more events than an
// unsampled one — domain observables are untouched (ticks only read
// state), but executed_events() differs. Digest-sensitive tests should
// digest domain state only, or leave the sampler off; see DESIGN.md §3c.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"

namespace nadfs::obs {

class Sampler {
 public:
  explicit Sampler(sim::Simulator& sim) : sim_(sim), ticker_(sim) {}

  /// Register a probe before start(); polled once per tick.
  void add_probe(std::string name, std::function<double()> fn) {
    names_.push_back(std::move(name));
    probes_.push_back(std::move(fn));
  }

  /// Sample every `interval` of simulated time, first row one interval
  /// from now. Stop (or destroy) before expecting the event queue to
  /// drain — see sim::Periodic.
  void start(TimePs interval) {
    ticker_.start(interval, [this] { sample_now(); });
  }

  void stop() { ticker_.stop(); }
  bool running() const { return ticker_.running(); }

  /// Take one row immediately (also usable without start()).
  void sample_now() {
    Row row;
    row.t_ps = sim_.now();
    row.v.reserve(probes_.size());
    for (const auto& p : probes_) row.v.push_back(p());
    rows_.push_back(std::move(row));
  }

  struct Row {
    TimePs t_ps = 0;
    std::vector<double> v;
  };

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// CSV: header "t_ns,<probe>,..." then one row per sample.
  void export_csv(std::ostream& os) const {
    os << "t_ns";
    for (const auto& n : names_) os << "," << n;
    os << "\n";
    for (const Row& r : rows_) {
      os << (r.t_ps / 1000);
      for (double v : r.v) os << "," << v;
      os << "\n";
    }
  }

  /// JSON: {"series":["t_ns","<probe>",...],"rows":[[t_ns,v,...],...]}
  void export_json(std::ostream& os) const {
    os << "{\"series\":[\"t_ns\"";
    for (const auto& n : names_) os << ",\"" << n << "\"";
    os << "],\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i ? ",\n" : "\n") << "[" << (rows_[i].t_ps / 1000);
      for (double v : rows_[i].v) os << "," << v;
      os << "]";
    }
    os << (rows_.empty() ? "]}" : "\n]}");
  }

 private:
  sim::Simulator& sim_;
  sim::Periodic ticker_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> probes_;
  std::vector<Row> rows_;
};

}  // namespace nadfs::obs
