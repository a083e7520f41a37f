#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nadfs::workload {

Zipf::Zipf(std::uint64_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  if (s_ <= 0.0 || n_ == 1) return;  // uniform fast path
  cdf_.reserve(static_cast<std::size_t>(n_));
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n_; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s_);
    cdf_.push_back(acc);
  }
  for (auto& c : cdf_) c /= acc;  // normalize to a proper CDF
}

std::uint64_t Zipf::sample(Rng& rng) const {
  if (cdf_.empty()) return rng.next_below(n_);
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

double Stats::goodput_gbps(TimePs duration) const {
  const TimePs horizon = std::max(duration, last_completion);
  if (horizon == 0) return 0.0;
  // bytes * 8 bits / (horizon in ps * 1e-12 s) / 1e9 = bytes * 8000 / ps.
  return static_cast<double>(bytes_ok) * 8000.0 / static_cast<double>(horizon);
}

double Stats::offered_gbps(TimePs duration) const {
  if (duration == 0) return 0.0;
  return static_cast<double>(offered_bytes) * 8000.0 / static_cast<double>(duration);
}

Engine::Engine(services::Cluster& cluster, EngineConfig cfg, std::vector<TenantSpec> tenants)
    : cluster_(cluster), cfg_(cfg), rng_(cfg.seed) {
  if (tenants.empty()) throw std::invalid_argument("workload::Engine: no tenants");
  const auto slots =
      std::max<std::size_t>(1, std::min<std::size_t>(cfg_.client_slots, cluster.client_count()));
  for (std::size_t i = 0; i < slots; ++i) {
    auto client = std::make_unique<services::Client>(cluster_, i);
    if (cfg_.retries != 0 || cfg_.timeout != 0) {
      client->set_retry_policy(cfg_.retries, us(5));
    }
    client->set_timeout(cfg_.timeout);
    clients_.push_back(std::move(client));
  }
  tenants_.reserve(tenants.size());
  for (auto& spec : tenants) {
    Tenant t;
    t.spec = std::move(spec);
    if (t.spec.objects == 0) throw std::invalid_argument("workload::Engine: tenant without objects");
    total_weight_ += std::max(0.0, t.spec.weight);
    t.cum_weight = total_weight_;
    t.zipf = std::make_unique<Zipf>(t.spec.objects, t.spec.zipf_s);
    tenants_.push_back(std::move(t));
  }
  if (total_weight_ <= 0.0) throw std::invalid_argument("workload::Engine: zero total weight");
  stats_.per_tenant_ops.assign(tenants_.size(), 0);
}

Engine::~Engine() = default;

void Engine::setup() {
  if (setup_done_) return;
  setup_done_ = true;
  auto& meta = cluster_.metadata();
  const auto client_id = clients_.front()->client_id();
  for (auto& t : tenants_) {
    t.objects.reserve(t.spec.objects);
    for (unsigned i = 0; i < t.spec.objects; ++i) {
      Object obj;
      obj.name = t.spec.name + "/obj" + std::to_string(i);
      const auto [err, layout] = meta.try_create(obj.name, t.spec.object_size, t.spec.policy);
      if (err != dfs::DfsError::kOk) {
        throw std::runtime_error("workload::Engine: cannot create " + obj.name);
      }
      obj.layout = *layout;
      obj.cap = meta.grant(client_id, obj.layout, auth::Right::kReadWrite);
      t.objects.push_back(std::move(obj));
    }
  }
}

void Engine::run() {
  setup();
  if (cfg_.rate_ops_per_s > 0.0) {
    schedule_open_loop();
  } else {
    start_closed_loop();
  }
  cluster_.sim().run();
}

void Engine::schedule_open_loop() {
  // Thinned (Lewis-Shedler) Poisson process: candidates arrive at the peak
  // rate, each accepted with probability rate(t)/rate_max — exact for the
  // diurnal-modulated rate, and deterministic given the seed because the
  // whole arrival schedule is drawn up front from the engine Rng.
  const double amp = std::clamp(cfg_.diurnal_amplitude, 0.0, 0.999);
  const double rate_max = cfg_.rate_ops_per_s * (1.0 + amp);
  const double mean_gap_ps = 1e12 / rate_max;
  const double period = static_cast<double>(std::max<TimePs>(1, cfg_.diurnal_period));
  std::vector<TimePs> arrivals;
  double t = 0.0;
  while (true) {
    const double u = rng_.next_double();
    t += -std::log(1.0 - u) * mean_gap_ps;
    if (t >= static_cast<double>(cfg_.duration)) break;
    const double phase = 2.0 * 3.14159265358979323846 * t / period;
    const double accept = (1.0 + amp * std::sin(phase)) / (1.0 + amp);
    if (rng_.next_double() >= accept) continue;
    arrivals.push_back(static_cast<TimePs>(t));
  }
  // Pre-draw each arrival's op in arrival order — exactly the order the
  // event loop consumed the Rng when ops were sampled at event time, so
  // the schedule (and every digest) is unchanged.
  for (const TimePs at : arrivals) {
    const PlannedOp op = draw_planned_op();
    cluster_.sim().schedule_at(at, [this, op] { execute_planned(op); });
  }
}

void Engine::start_closed_loop() {
  for (unsigned s = 0; s < std::max(1u, cfg_.concurrency); ++s) issue_session_op(s);
}

void Engine::issue_session_op(unsigned session) {
  if (cluster_.sim().now() >= cfg_.duration) return;  // horizon reached
  issue_one(static_cast<int>(session));
}

Engine::PlannedOp Engine::draw_planned_op() {
  // Sample the flow: tenant by weight, logical user uniformly from the
  // population, object by the tenant's popularity skew, op by the mix.
  PlannedOp p;
  const double w = rng_.next_double() * total_weight_;
  std::size_t ti = 0;
  while (ti + 1 < tenants_.size() && w >= tenants_[ti].cum_weight) ++ti;
  Tenant& tenant = tenants_[ti];
  ++stats_.per_tenant_ops[ti];
  const std::uint64_t user = rng_.next_below(std::max<std::uint64_t>(1, cfg_.users));
  const std::uint64_t oi = tenant.zipf->sample(rng_);
  p.tenant = static_cast<std::uint32_t>(ti);
  p.object = static_cast<std::uint32_t>(oi);
  p.slot = static_cast<std::uint32_t>(user % clients_.size());
  p.fill = static_cast<std::uint8_t>(user ^ oi);

  const OpMix& mix = tenant.spec.mix;
  const double mix_total =
      std::max(1e-12, mix.read + mix.write + mix.append + mix.stat);
  const double pick = rng_.next_double() * mix_total;
  p.len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(tenant.spec.io_bytes, tenant.spec.object_size));

  if (pick >= mix.read + mix.write + mix.append) {
    p.op = 4;  // stat
  } else if (pick < mix.read) {
    p.op = 1;
    p.offset = rng_.next_below(tenant.spec.object_size - p.len + 1);
  } else if (pick < mix.read + mix.write) {
    p.op = 0;
    // EC and whole-object layouts write at offset 0; others anywhere.
    if (tenant.spec.policy.resiliency != dfs::Resiliency::kErasureCoding) {
      p.offset = rng_.next_below(tenant.spec.object_size - p.len + 1);
    }
  } else {
    p.op = 2;  // append
  }
  return p;
}

void Engine::execute_planned(const PlannedOp& p, int session) {
  Tenant& tenant = tenants_[p.tenant];
  Object& obj = tenant.objects[p.object];
  services::Client& client = *clients_[p.slot];
  const std::size_t ti = p.tenant;
  const std::uint64_t oi = p.object;
  const std::uint32_t len = p.len;
  const TimePs issued = cluster_.sim().now();

  if (p.op == 4) {
    // stat: metadata-served, completes inline (no data-plane traffic).
    const auto info = client.stat(obj.name);
    ++stats_.control_ops;
    digest_ += completion_hash(ti, oi, 4, info.length, info.exists ? 0 : 1, issued);
    if (session >= 0) {
      cluster_.sim().schedule(std::max<TimePs>(1, cfg_.think_time),
                              [this, session] { issue_session_op(static_cast<unsigned>(session)); });
    }
    return;
  }

  ++stats_.offered;
  stats_.offered_bytes += len;
  if (p.op == 1) {
    client.read_at(obj.layout, obj.cap, p.offset, len,
                   services::ReadCb([this, ti, oi, len, session, issued](dfs::DfsError err, Bytes,
                                                                         TimePs at) {
                     complete(ti, oi, 1, len, session, err, issued, at);
                   }));
    return;
  }

  Bytes data(len, p.fill);
  auto on_done = [this, ti, oi, len, session, issued](unsigned op) {
    return services::OpCb([this, ti, oi, op, len, session, issued](dfs::DfsError err, TimePs at) {
      complete(ti, oi, op, len, session, err, issued, at);
    });
  };
  if (p.op == 0) {
    client.write_at(obj.layout, obj.cap, p.offset, std::move(data), on_done(0));
    return;
  }
  client.append(obj.name, obj.cap, std::move(data), on_done(2));
}

void Engine::issue_one(int session) { execute_planned(draw_planned_op(), session); }

void Engine::complete(std::size_t tenant_idx, std::uint64_t object_idx, unsigned op,
                      std::uint32_t bytes, int session, dfs::DfsError err, TimePs issued,
                      TimePs at) {
  if (err == dfs::DfsError::kOk) {
    ++stats_.completed;
    stats_.bytes_ok += bytes;
    if (cfg_.goodput_window > 0) {
      // Per-window goodput bucket (rolling-restart dip observable),
      // invisible to digests.
      auto& timeline = stats_.goodput_timeline;
      const std::size_t w = static_cast<std::size_t>(at / cfg_.goodput_window);
      if (timeline.size() <= w) timeline.resize(w + 1, 0);
      timeline[w] += bytes;
    }
    const TimePs lat = at - issued;
    stats_.sum_latency += lat;
    stats_.max_latency = std::max(stats_.max_latency, lat);
  } else {
    ++stats_.failed;
    const auto code = static_cast<std::size_t>(err);
    if (code < stats_.by_error.size()) ++stats_.by_error[code];
  }
  stats_.last_completion = std::max(stats_.last_completion, at);
  digest_ += completion_hash(tenant_idx, object_idx, op, bytes, static_cast<std::uint64_t>(err),
                             at);
  if (session >= 0) {
    cluster_.sim().schedule(std::max<TimePs>(1, cfg_.think_time),
                            [this, session] { issue_session_op(static_cast<unsigned>(session)); });
  }
}

std::uint64_t Engine::completion_hash(std::uint64_t tenant, std::uint64_t object,
                                      std::uint64_t op, std::uint64_t bytes, std::uint64_t err,
                                      std::uint64_t at) {
  // FNV-1a over the completion record; callers *sum* the hashes into the
  // digest so the fold is order-insensitive (completion *times* still pin
  // the schedule).
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : {tenant, object, op, bytes, err, at}) {
    for (unsigned i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace nadfs::workload
