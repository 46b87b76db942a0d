#include "net/conditions.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/rng.h"
#include "util/spec.h"

namespace garfield::net {

namespace {

std::uint64_t splitmix(std::uint64_t z) {
  return tensor::splitmix64_mix(z + 0x9e3779b97f4a7c15ULL);
}

/// Window predicate shared by every windowed clause: active from
/// from_iter for len iterations (len = 0 => open-ended).
bool window_active(std::uint64_t from_iter, std::uint64_t len,
                   std::uint64_t iteration) {
  if (iteration < from_iter) return false;
  return len == 0 || iteration - from_iter < len;
}

/// Last clause in spec order whose window covers `iteration` (the shared
/// multi-window resolution rule), or nullptr.
template <typename Clause>
const Clause* last_active(const std::vector<Clause>& clauses,
                          std::uint64_t iteration) {
  const Clause* found = nullptr;
  for (const Clause& c : clauses) {
    if (window_active(c.from_iter, c.len, iteration)) found = &c;
  }
  return found;
}

NodeRange range_option(const util::SpecOptions& options,
                       const std::string& key, const std::string& clause) {
  const std::string raw = options.get_string(key, "");
  if (raw.empty()) {
    throw std::invalid_argument("network spec: clause '" + clause +
                                "' requires option '" + key + "'");
  }
  return parse_node_range(raw, "network spec: " + clause + ":" + key);
}

double probability_option(const util::SpecOptions& options,
                          const std::string& key) {
  const double p = options.get_double(key, 0.0);
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("network spec: fault " + key +
                                " must be a probability in [0, 1), got " +
                                std::to_string(p));
  }
  return p;
}

/// FNV-1a over the method bytes (std::hash is implementation-defined,
/// which would make "deterministic" verdicts vary across stdlibs).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ std::uint64_t(std::uint8_t(c))) * 0x100000001b3ULL;
  }
  return h;
}

/// One uniform draw in [0, 1) from the (seed, edge, method, iteration,
/// attempt, salt) tuple — the fault plane's entire source of randomness,
/// replayable by construction.
double fault_uniform(std::uint64_t seed, std::size_t from, std::size_t to,
                     std::uint64_t method_hash, std::uint64_t iteration,
                     std::uint32_t attempt, std::uint64_t salt) {
  std::uint64_t h = splitmix(seed ^ salt);
  h = splitmix(h ^ (std::uint64_t(from) << 32) ^ std::uint64_t(to));
  h = splitmix(h ^ method_hash);
  h = splitmix(h ^ iteration);
  h = splitmix(h ^ std::uint64_t(attempt));
  // 53 mantissa bits -> uniform in [0, 1).
  return double(h >> 11) * 0x1.0p-53;
}

/// Salts decorrelating the fault draw from the spike draw (and both from
/// the jitter hash, which mixes no salt at all).
constexpr std::uint64_t kFaultSalt = 0xf417'1d0e'5eed'0001ULL;
constexpr std::uint64_t kSpikeSalt = 0xf417'1d0e'5eed'0002ULL;

}  // namespace

NodeRange parse_node_range(const std::string& text,
                           const std::string& context) {
  const auto parse_id = [&](const std::string& part) -> std::size_t {
    try {
      if (part.empty() || part.front() == '-' || part.front() == '+') {
        throw std::invalid_argument(part);
      }
      std::size_t pos = 0;
      const unsigned long long v = std::stoull(part, &pos);
      if (pos != part.size()) throw std::invalid_argument(part);
      return std::size_t(v);
    } catch (const std::exception&) {
      throw std::invalid_argument(context + ": expected a node id or "
                                  "lo-hi range, got '" + text + "'");
    }
  };
  NodeRange range;
  const auto dash = text.find('-');
  if (dash == std::string::npos) {
    range.lo = range.hi = parse_id(text);
  } else {
    range.lo = parse_id(text.substr(0, dash));
    range.hi = parse_id(text.substr(dash + 1));
  }
  if (range.lo > range.hi) {
    throw std::invalid_argument(context + ": inverted range '" + text + "'");
  }
  return range;
}

NetworkConditions NetworkConditions::parse(const std::string& spec) {
  NetworkConditions out;
  out.spec_ = spec;
  if (spec.empty()) return out;

  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const auto semi = spec.find(';', begin);
    const std::string clause_text =
        spec.substr(begin, semi == std::string::npos ? std::string::npos
                                                     : semi - begin);
    if (clause_text.empty()) {
      throw std::invalid_argument("network spec: empty clause in '" + spec +
                                  "'");
    }
    util::ParsedSpec clause = util::parse_spec(clause_text, "network spec");
    const util::SpecOptions& opt = clause.options;
    if (clause.name == "wan") {
      // Repeatable: each occurrence is one windowed phase; the last
      // active phase in spec order binds (base + windowed overrides).
      Wan wan;
      wan.latency = opt.get_duration("latency", Duration{0});
      wan.jitter = opt.get_duration("jitter", Duration{0});
      wan.byte_rate = opt.get_byte_rate("bw", 0.0);
      wan.from_iter = opt.get_size("from_iter", 0);
      wan.len = opt.get_size("len", 0);
      out.wan_.push_back(wan);
    } else if (clause.name == "hetero") {
      if (out.hetero_) {
        throw std::invalid_argument(
            "network spec: duplicate 'hetero' clause");
      }
      Hetero hetero;
      hetero.slow_links = range_option(opt, "slow_links", "hetero");
      hetero.factor = opt.get_double("factor", hetero.factor);
      if (hetero.factor < 1.0) {
        throw std::invalid_argument(
            "network spec: hetero factor must be >= 1");
      }
      out.hetero_ = hetero;
    } else if (clause.name == "link") {
      // Repeatable: each occurrence overrides the edges touching its node
      // set; where overrides overlap, the slowest rate wins at query time.
      LinkOverride link;
      link.nodes = range_option(opt, "nodes", "link");
      if (!opt.contains("bw")) {
        throw std::invalid_argument(
            "network spec: link clause requires 'bw=' (e.g. "
            "link:nodes=0-1,bw=200Mbps)");
      }
      link.byte_rate = opt.get_byte_rate("bw", 0.0);
      out.links_.push_back(link);
    } else if (clause.name == "straggler") {
      // Repeatable: each occurrence is one windowed phase.
      Straggler straggler;
      straggler.nodes = range_option(opt, "nodes", "straggler");
      straggler.lag = opt.get_duration("lag", Duration{50'000});
      straggler.from_iter = opt.get_size("from_iter", 0);
      straggler.len = opt.get_size("len", 0);
      out.stragglers_.push_back(straggler);
    } else if (clause.name == "partition") {
      // Repeatable: each occurrence is one windowed cut.
      Partition partition;
      partition.a = range_option(opt, "a", "partition");
      partition.b = range_option(opt, "b", "partition");
      partition.from_iter = opt.get_size("from_iter", 0);
      partition.len = opt.get_size("len", 0);
      partition.lag = opt.get_duration("lag", partition.lag);
      if (partition.a.hi >= partition.b.lo && partition.b.hi >= partition.a.lo) {
        throw std::invalid_argument(
            "network spec: partition groups overlap");
      }
      out.partitions_.push_back(partition);
    } else if (clause.name == "churn") {
      // Repeatable: each occurrence is one scheduled membership event (a
      // crash window or a join).
      ChurnEvent event;
      const bool has_crash = opt.contains("crash");
      const bool has_join = opt.contains("join");
      if (has_crash == has_join) {
        throw std::invalid_argument(
            "network spec: churn clause needs exactly one of 'crash=' or "
            "'join='");
      }
      event.join = has_join;
      event.nodes = range_option(opt, has_join ? "join" : "crash", "churn");
      event.at_iter = opt.get_size("at_iter", 0);
      if (has_join && opt.contains("recover_after")) {
        throw std::invalid_argument(
            "network spec: churn join has no 'recover_after' (a join IS "
            "the recovery)");
      }
      event.recover_after = opt.get_size("recover_after", 0);
      out.churn_.push_back(event);
    } else if (clause.name == "fault") {
      if (out.fault_) {
        throw std::invalid_argument("network spec: duplicate 'fault' clause");
      }
      Fault fault;
      fault.drop = probability_option(opt, "drop");
      fault.corrupt = probability_option(opt, "corrupt");
      fault.dup = probability_option(opt, "dup");
      fault.spike = probability_option(opt, "spike");
      fault.delay_spike = opt.get_duration("delay_spike", Duration{0});
      if (fault.drop + fault.corrupt + fault.dup >= 1.0) {
        throw std::invalid_argument(
            "network spec: fault drop+corrupt+dup must stay below 1 (the "
            "verdicts are mutually exclusive per attempt)");
      }
      if ((fault.spike > 0.0) != (fault.delay_spike.count() > 0)) {
        throw std::invalid_argument(
            "network spec: fault delay spikes need both 'spike=' "
            "(probability) and 'delay_spike=' (duration)");
      }
      if (fault.drop == 0.0 && fault.corrupt == 0.0 && fault.dup == 0.0 &&
          fault.spike == 0.0) {
        throw std::invalid_argument(
            "network spec: fault clause injects nothing — set at least one "
            "of drop/corrupt/dup/spike");
      }
      if (opt.contains("edges")) {
        fault.edges = range_option(opt, "edges", "fault");
      }
      fault.from_iter = opt.get_size("from_iter", 0);
      fault.len = opt.get_size("len", 0);
      out.fault_ = fault;
    } else {
      throw std::invalid_argument("network spec: unknown clause '" +
                                  clause.name + "' in '" + spec + "'");
    }
    const std::vector<std::string> stray = opt.unconsumed();
    if (!stray.empty()) {
      throw std::invalid_argument("network spec: clause '" + clause.name +
                                  "' has unknown option '" + stray.front() +
                                  "'");
    }
    if (semi == std::string::npos) break;
    begin = semi + 1;
  }
  return out;
}

void NetworkConditions::validate(std::size_t nodes) const {
  const auto check = [&](const NodeRange& range, const char* what) {
    if (range.hi >= nodes) {
      throw std::invalid_argument(
          "network spec: " + std::string(what) + " references node " +
          std::to_string(range.hi) + " but the deployment has only " +
          std::to_string(nodes) + " nodes");
    }
  };
  if (hetero_) check(hetero_->slow_links, "hetero slow_links");
  for (const LinkOverride& l : links_) check(l.nodes, "link nodes");
  for (const Straggler& s : stragglers_) check(s.nodes, "straggler nodes");
  for (const Partition& p : partitions_) {
    check(p.a, "partition group a");
    check(p.b, "partition group b");
  }
  for (const ChurnEvent& e : churn_) {
    check(e.nodes, e.join ? "churn join" : "churn crash");
  }
  if (fault_ && fault_->edges) check(*fault_->edges, "fault edges");
}

const NetworkConditions::Wan* NetworkConditions::active_wan(
    std::uint64_t iteration) const {
  return last_active(wan_, iteration);
}

const NetworkConditions::Straggler* NetworkConditions::active_straggler(
    std::uint64_t iteration) const {
  return last_active(stragglers_, iteration);
}

const NetworkConditions::Partition* NetworkConditions::active_partition(
    std::uint64_t iteration) const {
  return last_active(partitions_, iteration);
}

bool NetworkConditions::partitioned(std::size_t x, std::size_t y,
                                    std::uint64_t iteration) const {
  const Partition* p = active_partition(iteration);
  if (p == nullptr) return false;
  return (p->a.contains(x) && p->b.contains(y)) ||
         (p->b.contains(x) && p->a.contains(y));
}

double NetworkConditions::wan_byte_rate(std::uint64_t iteration) const {
  const Wan* w = active_wan(iteration);
  return w ? w->byte_rate : 0.0;
}

double NetworkConditions::link_rate_touching(std::size_t node) const {
  double rate = 0.0;
  for (const LinkOverride& l : links_) {
    if (!l.nodes.contains(node)) continue;
    rate = rate > 0.0 ? std::min(rate, l.byte_rate) : l.byte_rate;
  }
  return rate;
}

double NetworkConditions::byte_rate(std::size_t from, std::size_t to,
                                    std::uint64_t iteration) const {
  double rate = wan_byte_rate(iteration);
  for (const LinkOverride& l : links_) {
    if (!l.nodes.contains(from) && !l.nodes.contains(to)) continue;
    rate = rate > 0.0 ? std::min(rate, l.byte_rate) : l.byte_rate;
  }
  if (rate > 0.0 && hetero_ && (is_slow(from) || is_slow(to))) {
    rate /= hetero_->factor;
  }
  return rate;
}

bool NetworkConditions::fault_active(std::size_t from, std::size_t to,
                                     std::uint64_t iteration) const {
  if (!fault_) return false;
  if (!window_active(fault_->from_iter, fault_->len, iteration)) return false;
  if (fault_->edges &&
      !(fault_->edges->contains(from) || fault_->edges->contains(to))) {
    return false;
  }
  return true;
}

NetworkConditions::FaultVerdict NetworkConditions::fault_verdict(
    std::size_t from, std::size_t to, const std::string& method,
    std::uint64_t iteration, std::uint64_t seed, std::uint32_t attempt,
    std::optional<std::uint64_t> window_iteration) const {
  FaultVerdict verdict;
  const std::uint64_t window = window_iteration.value_or(iteration);
  if (!fault_active(from, to, window)) return verdict;
  const std::uint64_t method_hash = fnv1a(method);
  // One draw decides drop/corrupt/dup (mutually exclusive, drop >
  // corrupt > dup precedence); an independent salted draw decides the
  // delay spike. `iteration` (not `window`) keys the draws so gossip
  // rounds sharing one training iteration still fault independently.
  const double u = fault_uniform(seed, from, to, method_hash, iteration,
                                 attempt, kFaultSalt);
  if (u < fault_->drop) {
    verdict.drop = true;
  } else if (u < fault_->drop + fault_->corrupt) {
    verdict.corrupt = true;
  } else if (u < fault_->drop + fault_->corrupt + fault_->dup) {
    verdict.dup = true;
  }
  if (fault_->spike > 0.0) {
    const double s = fault_uniform(seed, from, to, method_hash, iteration,
                                   attempt, kSpikeSalt);
    if (s < fault_->spike) verdict.spike_delay = fault_->delay_spike;
  }
  return verdict;
}

bool NetworkConditions::churn_down(std::size_t node,
                                   std::uint64_t iteration) const {
  for (const ChurnEvent& e : churn_) {
    if (!e.nodes.contains(node)) continue;
    if (e.join) {
      if (iteration < e.at_iter) return true;
    } else if (iteration >= e.at_iter &&
               (e.recover_after == 0 ||
                iteration - e.at_iter < e.recover_after)) {
      return true;
    }
  }
  return false;
}

std::optional<std::uint64_t> NetworkConditions::next_up_iteration(
    std::size_t node, std::uint64_t iteration) const {
  if (!churn_down(node, iteration)) return iteration;
  // No transition can lift the node past the last scheduled up-edge that
  // covers it; scanning to that horizon is exact even when several down
  // windows overlap.
  std::uint64_t horizon = iteration;
  for (const ChurnEvent& e : churn_) {
    if (!e.nodes.contains(node)) continue;
    const std::uint64_t up = e.join ? e.at_iter
                             : e.recover_after == 0
                                 ? 0
                                 : e.at_iter + e.recover_after;
    horizon = std::max(horizon, up);
  }
  for (std::uint64_t t = iteration + 1; t <= horizon; ++t) {
    if (!churn_down(node, t)) return t;
  }
  return std::nullopt;
}

std::size_t NetworkConditions::count_down(std::size_t lo, std::size_t hi,
                                          std::uint64_t iteration) const {
  if (churn_.empty()) return 0;
  std::size_t down = 0;
  for (std::size_t node = lo; node < hi; ++node) {
    if (churn_down(node, iteration)) ++down;
  }
  return down;
}

NetworkConditions::Duration NetworkConditions::jitter_for(
    std::size_t from, std::size_t to, const std::string& method,
    std::uint64_t iteration, std::uint64_t seed,
    std::optional<std::uint64_t> window_iteration) const {
  const Duration magnitude = jitter(window_iteration.value_or(iteration));
  if (magnitude.count() <= 0) return Duration{0};
  const std::uint64_t method_hash = fnv1a(method);
  std::uint64_t h = splitmix(seed);
  h = splitmix(h ^ (std::uint64_t(from) << 32) ^ std::uint64_t(to));
  h = splitmix(h ^ method_hash);
  h = splitmix(h ^ iteration);
  // 53 mantissa bits -> uniform in [0, 1).
  const double u = double(h >> 11) * 0x1.0p-53;
  return Duration{std::int64_t(u * double(magnitude.count()))};
}

NetworkConditions::Duration NetworkConditions::delay(
    std::size_t from, std::size_t to, const std::string& method,
    std::uint64_t iteration, std::uint64_t seed,
    std::optional<std::uint64_t> window_iteration) const {
  const std::uint64_t window = window_iteration.value_or(iteration);
  std::int64_t us =
      latency(window).count() +
      jitter_for(from, to, method, iteration, seed, window).count();
  if (hetero_ && (is_slow(from) || is_slow(to))) {
    us = std::int64_t(double(us) * hetero_->factor);
  }
  // The *serving* node straggles: every reply it crafts leaves late —
  // the live twin of a per-callee service delay.
  if (is_straggling(to, window)) us += active_straggler(window)->lag.count();
  if (partitioned(from, to, window)) {
    us += active_partition(window)->lag.count();
  }
  return Duration{us};
}

}  // namespace garfield::net
