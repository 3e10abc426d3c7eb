#include "serve/registry.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "fault/failpoint.h"
#include "util/table.h"

namespace vsq {
ModelRegistry::ModelRegistry(ServeConfig cfg) : cfg_(cfg) {}

ModelRegistry::~ModelRegistry() {
  // Destroy outside the lock: session destructors join their batcher
  // threads, which may still be resolving promises client threads wait on.
  std::map<std::string, std::shared_ptr<InferenceSession>> doomed;
  {
    std::unique_lock lock(mu_);
    doomed.swap(sessions_);
  }
  for (auto& [name, s] : doomed) s->shutdown();
}

void ModelRegistry::load(const std::string& name, QuantizedModelPackage pkg) {
  // Construct before taking the map lock: session construction runs the
  // warmup forward pass (milliseconds), and loading one model must not
  // stall routing for the models already serving. The name reservation is
  // checked twice — optimistically first so a duplicate fails before the
  // expensive construction, then authoritatively at insert.
  if (contains(name)) {
    throw std::invalid_argument("ModelRegistry: model already serving: " + name);
  }
  auto session = std::make_shared<InferenceSession>(std::move(pkg), cfg_);
  bool inserted = false;
  {
    std::unique_lock lock(mu_);
    // Insert a copy of the handle: on a lost race nothing is moved-from,
    // and the loser session is torn down (batcher stop + join) AFTER the
    // lock is released — destroying it inside the map under mu_ would
    // stall routing for every other model for the join's duration.
    inserted = sessions_.try_emplace(name, session).second;
  }
  if (!inserted) {
    session->shutdown();
    throw std::invalid_argument("ModelRegistry: model already serving: " + name);
  }
}

void ModelRegistry::load_file(const std::string& name, const std::string& path) {
  load(name, QuantizedModelPackage::load(path));
}

bool ModelRegistry::unload(const std::string& name) {
  std::shared_ptr<InferenceSession> victim;
  {
    std::unique_lock lock(mu_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) return false;
    victim = std::move(it->second);
    sessions_.erase(it);
    // Park the session in draining_ for the duration of the drain, so a
    // concurrent stats()/stats_all() never sees the model vanish (the
    // drain can take as long as the queued work) — only routing stops.
    draining_[name].push_back(victim);
  }
  drain_and_retire(name, victim);
  return true;
}

void ModelRegistry::drain_and_retire(const std::string& name,
                                     const std::shared_ptr<InferenceSession>& victim) {
  // Drain outside the lock: shutdown() blocks until the queue is empty and
  // the batcher joined, and routing to other models must continue
  // meanwhile. Clients that pinned the session via session() can still
  // read stats; their next submit throws.
  victim->shutdown();
  // Retire the final snapshot so stats stay cumulative across hot reloads
  // of the same name. The session is drained and frozen after shutdown(),
  // so the snapshot (a copy of its counters and latency histogram, with
  // the quantiles computed from it) is taken BEFORE the lock — only the
  // draining_ -> retired_ publication needs it, and that move is atomic
  // from a reader's point of view.
  const ServeStatsSnapshot last = victim->stats();
  {
    std::unique_lock lock(mu_);
    auto& parked = draining_[name];
    parked.erase(std::remove(parked.begin(), parked.end(), victim), parked.end());
    if (parked.empty()) draining_.erase(name);
    retired_[name].merge(last);
  }
}

void ModelRegistry::reload(const std::string& name, QuantizedModelPackage pkg) {
  // Rollback-safe hot reload: the REPLACEMENT session is fully constructed
  // (runner built, batcher warmed) before the old one leaves routing. Any
  // failure up to the swap — construction throw, injected fault — leaves
  // the old session serving untouched; there is no unloaded gap like the
  // unload-then-load idiom has. A name that is not currently serving
  // degrades to a plain load, so reload is also the crash-safe way to
  // (re)install a model unconditionally.
  auto replacement = std::make_shared<InferenceSession>(std::move(pkg), cfg_);
  // Simulates a failure after the expensive construction but before the
  // swap (the last instant rollback must still hold).
  try {
    VSQ_FAILPOINT("serve.registry.reload");
  } catch (...) {
    replacement->shutdown();
    throw;
  }
  std::shared_ptr<InferenceSession> old;
  {
    std::unique_lock lock(mu_);
    auto& slot = sessions_[name];
    old = std::move(slot);
    slot = replacement;
    if (old) draining_[name].push_back(old);
  }
  if (old) drain_and_retire(name, old);
}

void ModelRegistry::reload_file(const std::string& name, const std::string& path) {
  // QuantizedModelPackage::load throws on corrupt/invalid archives BEFORE
  // any registry state changes — the old model keeps serving through a
  // failed reload, which is the load_file rollback contract.
  reload(name, QuantizedModelPackage::load(path));
}

bool ModelRegistry::contains(const std::string& name) const {
  std::shared_lock lock(mu_);
  return sessions_.count(name) > 0;
}

std::size_t ModelRegistry::size() const {
  std::shared_lock lock(mu_);
  return sessions_.size();
}

std::vector<std::string> ModelRegistry::models() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, _] : sessions_) out.push_back(name);
  return out;
}

std::shared_ptr<InferenceSession> ModelRegistry::find(const std::string& name) const {
  std::shared_lock lock(mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<InferenceSession> ModelRegistry::session(const std::string& name) const {
  return find(name);
}

std::future<Tensor> ModelRegistry::submit(const std::string& name, const Tensor& input) {
  const auto s = find(name);
  if (!s) throw std::out_of_range("ModelRegistry: model not loaded: " + name);
  try {
    return s->submit(input);
  } catch (const UnavailableError&) {
    // A concurrent reload swapped `s` out and closed its queue between
    // find() and submit(): the name already routes to the replacement.
    const auto now = find(name);
    if (!now || now == s) throw;
    return now->submit(input);
  }
}

Tensor ModelRegistry::infer(const std::string& name, const Tensor& input) {
  return submit(name, input).get();
}

ServeStatsSnapshot ModelRegistry::stats(const std::string& name) const {
  // Pin live + draining sessions and copy the retired snapshot under ONE
  // lock acquisition: pinning first and reading retired_ later would let
  // a concurrent unload() retire the very window we pinned, double-
  // counting it in the merge. A retirement that happens after we release
  // the lock is harmless — it is not in our retired copy, and the pinned
  // session's own stats() carries that whole window.
  std::shared_ptr<InferenceSession> s;
  std::vector<std::shared_ptr<InferenceSession>> draining;
  std::optional<ServeStatsSnapshot> retired;
  {
    std::shared_lock lock(mu_);
    if (const auto it = sessions_.find(name); it != sessions_.end()) s = it->second;
    if (const auto it = draining_.find(name); it != draining_.end()) draining = it->second;
    if (const auto it = retired_.find(name); it != retired_.end()) retired = it->second;
  }
  if (!s && !retired && draining.empty()) {
    throw std::out_of_range("ModelRegistry: model never served: " + name);
  }
  ServeStatsSnapshot merged = retired.value_or(ServeStatsSnapshot{});
  for (const auto& d : draining) merged.merge(d->stats());
  if (s) merged.merge(s->stats());
  return merged;
}

std::map<std::string, ServeStatsSnapshot> ModelRegistry::stats_all() const {
  // Copy the session sets + retired map under the lock, read live stats
  // outside it (each session's snapshot takes its own stats mutex).
  std::map<std::string, std::shared_ptr<InferenceSession>> live;
  std::map<std::string, std::vector<std::shared_ptr<InferenceSession>>> draining;
  std::map<std::string, ServeStatsSnapshot> acc;
  {
    std::shared_lock lock(mu_);
    live = sessions_;
    draining = draining_;
    acc = retired_;
  }
  for (const auto& [name, parked] : draining) {
    for (const auto& d : parked) acc[name].merge(d->stats());
  }
  for (const auto& [name, s] : live) acc[name].merge(s->stats());
  // Names that served earlier but are currently unloaded still report.
  return acc;
}

void ModelRegistry::print_stats(std::ostream& os) const {
  const std::map<std::string, ServeStatsSnapshot> all = stats_all();
  Table t({"Model", "Requests", "Batches", "Mean batch", "Cache hits", "Errors", "Shed",
           "Expired", "Restarts", "Queue", "Throughput r/s", "p50 us", "p95 us", "p99 us",
           "Packed wt KiB"});
  std::uint64_t requests = 0, batches = 0, hits = 0, errors = 0, shed = 0, expired = 0,
                restarts = 0, queued = 0, packed = 0;
  double rps = 0.0;
  for (const auto& [name, s] : all) {
    t.add_row({name, std::to_string(s.requests), std::to_string(s.batches),
               Table::num(s.mean_batch, 2), std::to_string(s.cache_hits),
               std::to_string(s.errors), std::to_string(s.shed),
               std::to_string(s.deadline_expired), std::to_string(s.worker_restarts),
               std::to_string(s.queue_depth), Table::num(s.throughput_rps, 1),
               Table::num(s.p50_us, 1), Table::num(s.p95_us, 1), Table::num(s.p99_us, 1),
               Table::num(static_cast<double>(s.packed_weight_bytes) / 1024.0, 1)});
    requests += s.requests;
    batches += s.batches;
    hits += s.cache_hits;
    errors += s.errors;
    shed += s.shed;
    expired += s.deadline_expired;
    restarts += s.worker_restarts;
    queued += s.queue_depth;
    rps += s.throughput_rps;
    packed += s.packed_weight_bytes;
  }
  t.add_row({"TOTAL", std::to_string(requests), std::to_string(batches), "-",
             std::to_string(hits), std::to_string(errors), std::to_string(shed),
             std::to_string(expired), std::to_string(restarts), std::to_string(queued),
             Table::num(rps, 1), "-", "-", "-",
             Table::num(static_cast<double>(packed) / 1024.0, 1)});
  t.print(os);
}

}  // namespace vsq
