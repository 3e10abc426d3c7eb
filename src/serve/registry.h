// ModelRegistry: the multi-model serving front door. Hosts N independently
// batched InferenceSessions — one per loaded QuantizedModelPackage (MLP
// and CNN programs alike) — routes requests by model name, aggregates
// per-model ServeStats, and supports hot load/unload while traffic is in
// flight: unload() drains the model's queue and joins its batcher before
// returning, so every accepted request still resolves, while clients that
// race the removal get a clean exception instead of a hang.
//
//   ModelRegistry reg;
//   reg.load("tiny", tiny_mlp_package(mac));
//   reg.load_file("cnn", "artifacts/tiny_conv_int.vsqa");
//   Tensor y = reg.infer("tiny", input_row);
//   reg.unload("cnn");            // drains, joins, removes
//   reg.print_stats(std::cout);   // one row per model + a TOTAL row
//
// Thread model: all methods are safe to call concurrently. Sessions are
// shared_ptr-owned; submit()/infer() pin the session for the duration of
// the call, so a concurrent unload never destroys a session mid-request —
// the unloader drains it first (InferenceSession::shutdown), and requests
// that arrive after the queue closed throw UnavailableError.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "serve/session.h"

namespace vsq {

// Per-model stats row returned by stats_all().
struct RegistryModelStats {
  std::string name;
  ServeStatsSnapshot serve;
  IntGemmStats datapath;  // all-zero unless the model collects datapath stats
};

class ModelRegistry {
 public:
  // `default_cfg` applies to loads that do not pass their own ServeConfig.
  explicit ModelRegistry(ServeConfig default_cfg = {});
  ~ModelRegistry();  // shuts down every session (drains + joins)

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Spin up a session (its own batcher thread) serving `pkg` under `name`.
  // Throws std::invalid_argument when the name is already serving or the
  // package has no runnable program. Reusing a name after unload() is the
  // hot-reload path and is fine.
  void load(const std::string& name, QuantizedModelPackage pkg);
  void load(const std::string& name, QuantizedModelPackage pkg, const ServeConfig& cfg);

  // Load from a .vsqa archive. Corrupt archives throw (Archive::load /
  // QuantizedModelPackage::load validate everything) without disturbing
  // the models already serving.
  void load_file(const std::string& name, const std::string& path);
  void load_file(const std::string& name, const std::string& path, const ServeConfig& cfg);

  // Remove `name` from routing, drain its queue, join its batcher. Every
  // request accepted before the drain still resolves. Returns false when
  // the name is not serving (nothing happens).
  bool unload(const std::string& name);

  // Rollback-safe hot reload: build a replacement session for `name`, swap
  // it into routing only once fully constructed, then drain + retire the
  // old one. On ANY failure before the swap (corrupt archive, validation
  // error, injected fault) the old model keeps serving untouched and the
  // exception propagates — there is never an unloaded gap, unlike the
  // unload-then-load idiom. A name not currently serving degrades to a
  // plain load.
  void reload(const std::string& name, QuantizedModelPackage pkg);
  void reload(const std::string& name, QuantizedModelPackage pkg, const ServeConfig& cfg);
  void reload_file(const std::string& name, const std::string& path);
  void reload_file(const std::string& name, const std::string& path, const ServeConfig& cfg);

  bool contains(const std::string& name) const;
  std::size_t size() const;
  std::vector<std::string> models() const;  // sorted names

  // Route one request to `name`'s session. Throws std::out_of_range when
  // the model is not loaded, UnavailableError when it is shutting down,
  // std::invalid_argument on a wrong input shape. A request that loses a
  // race with reload() (its session closed after the lookup) is submitted
  // once more to the replacement, so a reload opens no service gap.
  std::future<Tensor> submit(const std::string& name, const Tensor& input);
  Tensor infer(const std::string& name, const Tensor& input);

  // Pin a session for repeated use (e.g. a client loop that does not want
  // the name lookup per request). May outlive an unload; submitting to an
  // unloaded session throws. nullptr when the model is not loaded.
  std::shared_ptr<InferenceSession> session(const std::string& name) const;

  // Per-model stats, name-sorted, cumulative across hot reloads: when a
  // model is unloaded its final (post-drain) snapshot is retired and
  // merged into any later serving of the same name
  // (ServeStatsSnapshot::merge), so its latency quantiles cover every
  // request the name served. stats(name) throws std::out_of_range when
  // the name never served.
  ServeStatsSnapshot stats(const std::string& name) const;
  std::vector<RegistryModelStats> stats_all() const;

  // Aligned table: one row per model plus a TOTAL row (request/batch/hit
  // counts summed, throughput summed). The TOTAL row leaves the latency
  // quantiles blank: a quantile across models would mix the latencies of
  // different models, which describes none of them.
  void print_stats(std::ostream& os) const;

 private:
  std::shared_ptr<InferenceSession> find(const std::string& name) const;
  // Shared tail of unload()/reload(): drain the session outside the lock,
  // then publish its final snapshot into retired_.
  void drain_and_retire(const std::string& name,
                        const std::shared_ptr<InferenceSession>& victim);

  ServeConfig default_cfg_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<InferenceSession>> sessions_;
  // Sessions removed from routing but still draining (unload() in
  // flight): invisible to submit/contains, still visible to stats. Each
  // serving WINDOW (session) lives in exactly one of sessions_ /
  // draining_ / a retired_ summary at any lock-held instant, so stats
  // readers never double-count one — a NAME, however, may legitimately
  // appear in sessions_ and draining_ at once when a hot reload races an
  // unfinished drain.
  std::map<std::string, std::vector<std::shared_ptr<InferenceSession>>> draining_;
  // Final snapshots of unloaded sessions, merged per name (see stats()).
  std::map<std::string, ServeStatsSnapshot> retired_;
};

}  // namespace vsq
