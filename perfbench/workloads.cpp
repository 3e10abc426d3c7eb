// The three serving workloads. Each sets up from its archives to the first
// OK response, then drives one timed phase of traffic and records what the
// client saw. Inputs come from the seeded pools in ServedModel; nothing is
// generated on the clock. NOTES.md says why each workload exists.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using vsq::InferenceSession;
using vsq::QuantizedModelPackage;
using vsq::ServeConfig;
using vsq::Tensor;

constexpr int kClients = kMaxClients;
constexpr int kSetupClient = kClients;  // ledger slot of set-up responses
constexpr int kMaxBatch = 16;
constexpr int kBertInFlight = 32;    // bert_batch: requests kept outstanding
constexpr int kReloads = 5;          // net_mixed: hot reloads per phase
constexpr double kMlpShare = 0.75;   // net_mixed: MLP share of arrivals (3:1)
// net_mixed open-loop rate: about a quarter of the closed-loop capacity of
// the same mix over the same 4 connections. At half capacity the CNN's
// batcher is ~65% busy and p99 swings 2x from run to run; NOTES.md has the
// figures.
constexpr double kNetRate = 6000.0;
constexpr std::size_t kIndexRing = 1 << 16;  // pre-drawn pool indices per client

ServeConfig serve_config() {
  ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.cache_entries = 0;  // every request costs a full forward
  return cfg;
}

// Pre-drawn pool indices for one client stream (cycled during the phase).
std::vector<std::uint32_t> index_ring(std::uint64_t seed, std::uint64_t stream, std::size_t pool) {
  vsq::Rng rng = vsq::Rng(seed).split(stream);
  std::vector<std::uint32_t> ring(kIndexRing);
  for (auto& i : ring) i = static_cast<std::uint32_t>(rng.uniform_u64(pool));
  return ring;
}

// Common to the two in-process workloads: one InferenceSession.
class InProcess : public Workload {
 public:
  SetupStats setup(Tracer::Log* log) override {
    teardown();
    ServedModel& m = models[0];
    const Counters c0 = Counters::now();
    const auto t0 = Clock::now();
    QuantizedModelPackage pkg = QuantizedModelPackage::load(m.archive);
    const auto t1 = Clock::now();
    session_ = std::make_unique<InferenceSession>(std::move(pkg), serve_config());
    const auto t2 = Clock::now();
    const Tensor y = session_->infer(m.inputs[0]);
    const auto t3 = Clock::now();
    if (!m.ledger->check(kSetupClient, 0, y.data(), static_cast<std::size_t>(y.numel()))) {
      throw std::runtime_error("set-up: first response has the wrong length or bits");
    }
    if (log) {
      const std::uint64_t id = log->record(span_setup_, t0, t3);
      log->record(span_load_, t0, t1, id);
      log->record(span_session_, t1, t2, id);
      log->record(span_first_, t2, t3, id);
    }
    return {seconds_between(t0, t3), 1e3 * seconds_between(t0, t1), Counters::now() - c0};
  }

  std::vector<vsq::ServeStatsSnapshot> model_stats() const override {
    return {session_->stats()};
  }
  vsq::ServeStatsSnapshot primary_window() const override { return session_->stats(); }
  void teardown() override { session_.reset(); }

 protected:
  void intern_spans(Tracer* tracer) {
    if (!tracer) return;
    span_setup_ = tracer->intern("setup");
    span_load_ = tracer->intern("archive.load");
    span_session_ = tracer->intern("serve.session_build");
    span_first_ = tracer->intern("serve.first_response");
    span_request_ = tracer->intern("request");
    span_submit_ = tracer->intern("serve.submit");
    span_wait_ = tracer->intern("serve.wait");
  }

  std::unique_ptr<InferenceSession> session_;
  std::uint32_t span_setup_ = 0, span_load_ = 0, span_session_ = 0, span_first_ = 0;
  std::uint32_t span_request_ = 0, span_submit_ = 0, span_wait_ = 0;
};

// mlp_closed: 4 closed-loop clients, one request outstanding each.
class MlpClosed : public InProcess {
 public:
  MlpClosed(const Options& opt, std::vector<ServedModel> ms, Tracer* tracer) {
    models = std::move(ms);
    for (int c = 0; c < kClients; ++c) {
      rings_.push_back(index_ring(opt.seed, 100 + static_cast<std::uint64_t>(c),
                                  models[0].inputs.size()));
    }
    intern_spans(tracer);
  }

  PhaseStats run(double seconds, int phase, Tracer* tracer) override {
    struct Client {
      SlicedLatency latency;
      std::uint64_t ok = 0, failed = 0, mismatched = 0;
    };
    std::vector<Tracer::Log*> logs(kClients, nullptr);
    if (tracer) {
      for (auto& l : logs) l = tracer->thread_log();
    }
    ServedModel& m = models[0];
    std::atomic<bool> stop{false};
    const Counters c0 = Counters::now();
    const auto start = Clock::now();
    std::vector<Client> clients(kClients, Client{SlicedLatency(start, seconds)});
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = clients[static_cast<std::size_t>(c)];
        Tracer::Log* log = logs[static_cast<std::size_t>(c)];
        const std::vector<std::uint32_t>& ring = rings_[static_cast<std::size_t>(c)];
        // Each phase starts at a different point of the ring.
        std::size_t k = static_cast<std::size_t>(phase) * 7919u;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint32_t i = ring[k++ % ring.size()];
          const auto t0 = Clock::now();
          Tensor y;
          Clock::time_point t_sub;
          try {
            std::future<Tensor> f = session_->submit(m.inputs[i]);
            t_sub = Clock::now();
            y = f.get();
          } catch (const std::exception&) {
            ++cl.failed;
            continue;
          }
          const auto t1 = Clock::now();
          cl.latency.add(t1, ns_between(t0, t1));
          ++cl.ok;
          if (!m.ledger->check(c, i, y.data(), static_cast<std::size_t>(y.numel()))) {
            ++cl.mismatched;
          }
          if (log) {
            const std::uint64_t id = log->record(span_request_, t0, t1);
            log->record(span_submit_, t0, t_sub, id, id);
            log->record(span_wait_, t_sub, t1, id, id);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto& t : threads) t.join();
    const auto end = Clock::now();

    PhaseStats ps;
    ps.latency = SlicedLatency(start, seconds);
    ps.seconds = seconds_between(start, end);
    ps.steady = Counters::now() - c0;
    for (const Client& cl : clients) {
      ps.ok += cl.ok;
      ps.failed += cl.failed;
      ps.mismatched += cl.mismatched;
      ps.latency.merge(cl.latency);
    }
    ps.attempted = ps.ok + ps.failed;
    return ps;
  }

 private:
  std::vector<std::vector<std::uint32_t>> rings_;
};

// bert_batch: one submitter keeps 32 requests outstanding; a collector
// resolves them in submission order (the batcher pops FIFO batches, so
// completions arrive in that order too).
class BertBatch : public InProcess {
 public:
  BertBatch(const Options& opt, std::vector<ServedModel> ms, Tracer* tracer) {
    models = std::move(ms);
    ring_ = index_ring(opt.seed, 200, models[0].inputs.size());
    intern_spans(tracer);
  }

  PhaseStats run(double seconds, int phase, Tracer* tracer) override {
    struct Pending {
      std::future<Tensor> f;
      Clock::time_point t0, t_sub;
      std::uint32_t idx = 0;
    };
    ServedModel& m = models[0];
    Tracer::Log* sub_log = tracer ? tracer->thread_log() : nullptr;
    Tracer::Log* col_log = tracer ? tracer->thread_log() : nullptr;
    std::counting_semaphore<kBertInFlight> slots(kBertInFlight);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;  // guarded by mu
    bool submitter_done = false;  // guarded by mu
    std::atomic<bool> stop{false};
    PhaseStats ps;
    std::uint64_t submit_failed = 0;

    const Counters c0 = Counters::now();
    const auto start = Clock::now();
    ps.latency = SlicedLatency(start, seconds);
    std::thread submitter([&] {
      std::size_t k = static_cast<std::size_t>(phase) * 7919u;
      while (true) {
        slots.acquire();
        if (stop.load(std::memory_order_relaxed)) {
          slots.release();
          break;
        }
        Pending p;
        p.idx = ring_[k++ % ring_.size()];
        p.t0 = Clock::now();
        try {
          p.f = session_->submit(m.inputs[p.idx]);
        } catch (const std::exception&) {
          ++submit_failed;
          slots.release();
          continue;
        }
        p.t_sub = Clock::now();
        if (sub_log) sub_log->record(span_submit_, p.t0, p.t_sub);
        {
          std::lock_guard lock(mu);
          pending.push_back(std::move(p));
        }
        cv.notify_one();
      }
      {
        std::lock_guard lock(mu);
        submitter_done = true;
      }
      cv.notify_one();
    });
    std::thread collector([&] {
      while (true) {
        Pending p;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || submitter_done; });
          if (pending.empty()) break;
          p = std::move(pending.front());
          pending.pop_front();
        }
        Tensor y;
        try {
          y = p.f.get();
        } catch (const std::exception&) {
          ++ps.failed;
          slots.release();
          continue;
        }
        const auto t1 = Clock::now();
        slots.release();
        ps.latency.add(t1, ns_between(p.t0, t1));
        ++ps.ok;
        if (!m.ledger->check(0, p.idx, y.data(), static_cast<std::size_t>(y.numel()))) {
          ++ps.mismatched;
        }
        if (col_log) {
          const std::uint64_t id = col_log->record(span_request_, p.t0, t1);
          col_log->record(span_wait_, p.t_sub, t1, id, id);
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    submitter.join();
    collector.join();
    const auto end = Clock::now();

    ps.seconds = seconds_between(start, end);
    ps.steady = Counters::now() - c0;
    ps.failed += submit_failed;
    ps.attempted = ps.ok + ps.failed;
    return ps;
  }

 private:
  std::vector<std::uint32_t> ring_;
};

// net_mixed: ModelRegistry serving the MLP and the CNN behind a loopback
// NetServer; 4 connections replay a seeded Poisson schedule (open loop),
// while a reloader hot-reloads the MLP from its archive at fixed points.
class NetMixed : public Workload {
 public:
  NetMixed(const Options& opt, std::vector<ServedModel> ms, Tracer* tracer) : seed_(opt.seed) {
    models = std::move(ms);
    if (tracer) {
      span_setup_ = tracer->intern("setup");
      span_load_ = tracer->intern("archive.load");
      span_registry_load_ = tracer->intern("registry.load");
      span_server_ = tracer->intern("net.server_start");
      span_connect_ = tracer->intern("net.connect");
      span_first_ = tracer->intern("net.first_response");
      span_request_ = tracer->intern("request");
      span_infer_ = tracer->intern("net.infer");
      span_reload_ = tracer->intern("registry.reload");
      for (const ServedModel& m : models) model_names_.push_back(tracer->intern(m.name));
    } else {
      model_names_.assign(models.size(), 0);
    }
  }
  ~NetMixed() override { teardown(); }

  SetupStats setup(Tracer::Log* log) override {
    teardown();
    SetupStats st;
    const Counters c0 = Counters::now();
    const auto t0 = Clock::now();
    registry_ = std::make_unique<vsq::ModelRegistry>(serve_config());
    std::vector<std::pair<Clock::time_point, Clock::time_point>> loads;
    for (const ServedModel& m : models) {
      const auto a = Clock::now();
      QuantizedModelPackage pkg = QuantizedModelPackage::load(m.archive);
      const auto b = Clock::now();
      registry_->load(m.name, std::move(pkg));
      loads.emplace_back(a, b);
      st.load_ms += 1e3 * seconds_between(a, b);
      if (log) log->record(span_registry_load_, b, Clock::now());
    }
    const auto t1 = Clock::now();
    vsq::net::NetServerConfig ncfg;  // loopback, ephemeral port
    ncfg.idle_timeout_ms = 120000;   // connections idle between phases
    server_ = std::make_unique<vsq::net::NetServer>(*registry_, ncfg);
    const auto t2 = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(
          std::make_unique<vsq::net::NetClient>(server_->host(), server_->port(), 10000));
    }
    const auto t3 = Clock::now();
    for (ServedModel& m : models) {
      const vsq::net::ResponseFrame r = clients_[0]->infer(m.name, m.rows[0]);
      if (r.status != vsq::net::Status::kOk ||
          !m.ledger->check(kSetupClient, 0, r.row.data(), r.row.size())) {
        throw std::runtime_error("set-up: first response of " + m.name + " failed: " +
                                 vsq::net::status_name(r.status) + " " + r.message);
      }
    }
    const auto t4 = Clock::now();
    if (log) {
      const std::uint64_t id = log->record(span_setup_, t0, t4);
      for (const auto& [a, b] : loads) log->record(span_load_, a, b, id);
      log->record(span_server_, t1, t2, id);
      log->record(span_connect_, t2, t3, id);
      log->record(span_first_, t3, t4, id);
    }
    st.total_s = seconds_between(t0, t4);
    st.counters = Counters::now() - c0;
    return st;
  }

  PhaseStats run(double seconds, int phase, Tracer* tracer) override {
    // The whole arrival schedule is drawn before the clock starts.
    std::vector<std::vector<Arrival>> sched(kClients);
    vsq::Rng rng = vsq::Rng(seed_).split(300 + static_cast<std::uint64_t>(phase));
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / kNetRate;
      if (t >= seconds) break;
      sched[rng.uniform_u64(kClients)].push_back(draw(rng, t));
    }

    struct Conn {
      SlicedLatency latency;
      LatencyHist rtt{}, late{};
      std::uint64_t ok = 0, failed = 0, mismatched = 0, retried = 0;
      Clock::time_point last_done{};
    };
    std::vector<Tracer::Log*> logs(kClients + 1, nullptr);
    if (tracer) {
      for (auto& l : logs) l = tracer->thread_log();
    }
    const Counters c0 = Counters::now();
    const auto start = Clock::now();
    std::vector<Conn> conns(kClients, Conn{SlicedLatency(start, seconds)});

    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Conn& cn = conns[static_cast<std::size_t>(c)];
        Tracer::Log* log = logs[static_cast<std::size_t>(c)];
        vsq::net::NetClient& client = *clients_[static_cast<std::size_t>(c)];
        Clock::time_point last_sent = start;
        for (const Arrival& a : sched[static_cast<std::size_t>(c)]) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(a.due_s));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          cn.late.add(ns_between(due, sent));
          // If the previous answer on this connection was still outstanding
          // at `due`, the wait behind it is server queueing and counts from
          // `due` (or from the previous send, when that send was itself
          // late). Otherwise latency starts at the send, which keeps this
          // thread's own timer wake-up out of the figure.
          const auto from = cn.last_done > due ? std::max(due, last_sent) : sent;
          ServedModel& m = models[a.model];
          vsq::net::ResponseFrame r;
          bool transport_ok = true;
          for (int attempt = 0; attempt < 4; ++attempt) {
            try {
              r = client.infer(m.name, m.rows[a.idx]);
            } catch (const std::exception&) {
              transport_ok = false;
              try {
                client.reconnect();
              } catch (const std::exception&) {
              }
              break;
            }
            // A request that raced a hot reload's drain of the old session
            // is answered kUnavailable without running; resend it.
            if (r.status != vsq::net::Status::kUnavailable &&
                r.status != vsq::net::Status::kUnknownModel) {
              break;
            }
            ++cn.retried;
          }
          const auto done = Clock::now();
          last_sent = sent;
          cn.last_done = done;
          if (!transport_ok || r.status != vsq::net::Status::kOk) {
            ++cn.failed;
            continue;
          }
          ++cn.ok;
          // Binned by completion, so a server that falls behind the
          // schedule lowers the per-slice rate.
          cn.latency.add(done, ns_between(from, done));
          if (a.model == 0) cn.rtt.add(ns_between(sent, done));
          if (!m.ledger->check(c, a.idx, r.row.data(), r.row.size())) ++cn.mismatched;
          if (log) {
            const std::uint64_t id = log->record(span_request_, due, done);
            log->record(span_infer_, sent, done, id, id, model_names_[a.model]);
          }
        }
      });
    }

    // Hot reloads of the primary model at fixed fractions of the phase.
    std::vector<double> reload_ms;
    std::uint64_t reloads_ok = 0;
    Counters reload_counters;
    std::thread reloader([&] {
      Tracer::Log* log = logs[kClients];
      for (int r = 1; r <= kReloads; ++r) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds * r / (kReloads + 1)));
        std::this_thread::sleep_until(due);
        const Counters rc0 = Counters::now();
        const auto a = Clock::now();
        try {
          registry_->reload_file(models[0].name, models[0].archive);
          ++reloads_ok;
        } catch (const std::exception&) {
        }
        const auto b = Clock::now();
        reload_counters += Counters::now() - rc0;
        reload_ms.push_back(1e3 * seconds_between(a, b));
        if (log) log->record(span_reload_, a, b);
      }
    });
    for (auto& t : threads) t.join();
    reloader.join();

    PhaseStats ps;
    ps.latency = SlicedLatency(start, seconds);
    Clock::time_point end = start;
    for (const Conn& cn : conns) {
      ps.ok += cn.ok;
      ps.failed += cn.failed;
      ps.mismatched += cn.mismatched;
      ps.retried += cn.retried;
      ps.latency.merge(cn.latency);
      ps.rtt.merge(cn.rtt);
      ps.late.merge(cn.late);
      end = std::max(end, cn.last_done);
    }
    ps.attempted = ps.ok + ps.failed;
    ps.seconds = seconds_between(start, end);
    ps.steady = (Counters::now() - c0) - reload_counters;
    ps.reload_ms = std::move(reload_ms);
    ps.reloads_ok = reloads_ok;
    return ps;
  }

  std::vector<vsq::ServeStatsSnapshot> model_stats() const override {
    std::vector<vsq::ServeStatsSnapshot> out;
    for (const ServedModel& m : models) out.push_back(registry_->stats(m.name));
    return out;
  }
  vsq::ServeStatsSnapshot primary_window() const override {
    return registry_->session(models[0].name)->stats();
  }
  NetCounters net_counters() const override {
    NetCounters n;
    n.frames_ok = server_->frames_by_status(vsq::net::Status::kOk);
    for (int s = 1; s <= static_cast<int>(vsq::net::Status::kBusy); ++s) {
      n.frames_not_ok += server_->frames_by_status(static_cast<vsq::net::Status>(s));
    }
    n.protocol_errors = server_->protocol_errors();
    n.accepted = server_->connections_accepted();
    return n;
  }
  void teardown() override {
    clients_.clear();
    server_.reset();
    registry_.reset();
  }

 private:
  struct Arrival {
    double due_s = 0.0;
    std::uint32_t model = 0, idx = 0;
  };
  // One arrival: model by the 3:1 mix, then an entry of that model's pool.
  Arrival draw(vsq::Rng& rng, double due_s) const {
    const std::uint32_t model = rng.uniform() < kMlpShare ? 0u : 1u;
    const auto idx = static_cast<std::uint32_t>(rng.uniform_u64(models[model].inputs.size()));
    return {due_s, model, idx};
  }

  std::uint64_t seed_;
  std::unique_ptr<vsq::ModelRegistry> registry_;
  std::unique_ptr<vsq::net::NetServer> server_;
  std::vector<std::unique_ptr<vsq::net::NetClient>> clients_;
  std::uint32_t span_setup_ = 0, span_load_ = 0, span_registry_load_ = 0, span_server_ = 0;
  std::uint32_t span_connect_ = 0, span_first_ = 0, span_request_ = 0, span_infer_ = 0;
  std::uint32_t span_reload_ = 0;
  std::vector<std::uint32_t> model_names_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mlp_closed", "bert_batch", "net_mixed"};
  return names;
}

double net_mixed_rate() { return kNetRate; }

std::unique_ptr<Workload> make_workload(const Options& opt, std::vector<ServedModel> models,
                                        Tracer* tracer) {
  if (opt.workload == "mlp_closed") {
    return std::make_unique<MlpClosed>(opt, std::move(models), tracer);
  }
  if (opt.workload == "bert_batch") {
    return std::make_unique<BertBatch>(opt, std::move(models), tracer);
  }
  if (opt.workload == "net_mixed") {
    return std::make_unique<NetMixed>(opt, std::move(models), tracer);
  }
  throw std::invalid_argument("unknown workload " + opt.workload);
}

}  // namespace perfbench
