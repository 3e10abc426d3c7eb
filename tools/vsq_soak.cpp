// vsq_soak — the load generator and differential audit for the serving
// stack: randomized multi-model traffic through the ModelRegistry
// (src/serve/registry.h), with every served response compared bit-for-bit
// against a fresh sequential single-sample reference runner built
// independently of the serving stack. K client threads hammer the
// registry with interleaved traffic across every loaded model (MLP, CNN
// and token-row sequence programs), submit random-size request bursts to
// vary batch pressure, and a chaos thread hot-unloads and reloads models
// mid-run — the audit must stay clean through all of it. This is the
// standing concurrency oracle for the serving engine: any batching,
// routing, caching or drain bug that alters even one output bit fails the
// run. With one model, --reload-every=0 and --burst-max=1 it is a plain
// closed-loop load generator (each client waits for its response before
// the next request):
//
//   vsq_soak --packages=tiny=tiny_int.vsqa --reload-every=0 --burst-max=1
//
// Network mode (--net) runs the same oracle ACROSS THE WIRE: an
// in-process NetServer (src/net/server.h) fronts the registry on an
// ephemeral loopback port and every client drives it through a real TCP
// NetClient, so framing, admission shedding, HTTP stats and
// slow/misbehaving peers are exercised under the identical bit-exactness
// contract. With a bounded queue and non-blocking admission
// (--queue-depth, --admission-timeout-us) overload must produce explicit
// kShed responses — never a hang, never a wrong answer — and the client-
// observed shed count must agree with both the server's frame counter and
// the registry's per-model stats. --connect=host:port points the same
// traffic at an external vsq_serve_net instead (chaos reloads and
// server-side assertions are disabled; the audit still applies when the
// remote serves the same deterministic builtins).
//
//   vsq_soak [--builtin=tiny,tiny8,tiny_conv,tiny_bert,resnet]
//                                                      in-process models
//            [--packages=name=path,name2=path]         .vsqa archives
//            [--clients=8] [--requests=1024]           total, all clients
//            [--burst-max=4]      requests submitted per client iteration
//            [--unique=24]        distinct inputs per model
//            [--reload-every=64]  hot-unload+reload one model (round robin)
//                                 each time this many requests have been
//                                 claimed (0 = off). Count-triggered, so
//                                 even a short run exercises load/unload
//                                 against live traffic deterministically.
//            [--max-batch=16] [--max-wait-us=0] [--cache=0]
//            [--scale-bits=-1] [--seed=1] [--threads=N]
//            [--no-check]         skip the differential audit
//            [--net]              traffic over TCP via in-process NetServer
//            [--connect=host:port] traffic to an external vsq_serve_net
//            [--queue-depth=0]    bounded per-model queue (0 = unbounded)
//            [--admission-timeout-us=-1]  -1 block, 0 shed at once, >0 wait
//            [--expect-shed]      fail unless overload shed >= 1 request
//            [--slow-clients]     run misbehaving-peer scenarios after the
//                                 main traffic (partial frames, stalls,
//                                 disconnects), then prove the server
//                                 still answers correctly
//            [--chaos]            a seeded storm thread randomly arms and
//                                 disarms failpoints (src/fault) across the
//                                 serving stack while traffic runs: injected
//                                 forward faults, worker deaths and stalls,
//                                 reload failures, torn writes, dropped
//                                 connections. Every injected fault must
//                                 surface as a clean typed status (counted
//                                 `faulted`, never a hang, crash, or wrong
//                                 bits); hot reloads use the rollback-safe
//                                 registry.reload() path; after the storm,
//                                 recovery probes must serve every model
//                                 bit-exactly again. Incompatible with
//                                 --connect (failpoints are in-process).
//            [--chaos-interval-ms=25]  storm re-arm cadence
//
// The report is the registry's stats table, then one
// ServeStatsSnapshot::json() line per model in the table's (name) order,
// both skipped under --connect, then the totals. With the audit on, it
// ends with the integer datapath line — IntGemmStats (vector ops,
// gateable zero products) summed over the sequential reference pass, so
// each distinct input counts once — and the audit line.
//
// Exit status: 0 clean, 1 on any bit mismatch (or a model that failed to
// build/load), 2 on a usage error (an unknown flag or a positional
// argument included), so CI can gate on it — ctest
// serve_smoke, serve_conv_smoke and serve_bert_smoke run the one-model
// closed loop above, soak_smoke a short deterministic-seed pass over a
// 2-model registry, serve_net_smoke the network mode with forced overload
// + slow clients, and the slow-labeled soak_long the full builtin mix.
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <iterator>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/ptq.h"
#include "fault/failpoint.h"
#include "hw/mac_config.h"
#include "kernels/isa.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "serve/registry.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace vsq;

// One model the soak serves: its spec, whose build() makes the package —
// called once for the reference copy and again on every chaos reload —
// plus the audit state derived from the reference copy.
struct SoakModel : ServingModelSpec {
  QuantizedModelPackage ref_pkg;                   // independent copy
  std::unique_ptr<QuantizedModelRunner> ref;       // sequential oracle
  std::vector<Tensor> inputs;                      // [1, n] request pool
  std::vector<Tensor> expected;                    // ref outputs, per input
};

// Resident set size in bytes (/proc/self/statm field 2, pages). 0 when
// unreadable (non-Linux), which disables the RSS gate.
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

// A served row equals the reference tensor bit-for-bit.
bool row_matches(const std::vector<float>& got, const Tensor& want) {
  if (static_cast<std::int64_t>(got.size()) != want.numel()) return false;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    if (got[static_cast<std::size_t>(j)] != want[j]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vsq;
  const std::optional<Args> parsed = parse_args("vsq_soak", argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  if (!apply_threads_flag(args)) return 2;
  const std::string packages = args.get_str("packages", "");
  const std::string builtin =
      args.get_str("builtin", packages.empty() ? "tiny,tiny8,tiny_conv,tiny_bert,resnet" : "");
  const int clients = std::max(1, args.get_int("clients", 8));
  const auto total_requests = static_cast<std::uint64_t>(std::max(1, args.get_int("requests", 1024)));
  const int burst_max = std::max(1, args.get_int("burst-max", 4));
  const int unique = std::max(1, args.get_int("unique", 24));
  const bool check = !args.get_flag("no-check");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string connect = args.get_str("connect", "");
  const bool net = args.get_flag("net") || !connect.empty();
  const bool external = !connect.empty();
  const bool expect_shed = args.get_flag("expect-shed");
  const bool slow_clients = args.get_flag("slow-clients");
  const bool chaos = args.get_flag("chaos");
  const int chaos_interval_ms = std::max(1, args.get_int("chaos-interval-ms", 25));
  const int reload_flag = std::max(0, args.get_int("reload-every", 64));
  ServeConfig cfg;
  cfg.max_batch = std::max(1, args.get_int("max-batch", 16));
  cfg.max_wait_us = std::max(0, args.get_int("max-wait-us", 0));
  cfg.cache_entries = static_cast<std::size_t>(std::max(0, args.get_int("cache", 0)));
  cfg.scale_product_bits = args.get_int("scale-bits", -1);
  cfg.queue_depth = static_cast<std::size_t>(std::max(0, args.get_int("queue-depth", 0)));
  cfg.admission_timeout_us = args.get_int("admission-timeout-us", -1);
  if (!reject_unknown_flags("vsq_soak", args)) return 2;
  if (chaos && external) {
    std::cerr << "vsq_soak: --chaos injects in-process failpoints and cannot target an "
                 "external server (--connect)\n";
    return 2;
  }
  std::string host = "127.0.0.1";
  int port = 0;
  if (external) {
    const std::size_t colon = connect.rfind(':');
    const std::string digits = colon == std::string::npos ? "" : connect.substr(colon + 1);
    const char* last = digits.data() + digits.size();
    const auto [end, ec] = std::from_chars(digits.data(), last, port);
    if (ec != std::errc() || end != last || port < 1 || port > 65535) {
      std::cerr << "vsq_soak: --connect must be host:port with a port in 1..65535, got: "
                << connect << "\n";
      return 2;
    }
    host = connect.substr(0, colon);
  }
  // An external server cannot be chaos-reloaded from here.
  const auto reload_every = external ? 0ull : static_cast<std::uint64_t>(reload_flag);

  if (chaos) {
    // Injected worker deaths/stalls are routine under the storm: make the
    // watchdog aggressive and its restart budget effectively unlimited so
    // the session recovers rather than failing over mid-run (budget
    // exhaustion has its own dedicated unit test).
    cfg.watchdog_interval_ms = 10;
    cfg.stall_timeout_ms = 150;
    cfg.max_worker_restarts = 1 << 30;
  }
  // Sheds are only a legitimate outcome when the operator asked for
  // non-blocking admission on a bounded queue.
  const bool shed_possible = external || (cfg.queue_depth > 0 && cfg.admission_timeout_us >= 0);
  if (expect_shed && !shed_possible) {
    std::cerr << "vsq_soak: --expect-shed needs --queue-depth>0 and --admission-timeout-us>=0\n";
    return 2;
  }

  // ---- Assemble the model mix ----
  std::vector<SoakModel> models;
  try {
    for (ServingModelSpec& spec : parse_serving_models(builtin, packages)) {
      models.push_back(SoakModel{std::move(spec), {}, {}, {}, {}});
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "vsq_soak: " << e.what() << "\n";
    return 2;
  }

  // ---- Reference oracles + deterministic input pools + registry load ----
  ModelRegistry registry(cfg);
  IntGemmStats datapath_stats;  // summed over every model's reference pass
  try {
    for (std::size_t m = 0; m < models.size(); ++m) {
      SoakModel& sm = models[m];
      sm.ref_pkg = sm.build();
      sm.ref = std::make_unique<QuantizedModelRunner>(sm.ref_pkg, cfg.scale_product_bits);
      Rng rng(seed + 7919ull * (m + 1));
      for (int i = 0; i < unique; ++i) sm.inputs.push_back(random_serving_input(*sm.ref, rng));
      if (check) {
        // The differential oracle: sequential single-sample execution
        // through an independently built runner, computed before any
        // serving traffic exists; it also counts the integer datapath.
        for (const Tensor& t : sm.inputs) {
          sm.expected.push_back(sm.ref->forward(t, &datapath_stats));
        }
      }
      // A copy of the already-built package is just as independent of the
      // oracle runner as a second build() would be, without repeating the
      // most expensive setup work (chaos reloads still rebuild). An
      // external server loads its own copies; ours would just idle.
      if (!external) registry.load(sm.name, sm.ref_pkg);
    }
  } catch (const std::exception& e) {
    std::cerr << "vsq_soak: model setup failed: " << e.what() << "\n";
    return 1;
  }

  // ---- Network front-end (when requested) ----
  std::unique_ptr<vsq::net::NetServer> server;
  if (net && !external) {
    vsq::net::NetServerConfig net_cfg;  // ephemeral loopback port
    net_cfg.max_connections = clients + 8;  // headroom for the HTTP/slow probes
    // Short deadlines so the slow-client scenarios resolve in test time.
    net_cfg.idle_timeout_ms = 5000;
    net_cfg.frame_timeout_ms = 1000;
    net_cfg.write_timeout_ms = 2000;
    server = std::make_unique<vsq::net::NetServer>(registry, net_cfg);
    port = server->port();
  }

  std::cout << "soaking " << models.size() << " models (";
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::cout << (m ? ", " : "") << models[m].name << " " << models[m].ref->in_features()
              << "->" << models[m].ref->out_features();
  }
  std::cout << "): " << clients << " clients, " << total_requests
            << " requests, burst<=" << burst_max << ", max_batch=" << cfg.max_batch
            << ", reload every " << reload_every << " requests";
  if (net) std::cout << ", over TCP " << host << ":" << port;
  if (chaos) std::cout << ", chaos storm every " << chaos_interval_ms << "ms";
  std::cout << "\n";
  std::cout << "cpu: " << isa::summary() << "\n";

  const std::uint64_t rss_before = (net || chaos) && !external ? rss_bytes() : 0;

  // ---- Chaos: hot unload + reload, round-robin, triggered every
  // `reload_every` claimed requests. The client whose burst claim crosses
  // a trigger point performs the cycle inline while every other client
  // keeps hammering the registry — so load/unload always overlaps live
  // traffic, and the number of cycles is deterministic for a given
  // request budget (unlike a timer, which a fast machine outruns).
  std::atomic<std::uint64_t> reloads{0}, reload_failures{0}, injected_reload_failures{0};
  std::atomic<std::uint64_t> reload_seq{0};  // round-robin model cursor
  std::mutex chaos_mu;  // one cycle at a time (two could race one name)
  const auto chaos_cycle = [&] {
    std::lock_guard chaos_lock(chaos_mu);
    const SoakModel& sm =
        models[reload_seq.fetch_add(1, std::memory_order_relaxed) % models.size()];
    try {
      if (chaos) {
        // Rollback-safe path: reload() swaps only a fully built
        // replacement, so a failure — including the storm's injected
        // reload/package faults — leaves the old incarnation serving with
        // no unrouted gap. Injected failures are therefore expected and
        // harmless here; anything else is still a real bug.
        try {
          registry.reload(sm.name, sm.build());
          reloads.fetch_add(1, std::memory_order_relaxed);
        } catch (const fault::FailpointError&) {
          injected_reload_failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        registry.unload(sm.name);  // drains in-flight work for this model
        registry.load(sm.name, sm.build());
        reloads.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      // A failed rebuild would leave the model unrouted; surface it.
      reload_failures.fetch_add(1, std::memory_order_relaxed);
      std::cerr << "vsq_soak: reload of " << sm.name << " failed: " << e.what() << "\n";
    }
  };

  // ---- Failpoint storm: a seeded thread that randomly arms, re-arms and
  // clears fault injection across the whole serving stack while the
  // clients run. The oracle's burden is unchanged — every served row must
  // still be bit-exact — faults may only ADD clean typed failures.
  std::atomic<bool> storm_stop{false};
  std::thread storm;
  if (chaos) {
    struct ChaosArm {
      const char* point;
      const char* spec;
      bool net_only;
    };
    static const ChaosArm kStorm[] = {
        {"serve.batcher.pre_forward", "10%error(chaos: injected forward fault)", false},
        {"serve.batcher.worker_stall", "5%delay(20000)", false},
        {"serve.batcher.worker_stall", "1*delay(250000)", false},  // trips the stall watchdog
        {"serve.batcher.worker_exit", "1*trigger", false},         // worker death + restart
        {"serve.registry.reload", "50%error(chaos: injected reload fault)", false},
        {"package.load.validate", "50%error(chaos: injected package fault)", false},
        {"net.server.write.partial", "5%trigger", true},
        {"net.server.read.pre_body", "5%error(chaos: injected read fault)", true},
        {"net.server.accept", "3%trigger", true},
        {"net.client.connect", "20%error(chaos: injected connect fault)", true},
    };
    storm = std::thread([&, seed] {
      Rng rng(seed ^ 0xc4a05f00dull);
      while (!storm_stop.load(std::memory_order_relaxed)) {
        const auto pick = rng.uniform_u64(std::size(kStorm) + 2);
        if (pick >= std::size(kStorm)) {
          // Periodic full disarm: the stack must also serve cleanly in the
          // gaps, and re-arming keeps one-shot policies firing.
          fault::disable_all();
        } else {
          const ChaosArm& arm = kStorm[pick];
          if (!arm.net_only || net) fault::enable(arm.point, arm.spec);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(chaos_interval_ms));
      }
      fault::disable_all();
    });
  }

  // ---- Client threads ----
  std::atomic<std::uint64_t> remaining{total_requests};
  std::atomic<std::uint64_t> completed{0}, rejected{0}, shed{0}, dropped{0}, mismatches{0},
      audited{0};
  // Chaos-only: requests that failed with a clean typed error attributable
  // to an injected fault (kError/kUnavailable frames, broken promises,
  // transport failures from torn writes or dropped connections). Outside
  // --chaos these same outcomes count as `dropped` and fail the run.
  std::atomic<std::uint64_t> faulted{0};
  // Per-model completions: the oracle demands every model actually served
  // (a reload bug could otherwise starve one model into 100% rejections
  // while the totals still look healthy).
  std::vector<std::atomic<std::uint64_t>> model_completed(models.size());
  std::mutex report_mu;  // first few mismatch reports, unscrambled
  const auto report = [&](const std::string& what) {
    std::lock_guard lock(report_mu);
    std::cerr << what << "\n";
  };

  // Audit + count one served row; shared by the in-process and network
  // paths so the two modes cannot drift on what "correct" means.
  const auto account_row = [&](int c, std::size_t m, std::size_t idx,
                               const std::vector<float>& row) {
    completed.fetch_add(1, std::memory_order_relaxed);
    model_completed[m].fetch_add(1, std::memory_order_relaxed);
    if (!check) return;
    audited.fetch_add(1, std::memory_order_relaxed);
    if (!row_matches(row, models[m].expected[idx])) {
      const auto n = mismatches.fetch_add(1, std::memory_order_relaxed);
      if (n < 8) {
        report("MISMATCH: client " + std::to_string(c) + " model " + models[m].name +
               " input " + std::to_string(idx) +
               ": served response differs from sequential reference");
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + 104729ull * static_cast<std::uint64_t>(c + 1));
      std::optional<vsq::net::NetClient> client;
      std::vector<std::pair<std::size_t, std::size_t>> sent;  // (model, input idx)
      std::vector<std::future<Tensor>> futures;
      std::vector<float> row;
      for (;;) {
        // Claim a burst of 1..burst_max requests from the global budget:
        // random burst sizes vary how many rows each batcher coalesces.
        const auto want = 1 + rng.uniform_u64(static_cast<std::uint64_t>(burst_max));
        std::uint64_t got = 0;
        std::uint64_t rem = remaining.load(std::memory_order_relaxed);
        while (rem > 0 && !remaining.compare_exchange_weak(rem, rem - std::min(want, rem))) {
        }
        got = std::min(want, rem);
        if (got == 0) return;
        if (reload_every > 0) {
          // One cycle per trigger boundary this claim crossed (a burst can
          // straddle several when reload_every <= burst_max, and the
          // deterministic total-cycle count must not depend on how bursts
          // happen to land on the boundaries).
          const std::uint64_t before = total_requests - rem;
          const std::uint64_t cycles =
              (before + got) / reload_every - before / reload_every;
          for (std::uint64_t k = 0; k < cycles; ++k) chaos_cycle();
        }

        if (net) {
          // Network path: one persistent connection per client, closed-
          // loop request/response. Every outcome is an explicit wire
          // status — a transport failure (timeout, dead connection) is a
          // hang/wedge bug by definition and fails the run as `dropped`.
          for (std::uint64_t i = 0; i < got; ++i) {
            const auto m = static_cast<std::size_t>(rng.uniform_u64(models.size()));
            const auto idx =
                static_cast<std::size_t>(rng.uniform_u64(models[m].inputs.size()));
            // Mostly kNormal with a kLow minority, so the lane headroom
            // logic runs under real traffic (kLow sheds first).
            const auto prio = rng.uniform_u64(4) == 0 ? Priority::kLow : Priority::kNormal;
            const Tensor& in = models[m].inputs[idx];
            row.assign(in.data(), in.data() + in.numel());
            try {
              if (!client) client.emplace(host, port, 10000);
              const vsq::net::ResponseFrame resp =
                  client->infer(models[m].name, row, prio);
              switch (resp.status) {
                case vsq::net::Status::kOk:
                  account_row(c, m, idx, resp.row);
                  break;
                case vsq::net::Status::kShed:
                  shed.fetch_add(1, std::memory_order_relaxed);
                  break;
                case vsq::net::Status::kUnknownModel:
                case vsq::net::Status::kUnavailable:
                  // Model mid-reload (or, under chaos, a freshly killed
                  // worker): graceful rejection, never a wrong answer.
                  rejected.fetch_add(1, std::memory_order_relaxed);
                  break;
                default:
                  if (chaos) {
                    // Injected forward faults surface as typed kError
                    // frames — exactly the contract chaos verifies.
                    faulted.fetch_add(1, std::memory_order_relaxed);
                    break;
                  }
                  dropped.fetch_add(1, std::memory_order_relaxed);
                  report("vsq_soak: unexpected status " +
                         std::string(vsq::net::status_name(resp.status)) + ": " + resp.message);
                  break;
              }
            } catch (const std::exception& e) {
              if (chaos) {
                // Torn writes, injected read faults and dropped/refused
                // connections all land here as clean transport errors.
                faulted.fetch_add(1, std::memory_order_relaxed);
              } else {
                dropped.fetch_add(1, std::memory_order_relaxed);
                report("vsq_soak: transport failure: " + std::string(e.what()));
              }
              client.reset();  // next request reconnects
            }
          }
          continue;
        }

        sent.clear();
        futures.clear();
        for (std::uint64_t i = 0; i < got; ++i) {
          const auto m = static_cast<std::size_t>(rng.uniform_u64(models.size()));
          const auto idx =
              static_cast<std::size_t>(rng.uniform_u64(models[m].inputs.size()));
          try {
            futures.push_back(registry.submit(models[m].name, models[m].inputs[idx]));
            sent.emplace_back(m, idx);
          } catch (const QueueFullError&) {
            // Bounded queue + non-blocking admission: explicit shed.
            shed.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::out_of_range&) {
            // Model mid-reload, not currently routed: a graceful
            // rejection, never a wrong answer.
            rejected.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::runtime_error&) {
            // Pinned session whose queue just closed for the drain: same
            // reload collateral class.
            rejected.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception&) {
            // Anything else (e.g. a shape rejection) is a serving bug,
            // not reload collateral — fail the run.
            if (chaos) faulted.fetch_add(1, std::memory_order_relaxed);
            else dropped.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          Tensor y;
          try {
            y = futures[i].get();
          } catch (const std::exception&) {
            // NOT a reload rejection: submit() accepted this request, and
            // the registry contract says every accepted request resolves
            // (unload drains before returning). A throwing future is a
            // dropped answer — a serving bug — and fails the run below.
            // Under chaos it is the expected face of an injected forward
            // fault or worker death (typed error / broken promise).
            if (chaos) faulted.fetch_add(1, std::memory_order_relaxed);
            else dropped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          row.assign(y.data(), y.data() + y.numel());
          account_row(c, sent[i].first, sent[i].second, row);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // ---- Chaos teardown + recovery probes: after the storm every fault is
  // disarmed, and the stack must serve every model bit-exactly again —
  // injected failures were transient by construction, so lingering
  // unavailability would mean the recovery machinery (watchdog restart,
  // reload rollback) left permanent damage.
  if (chaos) {
    storm_stop.store(true);
    storm.join();  // its last act is fault::disable_all()
    if (fault::total_fires() == 0) {
      std::cerr << "vsq_soak: --chaos ran but no failpoint ever fired (storm ineffective)\n";
      return 1;
    }
    std::cout << "chaos storm: " << fault::total_fires() << " injected faults, "
              << faulted.load() << " requests faulted cleanly, "
              << injected_reload_failures.load() << " reloads failed by injection\n";
    for (std::size_t m = 0; m < models.size(); ++m) {
      bool recovered = false;
      std::string last_error = "no attempt made";
      for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
        try {
          std::vector<float> got;
          if (net) {
            vsq::net::NetClient probe(host, port, 10000);
            vsq::net::RetryPolicy policy;
            policy.max_attempts = 8;
            policy.total_deadline_ms = 10000;
            policy.seed = seed + m + 1;
            const vsq::net::ResponseFrame resp = probe.infer_retry(
                models[m].name,
                std::vector<float>(models[m].inputs[0].data(),
                                   models[m].inputs[0].data() + models[m].inputs[0].numel()),
                Priority::kHigh, policy);
            if (resp.status != vsq::net::Status::kOk) {
              last_error = std::string(vsq::net::status_name(resp.status)) + ": " + resp.message;
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              continue;
            }
            got = resp.row;
          } else {
            const Tensor y = registry.infer(models[m].name, models[m].inputs[0]);
            got.assign(y.data(), y.data() + y.numel());
          }
          if (check && !row_matches(got, models[m].expected[0])) {
            std::cerr << "vsq_soak: post-chaos probe of " << models[m].name
                      << " MISMATCHED the sequential reference\n";
            return 1;
          }
          recovered = true;
        } catch (const std::exception& e) {
          last_error = e.what();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (!recovered) {
        std::cerr << "vsq_soak: model " << models[m].name
                  << " never recovered after the chaos storm: " << last_error << "\n";
        return 1;
      }
    }
    std::cout << "post-chaos recovery probes passed (every model serves bit-exactly)\n";
  }

  // ---- Slow / misbehaving clients: every scenario must cost the server
  // at most a bounded wait, never a wedged connection slot or a leaked
  // promise — proven by a normal request per model succeeding afterwards.
  if (net && slow_clients) {
    std::cout << "running slow-client scenarios\n";
    try {
      {  // half a header, then vanish
        const int fd = vsq::net::connect_tcp(host, port, 2000);
        vsq::net::write_full(fd, "VS", 2, 1000);
        vsq::net::close_fd(fd);
      }
      {  // garbage magic
        const int fd = vsq::net::connect_tcp(host, port, 2000);
        vsq::net::write_full(fd, "XXXXXXXX", 8, 1000);
        char resp[64];
        // The server answers kBadRequest and closes; draining is optional
        // for the peer, but doing so proves the response actually came.
        vsq::net::read_full(fd, resp, sizeof(resp), 2000, 500);
        vsq::net::close_fd(fd);
      }
      {  // header promising a body that never arrives (mid-frame stall)
        const int fd = vsq::net::connect_tcp(host, port, 2000);
        std::uint8_t header[vsq::net::kHeaderBytes];
        vsq::net::encode_header(100, header);
        vsq::net::write_full(fd, header, sizeof(header), 1000);
        vsq::net::write_full(fd, "abc", 3, 1000);  // 3 of the promised 100
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));  // > frame timeout
        vsq::net::close_fd(fd);
      }
      {  // a full valid request, then disconnect without reading the answer
        const int fd = vsq::net::connect_tcp(host, port, 2000);
        vsq::net::RequestFrame req;
        req.model = models[0].name;
        const Tensor& in = models[0].inputs[0];
        req.row.assign(in.data(), in.data() + in.numel());
        const auto frame = vsq::net::encode_request(req);
        vsq::net::write_full(fd, frame.data(), frame.size(), 1000);
        vsq::net::close_fd(fd);  // the accepted request still executes server-side
      }
    } catch (const std::exception& e) {
      std::cerr << "vsq_soak: slow-client scenario failed to run: " << e.what() << "\n";
      return 1;
    }
    // The proof: the server still answers every model, correctly, with
    // admission lanes bypassed by kHigh so a still-full queue cannot
    // confuse "not wedged" with "shedding".
    for (std::size_t m = 0; m < models.size(); ++m) {
      try {
        vsq::net::NetClient probe(host, port, 10000);
        const Tensor& in = models[m].inputs[0];
        const vsq::net::ResponseFrame resp = probe.infer(
            models[m].name, std::vector<float>(in.data(), in.data() + in.numel()),
            Priority::kHigh);
        if (resp.status != vsq::net::Status::kOk) {
          std::cerr << "vsq_soak: post-abuse probe of " << models[m].name << " got "
                    << vsq::net::status_name(resp.status) << ": " << resp.message << "\n";
          return 1;
        }
        if (check && !row_matches(resp.row, models[m].expected[0])) {
          std::cerr << "vsq_soak: post-abuse probe of " << models[m].name
                    << " MISMATCHED the sequential reference\n";
          return 1;
        }
      } catch (const std::exception& e) {
        std::cerr << "vsq_soak: post-abuse probe of " << models[m].name
                  << " failed (server wedged?): " << e.what() << "\n";
        return 1;
      }
    }
    std::cout << "slow-client scenarios passed (server answers normally after abuse)\n";
  }

  // ---- Report ----
  if (!external) {
    registry.print_stats(std::cout);
    for (const auto& [name, snap] : registry.stats_all()) std::cout << snap.json() << "\n";
  }
  std::cout << "soak totals: " << completed.load() << " completed, " << shed.load()
            << " shed, " << rejected.load() << " rejected mid-reload, " << reloads.load()
            << " hot reloads";
  if (chaos) std::cout << ", " << faulted.load() << " faulted by injection";
  std::cout << "\n";
  if (reload_failures.load() > 0) {
    std::cerr << "vsq_soak: " << reload_failures.load() << " reloads FAILED\n";
    return 1;
  }
  if (dropped.load() > 0) {
    std::cerr << "vsq_soak: " << dropped.load()
              << " accepted requests never resolved (dropped answers)\n";
    return 1;
  }
  if (completed.load() == 0) {
    // A soak where nothing completed proves nothing — a drain or submit
    // regression that rejects every request must not read as a pass.
    std::cerr << "vsq_soak: no requests completed (all " << rejected.load() + shed.load()
              << " rejected or shed)\n";
    return 1;
  }
  if (reloads.load() == 0 && rejected.load() > 0 && !external && !chaos) {
    // Rejections are only legitimate as collateral of a hot reload; with
    // no reload cycle performed, every one of them is a serving bug.
    // (Under chaos, injected worker deaths legitimately answer
    // kUnavailable with no reload involved.)
    std::cerr << "vsq_soak: " << rejected.load()
              << " requests rejected with no reload in flight\n";
    return 1;
  }
  if (!shed_possible && shed.load() > 0) {
    std::cerr << "vsq_soak: " << shed.load()
              << " requests shed under blocking admission (must be impossible)\n";
    return 1;
  }
  if (expect_shed && shed.load() == 0) {
    std::cerr << "vsq_soak: --expect-shed but no request was shed (overload never bit)\n";
    return 1;
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (model_completed[m].load() == 0) {
      // Healthy totals can hide one model starved into 100% rejections.
      std::cerr << "vsq_soak: model " << models[m].name << " completed zero requests\n";
      return 1;
    }
  }

  // ---- Network-mode cross-checks: client-observed counts, the server's
  // frame counters and the registry's per-model stats must tell one story.
  if (net && !external && server) {
    // Exact ledger equality only holds without injection: a torn write
    // can send a frame (counted server-side) the client never decoded.
    if (!chaos) {
      std::uint64_t stats_shed = 0;
      for (const auto& [name, snap] : registry.stats_all()) stats_shed += snap.shed;
      // Client sheds came through the wire 1:1 (QueueFullError is the only
      // shed source and every one was answered with a kShed frame). The
      // slow-client "send and vanish" request may add an extra frames_ok
      // the clients never counted, hence >= on that side.
      if (server->frames_shed() != shed.load() || stats_shed != shed.load()) {
        std::cerr << "vsq_soak: shed counters disagree: clients saw " << shed.load()
                  << ", server sent " << server->frames_shed() << ", registry recorded "
                  << stats_shed << "\n";
        return 1;
      }
    }
    if (server->frames_ok() < completed.load()) {
      std::cerr << "vsq_soak: server frames_ok " << server->frames_ok()
                << " < client completions " << completed.load() << "\n";
      return 1;
    }
    try {
      if (vsq::net::http_get(host, port, "/healthz") != "ok\n") {
        std::cerr << "vsq_soak: /healthz did not answer ok\n";
        return 1;
      }
      const std::string stats = vsq::net::http_get(host, port, "/stats");
      if (stats.find("\"queue_depth\"") == std::string::npos ||
          stats.find("\"frames_by_status\"") == std::string::npos) {
        std::cerr << "vsq_soak: /stats JSON missing expected counters: " << stats << "\n";
        return 1;
      }
      if (!chaos &&
          stats.find("\"frames_shed\":" + std::to_string(shed.load())) == std::string::npos) {
        std::cerr << "vsq_soak: /stats JSON shed count disagrees with clients: " << stats << "\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "vsq_soak: stats endpoint failed: " << e.what() << "\n";
      return 1;
    }
    server->stop();
  }
  if (rss_before > 0) {
    const std::uint64_t rss_after = rss_bytes();
    // Generous backstop: fixed-size latency histograms + bounded queues
    // mean serving memory is flat even under fault churn (restarted
    // workers, rolled-back reloads); catch only a real leak, not
    // allocator noise.
    if (rss_after > rss_before + (64ull << 20)) {
      std::cerr << "vsq_soak: RSS grew " << (rss_after - rss_before) / (1ull << 20)
                << " MiB over the soak (leak?)\n";
      return 1;
    }
    std::cout << "rss: " << rss_before / (1ull << 20) << " -> " << rss_after / (1ull << 20)
              << " MiB\n";
  }

  if (check) {
    if (mismatches.load() > 0) {
      std::cerr << "vsq_soak: " << mismatches.load() << " of " << audited.load()
                << " audited responses MISMATCHED the sequential reference\n";
      return 1;
    }
    if (audited.load() == 0) {
      std::cerr << "vsq_soak: audit enabled but zero responses audited\n";
      return 1;
    }
    std::cout << "integer datapath: " << datapath_stats.vector_ops << " vector ops, "
              << static_cast<int>(100.0 * datapath_stats.gateable_fraction()) << "% gateable\n";
    std::cout << audited.load() << " responses verified bit-identical to sequential execution\n";
  }
  return 0;
}
