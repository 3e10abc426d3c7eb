// vsq_serve_net — TCP network front-end for the multi-model serving
// registry (src/net/server.h over src/serve/registry.h). Loads builtin
// and/or archived models, binds a port, and serves the length-prefixed
// binary inference protocol plus the GET /stats and GET /healthz text
// endpoints until SIGINT/SIGTERM.
//
//   vsq_serve_net [--builtin=tiny,tiny8,...]     deterministic builtins
//                 [--packages=name=path,...]     .vsqa archives
//                 [--host=127.0.0.1] [--port=0]  0 = ephemeral, see banner
//                 [--max-connections=64]
//                 [--max-batch=16] [--max-wait-us=0] [--cache=0]
//                 [--scale-bits=-1] [--threads=N]
//                 [--queue-depth=256]            bounded per-model queue
//                 [--admission-timeout-us=0]     0 = shed immediately when
//                                                full; -1 = block (no shed)
//                 [--selfcheck]                  loopback round trip + exit
//
// Serving a network port wants explicit load shedding, so unlike the
// in-process tools the queue is bounded by default and a full queue
// answers kShed instead of stalling the connection. The startup banner
// "vsq_serve_net listening on HOST:PORT" is printed (and flushed) once
// the socket is live, so scripts can scrape the ephemeral port. An
// unknown flag or a positional argument is a usage error (exit 2).
#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "exp/ptq.h"
#include "kernels/isa.h"
#include "net/client.h"
#include "net/server.h"
#include "util/args.h"

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vsq;
  const std::optional<Args> parsed = parse_args("vsq_serve_net", argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  if (!apply_threads_flag(args)) return 2;
  const std::string packages = args.get_str("packages", "");
  const std::string builtin = args.get_str("builtin", packages.empty() ? "tiny" : "");
  const bool selfcheck = args.get_flag("selfcheck");

  ServeConfig cfg;
  cfg.max_batch = std::max(1, args.get_int("max-batch", 16));
  cfg.max_wait_us = std::max(0, args.get_int("max-wait-us", 0));
  cfg.cache_entries = static_cast<std::size_t>(std::max(0, args.get_int("cache", 0)));
  cfg.scale_product_bits = args.get_int("scale-bits", -1);
  cfg.queue_depth = static_cast<std::size_t>(std::max(0, args.get_int("queue-depth", 256)));
  cfg.admission_timeout_us = args.get_int("admission-timeout-us", 0);

  vsq::net::NetServerConfig net_cfg;
  net_cfg.host = args.get_str("host", "127.0.0.1");
  net_cfg.port = args.get_int("port", 0);
  net_cfg.max_connections = std::max(1, args.get_int("max-connections", 64));
  if (!reject_unknown_flags("vsq_serve_net", args)) return 2;

  std::vector<ServingModelSpec> models;
  try {
    models = parse_serving_models(builtin, packages);
  } catch (const std::invalid_argument& e) {
    std::cerr << "vsq_serve_net: " << e.what() << "\n";
    return 2;
  }
  ModelRegistry registry(cfg);
  try {
    for (const ServingModelSpec& m : models) registry.load(m.name, m.build());
  } catch (const std::exception& e) {
    std::cerr << "vsq_serve_net: model load failed: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    vsq::net::NetServer server(registry, net_cfg);
    std::cout << "serving " << models.size() << " models (";
    for (std::size_t i = 0; i < models.size(); ++i) std::cout << (i ? ", " : "") << models[i].name;
    std::cout << "), max_batch=" << cfg.max_batch << ", queue_depth=" << cfg.queue_depth
              << ", admission_timeout_us=" << cfg.admission_timeout_us << "\n";
    std::cout << "cpu: " << isa::summary() << "\n";
    std::cout << "vsq_serve_net listening on " << server.host() << ":" << server.port()
              << std::endl;  // flushed: scripts scrape the ephemeral port from this line

    if (selfcheck) {
      // Loopback round trip through the real socket path: inference
      // against the first model, plus both text endpoints. Sequence
      // models get token rows at two lengths over the wire; every row
      // is audited bit-exact against local sequential execution
      // through the same runner.
      vsq::net::NetClient client(server.host(), server.port());
      const QuantizedModelRunner& runner = registry.session(models.front().name)->runner();
      std::vector<std::vector<float>> payloads;
      if (runner.seq()) {
        const auto max_seq = static_cast<std::size_t>(runner.max_seq());
        for (const std::size_t len : {std::max<std::size_t>(1, max_seq / 4), max_seq}) {
          std::vector<float> row(len);
          for (std::size_t j = 0; j < len; ++j) {
            row[j] = static_cast<float>((3 * j + 1) % static_cast<std::size_t>(runner.vocab()));
          }
          payloads.push_back(std::move(row));
        }
      } else {
        const auto in = static_cast<std::size_t>(runner.in_features());
        payloads.emplace_back(in, 0.25f);
      }
      vsq::net::ResponseFrame resp;
      for (const auto& payload : payloads) {
        resp = client.infer(models.front().name, payload);
        if (resp.status != vsq::net::Status::kOk) {
          std::cerr << "vsq_serve_net: selfcheck inference failed: "
                    << vsq::net::status_name(resp.status) << " " << resp.message << "\n";
          return 1;
        }
        const Tensor ref = runner.forward(Tensor::from_vector(
            Shape{1, static_cast<std::int64_t>(payload.size())}, payload));
        if (static_cast<std::int64_t>(resp.row.size()) != ref.numel() ||
            std::memcmp(resp.row.data(), ref.data(),
                        resp.row.size() * sizeof(float)) != 0) {
          std::cerr << "vsq_serve_net: selfcheck wire output differs from local "
                       "sequential execution\n";
          return 1;
        }
      }
      if (vsq::net::http_get(server.host(), server.port(), "/healthz") != "ok\n") {
        std::cerr << "vsq_serve_net: selfcheck /healthz mismatch\n";
        return 1;
      }
      const std::string stats = vsq::net::http_get(server.host(), server.port(), "/stats");
      if (stats.find("\"frames_ok\":" + std::to_string(payloads.size())) == std::string::npos) {
        std::cerr << "vsq_serve_net: selfcheck /stats missing frames_ok: " << stats << "\n";
        return 1;
      }
      std::cout << "selfcheck ok: " << resp.row.size() << " output features, stats "
                << stats.size() << " bytes\n";
      return 0;
    }

    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::cout << "shutting down\n";
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "vsq_serve_net: " << e.what() << "\n";
    return 1;
  }
  registry.print_stats(std::cout);
  return 0;
}
