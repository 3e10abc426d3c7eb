// vsq_serve — closed-loop load generator for the batched inference
// serving engine (src/serve/). Loads an exported package, spins up an
// InferenceSession, hammers it from N client threads (each client waits
// for its previous response before sending the next request), and prints
// a latency/throughput stats table plus a machine-readable JSON line.
//
//   vsq_serve --package=artifacts/tiny_int.vsqa
//             [--clients=8] [--requests=256]        total requests, split
//             [--max-batch=16] [--max-wait-us=0]    batcher knobs
//             [--cache=0] [--unique=32]             result-cache entries /
//                                                   distinct inputs per run
//             [--scale-bits=-1] [--seed=1] [--threads=N]
//             [--datapath-stats]                    aggregate IntGemmStats
//             [--no-check]                          skip the bit-exactness
//                                                   audit vs sequential
//
// The package must carry a forward program (vsq_quantize --model=tiny
// writes one); MLP-style packages without one fall back to lexicographic
// layer order with ReLU between layers. Sequence packages (vsq_quantize
// --model=tiny_bert) are served with token rows of random length in
// [1, max_seq], so the run exercises mixed-length batches (counted as
// mixed_bucket_batches in the JSON line).
#include <algorithm>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "kernels/isa.h"
#include "serve/session.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace vsq;

struct ClientLog {
  std::vector<Tensor> inputs;
  std::vector<Tensor> outputs;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vsq;
  const Args args(argc, argv);
  if (!apply_threads_flag(args)) return 1;
  const std::string path = args.get_str("package", "artifacts/tiny_int.vsqa");
  const int clients = std::max(1, args.get_int("clients", 8));
  const int total_requests = std::max(1, args.get_int("requests", 256));
  const bool check = !args.get_flag("no-check");
  const int unique = std::max(1, args.get_int("unique", 32));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  ServeConfig cfg;
  cfg.max_batch = std::max(1, args.get_int("max-batch", 16));
  cfg.max_wait_us = std::max(0, args.get_int("max-wait-us", 0));
  cfg.cache_entries = static_cast<std::size_t>(std::max(0, args.get_int("cache", 0)));
  cfg.scale_product_bits = args.get_int("scale-bits", -1);
  cfg.collect_datapath_stats = args.get_flag("datapath-stats");

  QuantizedModelPackage pkg = QuantizedModelPackage::load(path);
  InferenceSession session(std::move(pkg), cfg);
  const std::int64_t in_features = session.runner().in_features();
  // Sequence packages take unpadded token rows of varying length; the
  // generator mixes lengths so the run actually exercises mixed-length
  // batches.
  const bool seq = session.runner().seq();

  std::cout << "serving " << path << ": " << session.package().layers.size() << " layers, ";
  if (seq) {
    std::cout << "sequence max_seq=" << session.runner().max_seq()
              << " vocab=" << session.runner().vocab()
              << " out/token=" << session.runner().out_per_token() << ", ";
  } else {
    std::cout << in_features << " -> " << session.runner().out_features() << " features, ";
  }
  std::cout << clients << " clients x " << (total_requests / clients) << "+ requests, max_batch="
            << cfg.max_batch << ", max_wait=" << cfg.max_wait_us << "us, cache="
            << cfg.cache_entries << "\n";
  std::cout << "cpu: " << isa::summary() << "\n";

  const auto gen_input = [&](Rng& rng) {
    if (seq) {
      const auto max_seq = static_cast<std::uint64_t>(session.runner().max_seq());
      const std::int64_t len = static_cast<std::int64_t>(1 + rng.uniform_u64(max_seq));
      Tensor t(Shape{len});
      for (auto& v : t.span()) {
        v = static_cast<float>(
            rng.uniform_u64(static_cast<std::uint64_t>(session.runner().vocab())));
      }
      return t;
    }
    Tensor t(Shape{in_features});
    for (auto& v : t.span()) v = static_cast<float>(rng.normal());
    return t;
  };

  // Deterministic inputs, pre-generated before the clock starts (the
  // generator must not bill payload synthesis to the engine). With
  // --cache, clients draw from a shared pool of `unique` vectors so
  // repeats actually occur; otherwise every request gets a fresh vector.
  const bool pooled = cfg.cache_entries > 0;
  std::vector<Tensor> pool;
  if (pooled) {
    Rng prng(seed);
    for (int i = 0; i < unique; ++i) pool.push_back(gen_input(prng));
  }
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    // Spread the remainder so exactly total_requests get sent.
    const int n = total_requests / clients + (c < total_requests % clients ? 1 : 0);
    Rng rng(seed + 1000003ull * static_cast<std::uint64_t>(c + 1));
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    log.inputs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (pooled) {
        log.inputs.push_back(pool[rng.uniform_u64(static_cast<std::uint64_t>(pool.size()))]);
      } else {
        log.inputs.push_back(gen_input(rng));
      }
    }
    log.outputs.resize(log.inputs.size());
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < log.inputs.size(); ++i) {
        // Closed loop: wait for each response before the next request.
        log.outputs[i] = session.infer(log.inputs[i]);
      }
    });
  }
  for (auto& t : threads) t.join();

  const ServeStatsSnapshot snap = session.stats();
  session.shutdown();

  snap.print_table(std::cout);
  if (cfg.collect_datapath_stats) {
    const IntGemmStats dp = session.datapath_stats();
    std::cout << "integer datapath: " << dp.vector_ops << " vector ops, "
              << static_cast<int>(100.0 * dp.gateable_fraction()) << "% gateable\n";
  }
  std::cout << snap.json() << "\n";

  if (check) {
    // Audit: every served output must be bit-identical to sequential
    // single-sample execution through the same runner.
    const QuantizedModelRunner& runner = session.runner();
    std::uint64_t checked = 0;
    for (const ClientLog& log : logs) {
      for (std::size_t i = 0; i < log.inputs.size(); ++i) {
        // Sequence inputs replay at their own true length [1, L]; the
        // served row and the sequential reference are both [1, L * opt].
        const Tensor ref =
            runner.forward(log.inputs[i].reshape(Shape{1, log.inputs[i].numel()}));
        const Tensor& got = log.outputs[i];
        for (std::int64_t j = 0; j < ref.numel(); ++j) {
          if (ref[j] != got[j]) {
            std::cerr << "MISMATCH: request " << checked << " output " << j << ": served "
                      << got[j] << " vs sequential " << ref[j] << "\n";
            return 1;
          }
        }
        ++checked;
      }
    }
    std::cout << checked << " outputs verified bit-identical to sequential execution\n";
  }
  return 0;
}
