// vsq_train — (re)train the stand-in models and cache checkpoints under
// the artifacts directory.
//
//   vsq_train [--model=resnet|bert_base|bert_large|all] [--force] [--threads=N]
//
// --force deletes the existing checkpoint first so the model retrains.
// --threads=N pins the global thread pool (0 = hardware concurrency; the
// VSQ_THREADS environment variable is the fallback) for reproducible runs
// on shared machines. An unknown flag or a positional argument is a usage
// error (exit 2, nothing trained).
#include <cstdio>
#include <iostream>
#include <optional>

#include "exp/experiment_context.h"
#include "models/zoo.h"
#include "util/args.h"

int main(int argc, char** argv) {
  using namespace vsq;
  const std::optional<Args> parsed = parse_args("vsq_train", argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  if (!apply_threads_flag(args)) return 1;
  const std::string which = args.get_str("model", "all");
  const bool force = args.get_flag("force");
  if (!reject_unknown_flags("vsq_train", args)) return 2;

  ModelZoo zoo(artifacts_dir());
  const auto maybe_remove = [&](const char* ckpt) {
    if (force) std::remove((zoo.artifacts_dir() + "/" + ckpt).c_str());
  };

  if (which == "resnet" || which == "all") {
    maybe_remove("resnetv.vsqa");
    auto m = zoo.resnet();
    std::cout << "resnetv: top-1 " << eval_resnet(*m, zoo.image_test()) << "%\n";
  }
  if (which == "bert_base" || which == "all") {
    maybe_remove("bert_base.vsqa");
    auto m = zoo.bert_base();
    std::cout << "bert_base: F1 " << eval_transformer(*m, zoo.span_test()) << "\n";
  }
  if (which == "bert_large" || which == "all") {
    maybe_remove("bert_large.vsqa");
    auto m = zoo.bert_large();
    std::cout << "bert_large: F1 " << eval_transformer(*m, zoo.span_test()) << "\n";
  }
  if (which != "resnet" && which != "bert_base" && which != "bert_large" && which != "all") {
    std::cerr << "unknown --model=" << which << "\n";
    return 1;
  }
  return 0;
}
