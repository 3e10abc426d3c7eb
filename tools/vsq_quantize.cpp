// vsq_quantize — PTQ-calibrate a model at a hardware configuration given
// in the paper's W/A/ws/as notation and export the integer deployment
// package (quant/export.h).
//
//   vsq_quantize --model=tiny|tiny_conv|tiny_bert|resnet|bert_base|bert_large
//                --config=4/8/6/10
//                [--out=artifacts/model_int.vsqa] [--vector=16] [--threads=N]
//
// --threads=N pins the global thread pool (0 = hardware concurrency; the
// VSQ_THREADS environment variable is the fallback) so benchmark runs are
// reproducible on shared machines. An unknown flag, a malformed value
// (--config=bogus, --vector=abc), a positional argument or an unknown
// VSQ_ISA value is a usage error (exit 2, nothing exported). An --out
// path that cannot be written exits 1 with one line on stderr.
//
// --model=tiny is a randomly-initialized 2-layer MLP and --model=tiny_conv
// a randomly-initialized tiny residual CNN; neither needs a trained
// checkpoint — they exercise the full calibrate/export path in
// milliseconds (used by the ctest smoke tests and servable by vsq_soak:
// their packages carry the forward program QuantizedModelRunner executes,
// tiny_conv's with conv/residual/pool ops and the input geometry).
// --model=resnet also attaches the CNN forward program, so the trained
// ResNetV package serves end-to-end.
#include <iostream>
#include <optional>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "quant/export.h"
#include "util/args.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace vsq;
  const std::optional<Args> parsed = parse_args("vsq_quantize", argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  if (!apply_threads_flag(args)) return 1;
  const std::string which = args.get_str("model", "resnet");
  MacConfig mac = args.get_parsed("config", MacConfig::parse("4/8/6/10"), MacConfig::parse);
  mac.vector_size = args.get_int("vector", 16);
  mac.act_unsigned = which == "resnet" || which == "tiny_conv";
  // Resolved lazily so --model=tiny with an explicit --out never touches
  // the artifacts directory.
  std::string out = args.get_str("out", "");
  // A mistyped flag (--confg) must not export a package at the default.
  if (!reject_bad_flags("vsq_quantize", args)) return 2;

  QuantizedModelPackage pkg;
  if (which == "tiny") {
    // Deliberately no ModelZoo here: tiny is checkpoint-free, and the zoo
    // constructor's fingerprint check may evict cached trained models.
    pkg = tiny_mlp_package(mac);
  } else if (which == "tiny_conv") {
    // Checkpoint-free like tiny, but a residual CNN: the package carries
    // conv geometry, the conv/residual/pool forward program and the input
    // image shape.
    pkg = tiny_conv_package(mac);
  } else if (which == "tiny_bert") {
    // Checkpoint-free transformer encoder: the package carries the
    // embed/layernorm/attention program, the sequence geometry and the fp
    // layernorm/embedding parameter sets (activations stay signed).
    pkg = tiny_bert_package(mac);
  } else if (which == "resnet") {
    ModelZoo zoo(artifacts_dir());
    auto model = zoo.resnet();
    pkg = calibrate_and_export(model->gemms(), mac.weight_spec(), mac.act_spec(), [&] {
      model->forward(zoo.image_calib().batch_images(0, zoo.image_calib().size()), false);
    });
    pkg.program = model->export_program();
    pkg.in_h = model->config().in_h;
    pkg.in_w = model->config().in_w;
    pkg.in_c = model->config().in_c;
  } else if (which == "bert_base" || which == "bert_large") {
    ModelZoo zoo(artifacts_dir());
    auto model = which == "bert_large" ? zoo.bert_large() : zoo.bert_base();
    mac.act_unsigned = false;
    pkg = calibrate_and_export(model->gemms(), mac.weight_spec(), mac.act_spec(), [&] {
      model->forward(zoo.span_calib().batch_tokens(0, zoo.span_calib().size()), false);
    });
  } else {
    std::cerr << "unknown --model=" << which << "\n";
    return 1;
  }
  if (out.empty()) out = artifacts_dir() + "/" + which + "_int.vsqa";
  try {
    pkg.save(out);
  } catch (const std::exception& e) {
    std::cerr << "vsq_quantize: " << e.what() << "\n";
    return 1;
  }
  std::cout << "exported " << pkg.layers.size() << " layers at config " << mac.str() << " ("
            << mac.granularity_label() << ") -> " << out << "\n";
  return 0;
}
