// Post-training-quantization pipeline (paper Sec. 3-4):
//   1. configure every weighted GEMM in the model with (weight, act) specs
//      (the first GEMM's activations stay signed — raw inputs/embeddings)
//   2. stream calibration batches through the fp32 model to collect
//      activation statistics (amax / histograms / two-level gamma)
//   3. evaluate on the test split with simulated quantization
// Results are cached in artifacts/accuracy_cache.tsv keyed by the spec
// strings, so table benches and design-space figures share evaluations.
#pragma once

#include <functional>
#include <memory>

#include "exp/experiment_context.h"
#include "models/zoo.h"
#include "quant/export.h"
#include "util/result_cache.h"
#include "util/rng.h"

namespace vsq {

class PtqRunner {
 public:
  explicit PtqRunner(ModelZoo& zoo);

  // Accuracy of the quantized model (top-1 % for the CNN, F1 % for BERT).
  double resnet_accuracy(const QuantSpec& weight_spec, const QuantSpec& act_spec);
  double bert_accuracy(bool large, const QuantSpec& weight_spec, const QuantSpec& act_spec);

  ModelZoo& zoo() { return zoo_; }

 private:
  double eval_resnet_quantized(const QuantSpec& w, const QuantSpec& a);
  double eval_bert_quantized(bool large, const QuantSpec& w, const QuantSpec& a);

  ModelZoo& zoo_;
  ResultCache cache_;
  std::unique_ptr<ResNetV> resnet_;  // lazily built, reused across configs
  std::unique_ptr<TransformerEncoder> base_, large_;
};

// Configure quantization on a set of GEMMs (first layer's activations are
// forced signed: raw images / embeddings are not post-ReLU).
void apply_quant_specs(const std::vector<QuantizableGemm*>& gemms, const QuantSpec& weight_spec,
                       const QuantSpec& act_spec);
// Switch all GEMMs to a mode; finalize calibration when leaving kCalibrate.
void set_mode_all(const std::vector<QuantizableGemm*>& gemms, QuantMode mode);
void finalize_calibration(const std::vector<QuantizableGemm*>& gemms);

// Full PTQ-to-deployment flow shared by vsq_quantize, the serving tests
// and serve_bench: configure specs on every GEMM, run `calibrate` (which
// must stream calibration batches through the model's fp32 forward),
// finalize, and export each GEMM as a package layer — Conv2d layers via
// export_conv (geometry + folded-BN bias), everything else via
// export_gemm. GEMMs are left in kOff mode. The returned package has an
// empty forward program — callers that want QuantizedModelRunner
// execution fill pkg.program (and the input geometry for CNNs).
QuantizedModelPackage calibrate_and_export(const std::vector<QuantizableGemm*>& gemms,
                                           const QuantSpec& weight_spec,
                                           const QuantSpec& act_spec,
                                           const std::function<void()>& calibrate);

struct MacConfig;

// The deterministic TinyMlp deployment package (seed 7, 32-row normal
// calibration batch, forward program attached). vsq_quantize
// --model=tiny, the serving tests/bench and the golden-archive contract
// all build EXACTLY this — keep them on this one definition so they can
// never drift apart.
QuantizedModelPackage tiny_mlp_package(const MacConfig& mac);

// The deterministic tiny CNN deployment package (models/zoo.h
// tiny_conv_config, BatchNorms folded, 16-image uniform calibration batch,
// ResNetV::export_program + input geometry attached). vsq_quantize
// --model=tiny_conv, the conv serving smoke test and the tiny_conv golden
// archive all build EXACTLY this.
QuantizedModelPackage tiny_conv_package(const MacConfig& mac);

// The deterministic tiny transformer deployment package (models/zoo.h
// tiny_bert_config, untrained, 32-row uniform token-id calibration batch,
// TransformerEncoder::export_program + sequence geometry + fp layernorm /
// embedding parameter sets attached). Quantizes the per-head projection
// and FFN GEMMs and keeps softmax/layernorm/embeddings fp, the Q8BERT /
// I-BERT recipe. vsq_quantize --model=tiny_bert, the transformer serving
// smoke test and the tiny_bert golden archive all build EXACTLY this.
QuantizedModelPackage tiny_bert_package(const MacConfig& mac);

// The builtin serving-model menu shared by the soak driver and the
// network server tool (vsq_soak --builtin, vsq_serve_net --builtin), all
// deterministic — rebuilding a name yields a bit-identical package, which
// the soak's differential audit relies on across chaos reloads:
//   tiny       TinyMlp at 4/8/6/10         tiny8  TinyMlp at 8/8/6/6
//   tiny_conv  tiny CNN at 4/8/6/10 (unsigned post-ReLU activations)
//   tiny_bert  tiny transformer at 4/8/6/10 (signed embeddings/activations)
//   resnet     untrained full ResNetV topology (seed 11), same mac
// Throws std::invalid_argument for any other name.
QuantizedModelPackage builtin_serving_package(const std::string& which);

// One model a serving tool loads: a builtin_serving_package name (empty
// path) or a named .vsqa archive. build() makes a fresh package per call.
struct ServingModelSpec {
  std::string name;
  std::string path;
  QuantizedModelPackage build() const;
};

// The serving tools' model flags, --builtin=a,b and
// --packages=name=path,..., in that order. Throws std::invalid_argument
// for a --packages entry that is not name=path, or when both are empty.
std::vector<ServingModelSpec> parse_serving_models(const std::string& builtin,
                                                   const std::string& packages);

// One random request row [1, n] for the runner's model: for a sequence
// model, token ids uniform in [0, vocab) at a length uniform in
// [1, max_seq]; otherwise in_features N(0, 1) values. vsq_soak draws its
// payloads from it.
Tensor random_serving_input(const QuantizedModelRunner& runner, Rng& rng);

}  // namespace vsq
