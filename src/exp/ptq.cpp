#include "exp/ptq.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "hw/mac_config.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/logging.h"

namespace vsq {

void apply_quant_specs(const std::vector<QuantizableGemm*>& gemms, const QuantSpec& weight_spec,
                       const QuantSpec& act_spec) {
  bool first = true;
  for (QuantizableGemm* g : gemms) {
    QuantSpec as = act_spec;
    if (first) {
      as.fmt.is_signed = true;
      first = false;
    }
    g->set_quant(weight_spec, as);
  }
}

void set_mode_all(const std::vector<QuantizableGemm*>& gemms, QuantMode mode) {
  for (QuantizableGemm* g : gemms) g->set_quant_mode(mode);
}

void finalize_calibration(const std::vector<QuantizableGemm*>& gemms) {
  for (QuantizableGemm* g : gemms) g->calibrate_finalize();
}

PtqRunner::PtqRunner(ModelZoo& zoo) : zoo_(zoo), cache_(zoo.artifacts_dir() + "/accuracy_cache.tsv") {}

double PtqRunner::resnet_accuracy(const QuantSpec& weight_spec, const QuantSpec& act_spec) {
  const std::string key = accuracy_key("resnetv", weight_spec, act_spec);
  return cache_.get_or_compute(key, [&] {
    const double acc = eval_resnet_quantized(weight_spec, act_spec);
    VSQ_LOG(Info) << key << " -> " << acc;
    return acc;
  });
}

double PtqRunner::bert_accuracy(bool large, const QuantSpec& weight_spec,
                                const QuantSpec& act_spec) {
  const std::string key =
      accuracy_key(large ? "bert_large" : "bert_base", weight_spec, act_spec);
  return cache_.get_or_compute(key, [&] {
    const double f1 = eval_bert_quantized(large, weight_spec, act_spec);
    VSQ_LOG(Info) << key << " -> " << f1;
    return f1;
  });
}

double PtqRunner::eval_resnet_quantized(const QuantSpec& w, const QuantSpec& a) {
  if (!resnet_) resnet_ = zoo_.resnet(/*folded=*/true);
  auto gemms = resnet_->gemms();
  apply_quant_specs(gemms, w, a);
  set_mode_all(gemms, QuantMode::kCalibrate);
  const ImageDataset& calib = zoo_.image_calib();
  for (std::int64_t i0 = 0; i0 < calib.size(); i0 += 64) {
    const std::int64_t i1 = std::min(calib.size(), i0 + 64);
    resnet_->forward(calib.batch_images(i0, i1), /*train=*/false);
  }
  finalize_calibration(gemms);
  set_mode_all(gemms, QuantMode::kQuantEval);
  const double acc = eval_resnet(*resnet_, zoo_.image_test());
  set_mode_all(gemms, QuantMode::kOff);
  return acc;
}

QuantizedModelPackage calibrate_and_export(const std::vector<QuantizableGemm*>& gemms,
                                           const QuantSpec& weight_spec,
                                           const QuantSpec& act_spec,
                                           const std::function<void()>& calibrate) {
  apply_quant_specs(gemms, weight_spec, act_spec);
  set_mode_all(gemms, QuantMode::kCalibrate);
  calibrate();
  finalize_calibration(gemms);
  set_mode_all(gemms, QuantMode::kQuantEval);
  QuantizedModelPackage pkg;
  for (QuantizableGemm* g : gemms) {
    if (const auto* conv = dynamic_cast<const Conv2d*>(g)) {
      pkg.layers[g->gemm_name()] = export_conv(*conv);
    } else {
      // The layer's fp bias ships with the package (the fp model applies it
      // after the GEMM; the served datapath must too).
      std::vector<float> bias;
      if (auto* lin = dynamic_cast<Linear*>(g); lin && lin->has_bias()) {
        bias = lin->bias().value.to_vector();
      }
      pkg.layers[g->gemm_name()] = export_gemm(*g, bias);
    }
  }
  set_mode_all(gemms, QuantMode::kOff);
  return pkg;
}

QuantizedModelPackage tiny_mlp_package(const MacConfig& mac) {
  Rng rng(7);
  TinyMlp model(rng);
  Tensor calib(Shape{32, TinyMlp::kIn});
  for (auto& v : calib.span()) v = static_cast<float>(rng.normal());
  QuantizedModelPackage pkg =
      calibrate_and_export(model.gemms(), mac.weight_spec(), mac.act_spec(),
                           [&] { model.forward(calib, false); });
  pkg.program = TinyMlp::program();
  return pkg;
}

QuantizedModelPackage tiny_conv_package(const MacConfig& mac) {
  const ResNetVConfig config = tiny_conv_config();
  ResNetV model(config);
  model.fold_batchnorm();
  // uniform() is pure integer/IEEE arithmetic (no libm), so the
  // calibration stream — and therefore the exported package — is
  // bit-reproducible on every platform.
  Rng rng(7);
  Tensor calib(Shape{16, config.in_h, config.in_w, config.in_c});
  for (auto& v : calib.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  QuantizedModelPackage pkg =
      calibrate_and_export(model.gemms(), mac.weight_spec(), mac.act_spec(),
                           [&] { model.forward(calib, false); });
  pkg.program = model.export_program();
  pkg.in_h = config.in_h;
  pkg.in_w = config.in_w;
  pkg.in_c = config.in_c;
  return pkg;
}

QuantizedModelPackage tiny_bert_package(const MacConfig& mac) {
  return transformer_package(tiny_bert_config(), mac);
}

QuantizedModelPackage transformer_package(const TransformerConfig& config, const MacConfig& mac) {
  TransformerEncoder model(config);
  // Token ids drawn with uniform() only (no libm), floored to exact small
  // integers — the calibration stream, and therefore the exported
  // package, is bit-reproducible on every platform.
  Rng rng(7);
  Tensor calib(Shape{32, config.max_len});
  for (auto& v : calib.span()) {
    auto id = static_cast<std::int64_t>(rng.uniform(0.0, static_cast<double>(config.vocab)));
    if (id >= config.vocab) id = config.vocab - 1;
    v = static_cast<float>(id);
  }
  QuantizedModelPackage pkg =
      calibrate_and_export(model.gemms(), mac.weight_spec(), mac.act_spec(),
                           [&] { model.forward(calib, false); });
  pkg.program = model.export_program();
  pkg.max_seq = config.max_len;
  pkg.seq_dim = config.dim;
  pkg.heads = config.heads;

  // The fp side of the recipe: layernorm affines and embedding tables ship
  // unquantized, pulled from the model's named parameters.
  std::map<std::string, const Tensor*> by_name;
  for (Param* p : model.params()) by_name.emplace(p->name, &p->value);
  const auto fp = [&](const std::string& n) { return by_name.at(n)->to_vector(); };
  EmbeddingPackage emb;
  emb.vocab = config.vocab;
  emb.max_len = config.max_len;
  emb.dim = config.dim;
  emb.tok = fp("emb.tok");
  emb.pos = fp("emb.pos");
  pkg.embeddings.emplace("emb", std::move(emb));
  const auto add_ln = [&](const std::string& n) {
    LayerNormPackage ln;
    ln.gamma = fp(n + ".gamma");
    ln.beta = fp(n + ".beta");
    pkg.norms.emplace(n, std::move(ln));
  };
  for (int l = 0; l < config.layers; ++l) {
    add_ln("layer" + std::to_string(l) + ".ln1");
    add_ln("layer" + std::to_string(l) + ".ln2");
  }
  add_ln("final_ln");
  return pkg;
}

QuantizedModelPackage builtin_serving_package(const std::string& which) {
  if (which == "tiny") {
    return tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  }
  if (which == "tiny8") {
    // Same MLP graph at a wider integer configuration: exercises a second
    // set of operand widths (and scale formats) through the same registry.
    return tiny_mlp_package(MacConfig::parse("8/8/6/6"));
  }
  if (which == "tiny_bert") {
    // Activations stay signed: embeddings and pre-LN activations are
    // zero-mean, not post-ReLU.
    return tiny_bert_package(MacConfig::parse("4/8/6/10"));
  }
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;  // post-ReLU activations, as vsq_quantize does
  if (which == "tiny_conv") {
    return tiny_conv_package(mac);
  }
  if (which == "resnet") {
    // Untrained ResNetV at the default 16x16 scale: the full residual CNN
    // topology (stem, plain + projection-shortcut blocks, pool, fc head)
    // without needing a trained checkpoint. Deterministic seeds make every
    // rebuild bit-identical.
    ResNetVConfig config;
    config.blocks_per_stage = 1;
    config.seed = 11;
    ResNetV model(config);
    model.fold_batchnorm();
    Rng rng(11);
    Tensor calib(Shape{8, config.in_h, config.in_w, config.in_c});
    for (auto& v : calib.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    QuantizedModelPackage pkg =
        calibrate_and_export(model.gemms(), mac.weight_spec(), mac.act_spec(),
                             [&] { model.forward(calib, false); });
    pkg.program = model.export_program();
    pkg.in_h = config.in_h;
    pkg.in_w = config.in_w;
    pkg.in_c = config.in_c;
    return pkg;
  }
  throw std::invalid_argument("unknown builtin model: " + which);
}

QuantizedModelPackage ServingModelSpec::build() const {
  return path.empty() ? builtin_serving_package(name) : QuantizedModelPackage::load(path);
}

std::vector<ServingModelSpec> parse_serving_models(const std::string& builtin,
                                                   const std::string& packages) {
  // Comma-separated items, empty ones skipped.
  const auto split = [](const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start < s.size()) {
      const std::size_t end = std::min(s.find(',', start), s.size());
      if (end > start) out.push_back(s.substr(start, end - start));
      start = end + 1;
    }
    return out;
  };
  std::vector<ServingModelSpec> specs;
  for (const std::string& which : split(builtin)) specs.push_back({which, ""});
  for (const std::string& spec : split(packages)) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      throw std::invalid_argument("--packages entries must be name=path, got: " + spec);
    }
    specs.push_back({spec.substr(0, eq), spec.substr(eq + 1)});
  }
  if (specs.empty()) {
    throw std::invalid_argument("no models (--builtin and --packages both empty)");
  }
  return specs;
}

Tensor random_serving_input(const QuantizedModelRunner& runner, Rng& rng) {
  if (runner.seq()) {
    const auto len = static_cast<std::int64_t>(
        1 + rng.uniform_u64(static_cast<std::uint64_t>(runner.max_seq())));
    Tensor t(Shape{1, len});
    for (auto& v : t.span()) {
      v = static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(runner.vocab())));
    }
    return t;
  }
  Tensor t(Shape{1, runner.in_features()});
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

double PtqRunner::eval_bert_quantized(bool large, const QuantSpec& w, const QuantSpec& a) {
  auto& slot = large ? large_ : base_;
  if (!slot) slot = large ? zoo_.bert_large() : zoo_.bert_base();
  auto gemms = slot->gemms();
  apply_quant_specs(gemms, w, a);
  set_mode_all(gemms, QuantMode::kCalibrate);
  const SpanDataset& calib = zoo_.span_calib();
  for (std::int64_t i0 = 0; i0 < calib.size(); i0 += 64) {
    const std::int64_t i1 = std::min(calib.size(), i0 + 64);
    slot->forward(calib.batch_tokens(i0, i1), /*train=*/false);
  }
  finalize_calibration(gemms);
  set_mode_all(gemms, QuantMode::kQuantEval);
  const double f1 = eval_transformer(*slot, zoo_.span_test());
  set_mode_all(gemms, QuantMode::kOff);
  return f1;
}

}  // namespace vsq
