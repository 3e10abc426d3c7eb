#include "quant/export.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fault/failpoint.h"
#include "nn/conv2d.h"
#include "nn/softmax.h"
#include "quant/int_conv.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/scratch.h"
#include "util/thread_pool.h"

namespace vsq {
namespace {

// Archive key helpers: each layer stores several named blobs.
std::string key(const std::string& layer, const char* what) { return layer + "/" + what; }

// Forward-program entries: "__program__/<index>/<layer>", data = {relu}
// for plain GEMM steps (the original encoding, so MLP archives stay
// byte-stable) or {relu, op} for the conv-era ops.
constexpr const char* kProgramPrefix = "__program__/";

// Input image geometry of spatial programs: {in_h, in_w, in_c}.
constexpr const char* kInputGeomKey = "__input__";

// Sequence geometry of transformer programs: {max_seq, dim, heads}.
constexpr const char* kSeqGeomKey = "__seq__";

// Fp parameter entries of transformer programs. Layernorm:
// "__ln__/<name>" = {dim, gamma[dim], beta[dim]}. Embedding:
// "__emb__/<name>" = {vocab, max_len, dim, tok[vocab*dim], pos[max_len*dim]}.
// Both are self-describing so load order never matters.
constexpr const char* kLayerNormPrefix = "__ln__/";
constexpr const char* kEmbeddingPrefix = "__emb__/";

ForwardStep::Op op_from_code(int code, const std::string& entry) {
  using Op = ForwardStep::Op;
  switch (code) {
    case 0: return Op::kGemm;
    case 1: return Op::kConv;
    case 2: return Op::kConvSaved;
    case 3: return Op::kSave;
    case 4: return Op::kAddSaved;
    case 5: return Op::kGlobalPool;
    case 6: return Op::kEmbed;
    case 7: return Op::kLayerNorm;
    case 8: return Op::kAttention;
    case 9: return Op::kSoftmax;
    case 10: return Op::kGelu;
    default:
      throw std::runtime_error("QuantizedModelPackage: unknown program op in " + entry);
  }
}

bool op_uses_layer(ForwardStep::Op op) {
  using Op = ForwardStep::Op;
  return op == Op::kGemm || op == Op::kConv || op == Op::kConvSaved;
}

bool op_is_sequence(ForwardStep::Op op) {
  using Op = ForwardStep::Op;
  return op == Op::kEmbed || op == Op::kLayerNorm || op == Op::kAttention;
}

void relu_inplace(Tensor& t) {
  for (auto& v : t.span()) v = v > 0.0f ? v : 0.0f;
}

// [N, H, W, C] -> [N, C] mean over the spatial positions of each image.
// Per-(image, channel) accumulation in a fixed order, so outputs are
// bit-identical for any batch composition and thread count.
Tensor global_avg_pool_nhwc(const Tensor& x) {
  const std::int64_t n = x.shape()[0], h = x.shape()[1], w = x.shape()[2], c = x.shape()[3];
  Tensor y(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* src = x.data();
  float* dst = y.data();
  for (std::int64_t img = 0; img < n; ++img) {
    float* row = dst + img * c;
    const float* base = src + img * h * w * c;
    for (std::int64_t p = 0; p < h * w; ++p) {
      const float* cell = base + p * c;
      for (std::int64_t ch = 0; ch < c; ++ch) row[ch] += cell[ch];
    }
    for (std::int64_t ch = 0; ch < c; ++ch) row[ch] *= inv;
  }
  return y;
}

std::vector<float> to_float(const std::vector<std::int16_t>& v) {
  return {v.begin(), v.end()};
}

std::vector<float> to_float_u16(const std::vector<std::uint16_t>& v) {
  return {v.begin(), v.end()};
}

// Integer metadata travels through the archive as float. A corrupted
// archive (truncation is caught earlier, but a bit flip is not) can turn
// any of those floats into NaN or a huge value, and casting such a float
// to an integer type is undefined behavior — so every conversion below is
// range-checked (NaN fails the comparison) and throws the same clean
// std::runtime_error the archive layer uses.
std::int64_t checked_i64(float v, std::int64_t lo, std::int64_t hi, const std::string& what) {
  if (!(v >= static_cast<float>(lo) && v <= static_cast<float>(hi))) {
    throw std::runtime_error("QuantizedModelPackage: " + what + " out of range");
  }
  return static_cast<std::int64_t>(v);
}

int checked_bits(float v, const std::string& what) {
  // int16 element storage and the format's shift arithmetic cap usable
  // widths well below 16; anything outside is corruption, not a config.
  return static_cast<int>(checked_i64(v, 1, 15, what));
}

int checked_scale_bits(float v, const std::string& what) {
  // Unsigned scale widths go one wider than element widths: sq is stored
  // as uint16 and MacConfig accepts up to 16-bit scales (a 16+16-bit
  // scale product still fits the uint32 multiplier).
  return static_cast<int>(checked_i64(v, 1, 16, what));
}

void check_size(std::size_t got, std::uint64_t want, const std::string& what) {
  if (got != want) {
    throw std::runtime_error("QuantizedModelPackage: " + what + " has inconsistent size");
  }
}

// Required sub-entry lookup during load: a corrupted archive can lose any
// entry (a flipped name byte is enough), and that must surface as the
// runtime_error corruption class, not Archive::get's out_of_range.
const ArchiveEntry& need(const Archive& a, const std::string& k) {
  if (!a.contains(k)) {
    throw std::runtime_error("QuantizedModelPackage: missing entry " + k);
  }
  return a.get(k);
}

}  // namespace

QuantizedLayerPackage export_gemm(const QuantizableGemm& gemm, const std::vector<float>& bias) {
  QuantizedLayerPackage pkg;
  pkg.name = gemm.gemm_name();
  const QuantSpec wspec = gemm.weight_spec();
  QuantSpec aspec = gemm.act_spec();
  if (!wspec.enabled || !aspec.enabled) {
    throw std::invalid_argument("export_gemm: layer is not quantized: " + pkg.name);
  }
  pkg.weights = quantize_weights_int(gemm.weight_matrix(), wspec);
  pkg.act_spec = aspec;
  const ActivationQuantizer* aq = gemm.act_quantizer();
  if (!aq || !aq->calibrated()) {
    throw std::logic_error("export_gemm: activation quantizer not calibrated: " + pkg.name);
  }
  pkg.act_amax = aq->static_amax();
  pkg.act_gamma = aq->gamma();
  pkg.bias = bias;
  return pkg;
}

QuantizedLayerPackage export_conv(const Conv2d& conv) {
  QuantizedLayerPackage pkg = export_gemm(
      conv, conv.has_bias() ? conv.bias().value.to_vector() : std::vector<float>{});
  pkg.kind = PackagedLayerKind::kConv;
  pkg.kernel = conv.kernel();
  pkg.stride = conv.stride();
  pkg.pad = conv.pad();
  return pkg;
}

namespace {

// Shared body of the gemm-layer paths (prepacked == nullptr packs per
// call). A batch that passes detail::row_local_quant runs the fused row
// loop: each row is quantized (per-vector rows by the panels' bound
// act-quant kernel) right before it streams through the panels, inside
// the row split. Anything else — dynamic per-tensor amax, operands too
// wide for int32 dot products, an invalid spec or mismatched operands —
// runs the materialized reference (quantize_activations_int + int_gemm),
// which computes the same bits and raises the errors.
Tensor gemm_layer_exec(const QuantizedLayerPackage& layer, const Tensor& x2d,
                       int scale_product_bits, IntGemmStats* stats,
                       const detail::IntWeightPanels* prepacked) {
  const QuantSpec& spec = layer.act_spec;
  const QuantizedMatrix& w = layer.weights;
  const std::int64_t outs = w.rows;
  if (!layer.bias.empty() && static_cast<std::int64_t>(layer.bias.size()) != outs) {
    throw std::invalid_argument("run_packaged_layer: bias size mismatch");
  }
  if (x2d.shape().rank() == 2 && x2d.shape()[1] == w.cols()) {
    const VectorLayout layout = spec.layout(w.cols());
    if (detail::row_local_quant(spec, w, layout)) {
      const std::int64_t rows = x2d.shape()[0];
      Tensor y(Shape{rows, outs});
      if (rows == 0 || outs == 0) return y;
      const detail::FpRowFn input_row = [](const void* ctx, std::int64_t r, float*) {
        const auto* x = static_cast<const Tensor*>(ctx);
        return x->data() + r * x->shape()[1];
      };
      detail::run_quantized_rows(w, layout, spec, layer.act_amax, layer.act_gamma, rows,
                                 input_row, &x2d, layer.bias, scale_product_bits, stats,
                                 prepacked, y.data());
      return y;
    }
  }
  const QuantizedMatrix acts = quantize_activations_int(x2d, spec, layer.act_amax, layer.act_gamma);
  Tensor y = detail::int_gemm_packed(acts, w, scale_product_bits, stats, prepacked);
  if (!layer.bias.empty()) add_row_bias(y.data(), y.shape()[0], outs, layer.bias.data());
  return y;
}

Tensor conv_layer_exec(const QuantizedLayerPackage& layer, const Tensor& x4d,
                       int scale_product_bits, IntGemmStats* stats,
                       const detail::IntWeightPanels* prepacked) {
  if (layer.kind != PackagedLayerKind::kConv) {
    throw std::invalid_argument("run_packaged_conv_layer: " + layer.name +
                                " is not a conv package");
  }
  if (x4d.shape().rank() != 4) {
    throw std::invalid_argument("run_packaged_conv_layer: input must be NHWC");
  }
  const ConvGeom g{x4d.shape()[1], x4d.shape()[2], x4d.shape()[3], layer.kernel, layer.stride,
                   layer.pad};
  return detail::int_conv_packed(x4d, g, layer.weights, layer.act_spec, layer.act_amax,
                                 layer.act_gamma, layer.bias, scale_product_bits, stats,
                                 prepacked);
}

}  // namespace

Tensor run_packaged_layer(const QuantizedLayerPackage& layer, const Tensor& x2d,
                          int scale_product_bits, IntGemmStats* stats) {
  return gemm_layer_exec(layer, x2d, scale_product_bits, stats, nullptr);
}

Tensor run_packaged_conv_layer(const QuantizedLayerPackage& layer, const Tensor& x4d,
                               int scale_product_bits, IntGemmStats* stats) {
  return conv_layer_exec(layer, x4d, scale_product_bits, stats, nullptr);
}

IntLayerPrimitive::IntLayerPrimitive(const QuantizedLayerPackage& layer) : layer_(&layer) {
  // Panels are packed with the ACT operand's layout, exactly as
  // int_gemm/int_conv would per call (packaged layers copy the weight
  // vector geometry onto act_spec, so the two agree by construction).
  const VectorLayout layout = layer.act_spec.layout(layer.weights.cols());
  // Only the int32-exact packed row loop consumes panels; operands wide
  // enough to need the int64 reference loop never pack, so resolving a
  // panel kernel for them would be wasted memory and a broken promise.
  if (detail::int32_dot_exact(layer.act_spec.fmt, layer.weights.fmt, layout)) {
    panels_.emplace(layer.weights, layout, detail::IntActAttrs::of(layer.act_spec));
  }
}

Tensor IntLayerPrimitive::execute(const Tensor& x, const IntExecContext& ctx) const {
  const detail::IntWeightPanels* pp = panels_ ? &*panels_ : nullptr;
  // Conv packages execute spatially on NHWC batches; their 2-D form (the
  // materialized patch matrix) stays available for the reference oracle.
  if (layer_->kind == PackagedLayerKind::kConv && x.shape().rank() == 4) {
    return conv_layer_exec(*layer_, x, ctx.scale_product_bits, ctx.stats, pp);
  }
  return gemm_layer_exec(*layer_, x, ctx.scale_product_bits, ctx.stats, pp);
}

const char* IntLayerPrimitive::op_name() const {
  return layer_->kind == PackagedLayerKind::kConv ? "int_conv" : "int_gemm";
}

const char* IntLayerPrimitive::impl_name() const {
  return panels_ ? panels_->panel_impl().name : "int64_ref";
}

const char* IntLayerPrimitive::acc_name() const {
  return panels_ ? panels_->acc_impl().name : "int64_ref";
}

const char* IntLayerPrimitive::quant_name() const {
  // Only per-vector rows go through an act-quant kernel: the bound one on
  // the fused row loop, the portable one inside quantize_activations_int
  // on the materialized path. Coarse rows quantize against one scale.
  const QuantSpec& spec = layer_->act_spec;
  if (spec.granularity != Granularity::kPerVector) return "-";
  const bool fused =
      panels_ && detail::row_local_quant(spec, layer_->weights,
                                         spec.layout(layer_->weights.cols()));
  return fused ? panels_->act_quant_impl().name : kernels::portable_act_quant().name;
}

const char* IntLayerPrimitive::isa_name() const {
  return panels_ ? isa::tier_name(panels_->panel_impl().tier) : "-";
}

const char* IntLayerPrimitive::layout_name() const {
  return panels_ ? kernels::panel_layout_name(panels_->layout()) : "-";
}

std::int64_t IntLayerPrimitive::resident_bytes() const {
  return panels_ ? panels_->resident_bytes() : 0;
}

std::int64_t IntLayerPrimitive::baseline_bytes() const {
  return panels_ ? panels_->baseline_bytes() : 0;
}

namespace {

// Dense persistence of the weight codes: b-bit BIASED-UNSIGNED codes
// (q - qmin, in 0 .. qmax-qmin, which fits b bits), 24/b codes per archive
// float. Each float carries an exact integer below 2^24, so the packing
// survives the archive's float transport losslessly for every b <= 8.
int packed_codes_per_float(int bits) { return 24 / bits; }

std::vector<float> pack_weight_codes(const QuantizedMatrix& w) {
  const int b = w.fmt.bits, k = packed_codes_per_float(b);
  const std::int64_t qmin = w.fmt.qmin();
  const std::size_t n = w.q.size();
  std::vector<float> out((n + k - 1) / k, 0.0f);
  for (std::size_t g = 0; g < out.size(); ++g) {
    std::uint32_t word = 0;
    for (int s = 0; s < k; ++s) {
      const std::size_t i = g * k + s;
      if (i >= n) break;  // tail slots stay zero — deterministic bytes
      word |= static_cast<std::uint32_t>(w.q[i] - qmin) << (s * b);
    }
    out[g] = static_cast<float>(word);
  }
  return out;
}

}  // namespace

void QuantizedModelPackage::save(const std::string& path, bool pack_weights) const {
  Archive a;
  for (const auto& [name, l] : layers) {
    const QuantizedMatrix& w = l.weights;
    if (pack_weights && w.fmt.bits <= 8) {
      a.put(key(name, "q_packed"),
            {static_cast<std::int64_t>((w.q.size() + packed_codes_per_float(w.fmt.bits) - 1) /
                                       packed_codes_per_float(w.fmt.bits))},
            pack_weight_codes(w));
    } else {
      a.put(key(name, "q"), {w.rows, w.cols()}, to_float(w.q));
    }
    // meta: rows, cols, elem bits, signed, V, block, act bits, act signed,
    // act granularity (0 coarse / 1 per-vector), act scale bits, amax, gamma
    a.put(key(name, "meta"), {12},
          {static_cast<float>(w.rows), static_cast<float>(w.cols()),
           static_cast<float>(w.fmt.bits), w.fmt.is_signed ? 1.0f : 0.0f,
           static_cast<float>(w.layout.vector_size), static_cast<float>(w.layout.block),
           static_cast<float>(l.act_spec.fmt.bits), l.act_spec.fmt.is_signed ? 1.0f : 0.0f,
           l.act_spec.granularity == Granularity::kPerVector ? 1.0f : 0.0f,
           static_cast<float>(l.act_spec.scale_fmt.bits), l.act_amax, l.act_gamma});
    if (w.two_level) {
      a.put(key(name, "sq"), {static_cast<std::int64_t>(w.two_level->sq.size())},
            to_float_u16(w.two_level->sq));
      a.put(key(name, "gamma"), {static_cast<std::int64_t>(w.two_level->gamma.size())},
            w.two_level->gamma);
      a.put(key(name, "scale_bits"), {1}, {static_cast<float>(w.two_level->scale_fmt.bits)});
    } else {
      a.put(key(name, "coarse"), {static_cast<std::int64_t>(w.coarse_scales.size())},
            w.coarse_scales);
    }
    if (!l.bias.empty()) {
      a.put(key(name, "bias"), {static_cast<std::int64_t>(l.bias.size())}, l.bias);
    }
    if (l.kind == PackagedLayerKind::kConv) {
      a.put(key(name, "conv"), {3},
            {static_cast<float>(l.kernel), static_cast<float>(l.stride),
             static_cast<float>(l.pad)});
    }
  }
  for (std::size_t i = 0; i < program.size(); ++i) {
    const std::string k = kProgramPrefix + std::to_string(i) + "/" + program[i].layer;
    const float relu = program[i].relu ? 1.0f : 0.0f;
    if (program[i].op == ForwardStep::Op::kGemm) {
      a.put(k, {1}, {relu});  // original encoding, keeps MLP archives byte-stable
    } else {
      a.put(k, {2}, {relu, static_cast<float>(program[i].op)});
    }
  }
  if (in_h > 0) {
    a.put(kInputGeomKey, {3},
          {static_cast<float>(in_h), static_cast<float>(in_w), static_cast<float>(in_c)});
  }
  if (max_seq > 0) {
    a.put(kSeqGeomKey, {3},
          {static_cast<float>(max_seq), static_cast<float>(seq_dim),
           static_cast<float>(heads)});
  }
  for (const auto& [name, ln] : norms) {
    std::vector<float> data;
    data.reserve(1 + ln.gamma.size() + ln.beta.size());
    data.push_back(static_cast<float>(ln.gamma.size()));
    data.insert(data.end(), ln.gamma.begin(), ln.gamma.end());
    data.insert(data.end(), ln.beta.begin(), ln.beta.end());
    const auto n = static_cast<std::int64_t>(data.size());
    a.put(kLayerNormPrefix + name, {n}, std::move(data));
  }
  for (const auto& [name, emb] : embeddings) {
    std::vector<float> data;
    data.reserve(3 + emb.tok.size() + emb.pos.size());
    data.push_back(static_cast<float>(emb.vocab));
    data.push_back(static_cast<float>(emb.max_len));
    data.push_back(static_cast<float>(emb.dim));
    data.insert(data.end(), emb.tok.begin(), emb.tok.end());
    data.insert(data.end(), emb.pos.begin(), emb.pos.end());
    const auto n = static_cast<std::int64_t>(data.size());
    a.put(kEmbeddingPrefix + name, {n}, std::move(data));
  }
  a.save(path);
}

QuantizedModelPackage QuantizedModelPackage::load(const std::string& path) {
  const Archive a = Archive::load(path);
  // Simulates a validation failure after the archive itself parsed — the
  // window where hot reload has real bytes but a semantically bad model.
  VSQ_FAILPOINT("package.load.validate");
  QuantizedModelPackage pkg;
  std::vector<std::pair<std::size_t, ForwardStep>> prog;
  for (const std::string& entry : a.names()) {
    if (entry == kInputGeomKey) {
      const auto& geom = a.get(entry).data;
      check_size(geom.size(), 3, "input geometry");
      pkg.in_h = checked_i64(geom[0], 0, 1 << 20, "input height");
      pkg.in_w = checked_i64(geom[1], 0, 1 << 20, "input width");
      pkg.in_c = checked_i64(geom[2], 0, 1 << 20, "input channels");
      continue;
    }
    if (entry == kSeqGeomKey) {
      const auto& geom = a.get(entry).data;
      check_size(geom.size(), 3, "sequence geometry");
      pkg.max_seq = checked_i64(geom[0], 1, 1 << 20, "max sequence length");
      pkg.seq_dim = checked_i64(geom[1], 1, 1 << 20, "sequence model dim");
      pkg.heads = checked_i64(geom[2], 1, 4096, "attention heads");
      if (pkg.seq_dim % pkg.heads != 0) {
        throw std::runtime_error(
            "QuantizedModelPackage: attention heads do not divide model dim");
      }
      continue;
    }
    if (entry.rfind(kLayerNormPrefix, 0) == 0) {
      const std::string name = entry.substr(std::string(kLayerNormPrefix).size());
      if (name.empty()) {
        throw std::runtime_error("QuantizedModelPackage: unnamed layernorm entry");
      }
      // Self-describing: {dim, gamma[dim], beta[dim]} so load order never
      // matters relative to the geometry entry.
      const auto& data = a.get(entry).data;
      if (data.empty()) {
        throw std::runtime_error("QuantizedModelPackage: empty layernorm entry " + entry);
      }
      const std::int64_t d = checked_i64(data[0], 1, 1 << 20, "layernorm dim of " + name);
      check_size(data.size(), static_cast<std::size_t>(1 + 2 * d),
                 "layernorm entry for " + name);
      LayerNormPackage ln;
      ln.gamma.assign(data.begin() + 1, data.begin() + 1 + d);
      ln.beta.assign(data.begin() + 1 + d, data.begin() + 1 + 2 * d);
      for (float v : ln.gamma) {
        if (!std::isfinite(v)) {
          throw std::runtime_error("QuantizedModelPackage: non-finite layernorm gamma of " +
                                   name);
        }
      }
      for (float v : ln.beta) {
        if (!std::isfinite(v)) {
          throw std::runtime_error("QuantizedModelPackage: non-finite layernorm beta of " +
                                   name);
        }
      }
      pkg.norms.emplace(name, std::move(ln));
      continue;
    }
    if (entry.rfind(kEmbeddingPrefix, 0) == 0) {
      const std::string name = entry.substr(std::string(kEmbeddingPrefix).size());
      if (name.empty()) {
        throw std::runtime_error("QuantizedModelPackage: unnamed embedding entry");
      }
      // Self-describing: {vocab, max_len, dim, tok[vocab*dim], pos[max_len*dim]}.
      const auto& data = a.get(entry).data;
      if (data.size() < 3) {
        throw std::runtime_error("QuantizedModelPackage: truncated embedding entry " + entry);
      }
      EmbeddingPackage e;
      e.vocab = checked_i64(data[0], 1, 1 << 20, "embedding vocab of " + name);
      e.max_len = checked_i64(data[1], 1, 1 << 20, "embedding max_len of " + name);
      e.dim = checked_i64(data[2], 1, 1 << 20, "embedding dim of " + name);
      const std::uint64_t tok_n =
          static_cast<std::uint64_t>(e.vocab) * static_cast<std::uint64_t>(e.dim);
      const std::uint64_t pos_n =
          static_cast<std::uint64_t>(e.max_len) * static_cast<std::uint64_t>(e.dim);
      check_size(data.size(), static_cast<std::size_t>(3 + tok_n + pos_n),
                 "embedding entry for " + name);
      e.tok.assign(data.begin() + 3, data.begin() + 3 + static_cast<std::ptrdiff_t>(tok_n));
      e.pos.assign(data.begin() + 3 + static_cast<std::ptrdiff_t>(tok_n), data.end());
      for (float v : e.tok) {
        if (!std::isfinite(v)) {
          throw std::runtime_error("QuantizedModelPackage: non-finite token embedding of " +
                                   name);
        }
      }
      for (float v : e.pos) {
        if (!std::isfinite(v)) {
          throw std::runtime_error(
              "QuantizedModelPackage: non-finite position embedding of " + name);
        }
      }
      pkg.embeddings.emplace(name, std::move(e));
      continue;
    }
    if (entry.rfind(kProgramPrefix, 0) == 0) {
      const std::string rest = entry.substr(std::string(kProgramPrefix).size());
      const auto sep = rest.find('/');
      if (sep == std::string::npos) {
        throw std::runtime_error("QuantizedModelPackage: malformed program entry " + entry);
      }
      ForwardStep step;
      step.layer = rest.substr(sep + 1);
      const auto& data = a.get(entry).data;
      if (data.empty()) {
        throw std::runtime_error("QuantizedModelPackage: empty program entry " + entry);
      }
      step.relu = data[0] != 0.0f;
      if (data.size() > 1) {
        step.op = op_from_code(
            static_cast<int>(checked_i64(data[1], 0, 64, "program op of " + entry)), entry);
      }
      std::size_t idx = 0;
      try {
        idx = std::stoul(rest.substr(0, sep));
      } catch (const std::exception&) {
        throw std::runtime_error("QuantizedModelPackage: malformed program index in " + entry);
      }
      prog.emplace_back(idx, std::move(step));
      continue;
    }
    const auto slash = entry.rfind("/meta");
    if (slash == std::string::npos || slash + 5 != entry.size()) continue;
    const std::string name = entry.substr(0, slash);

    // Everything read below is validated (ranges, cross-entry size
    // consistency) before it parameterizes the integer datapath: the
    // kernels index q/sq/gamma with arithmetic derived from this metadata
    // and must never see a corrupted combination.
    const auto& meta = a.get(entry).data;
    check_size(meta.size(), 12, "meta entry for " + name);
    QuantizedLayerPackage l;
    l.name = name;
    QuantizedMatrix& w = l.weights;
    w.rows = checked_i64(meta[0], 1, 1 << 24, "weight rows of " + name);
    w.layout.cols = checked_i64(meta[1], 1, 1 << 24, "weight cols of " + name);
    w.fmt = QuantFormat{checked_bits(meta[2], "weight bits of " + name), meta[3] != 0.0f};
    w.layout.vector_size =
        static_cast<int>(checked_i64(meta[4], 1, 1 << 20, "vector size of " + name));
    w.layout.block = checked_i64(meta[5], 0, 1 << 24, "channel block of " + name);
    // Block must divide cols (VectorLayout::validate's rule) — but report
    // it as the runtime_error corruption class like every check here, not
    // validate()'s invalid_argument, which callers read as API misuse.
    if (w.layout.block > 0 && w.layout.cols % w.layout.block != 0) {
      throw std::runtime_error("QuantizedModelPackage: channel block of " + name +
                               " does not divide cols");
    }
    const auto vpr = static_cast<std::uint64_t>(w.layout.vectors_per_row());

    const auto n_elems =
        static_cast<std::uint64_t>(w.rows) * static_cast<std::uint64_t>(w.layout.cols);
    const std::string q_what = "weight element of " + name;
    if (a.contains(key(name, "q_packed"))) {
      // Densely packed codes (the current save() form). Every word must be
      // an exact small integer and every code must sit inside the declared
      // format — the packed kernels derive their int32-exactness guarantee
      // from fmt.qmax(), so an element outside the format is corruption
      // that would void that premise.
      if (w.fmt.bits > 8) {
        throw std::runtime_error("QuantizedModelPackage: packed weights of " + name +
                                 " with a wider-than-8-bit format");
      }
      const int b = w.fmt.bits, k = packed_codes_per_float(b);
      const auto& qp = need(a, key(name, "q_packed")).data;
      check_size(qp.size(), (n_elems + k - 1) / k, "packed weight data of " + name);
      const std::uint32_t mask = (1u << b) - 1;
      const auto span = static_cast<std::uint32_t>(w.fmt.qmax() - w.fmt.qmin());
      w.q.assign(n_elems, 0);
      for (std::size_t g = 0; g < qp.size(); ++g) {
        const float v = qp[g];
        if (!(v >= 0.0f && v < 16777216.0f) || v != std::floor(v)) {
          throw std::runtime_error("QuantizedModelPackage: packed weight word of " + name +
                                   " is not a valid code group");
        }
        const auto word = static_cast<std::uint32_t>(v);
        for (int s = 0; s < k; ++s) {
          const std::uint64_t i = static_cast<std::uint64_t>(g) * k + s;
          const std::uint32_t code = (word >> (s * b)) & mask;
          if (i >= n_elems) {
            if (code != 0) {
              throw std::runtime_error("QuantizedModelPackage: " + q_what +
                                       " past the weight tail");
            }
            continue;
          }
          if (code > span) {
            throw std::runtime_error("QuantizedModelPackage: " + q_what + " out of range");
          }
          w.q[i] = static_cast<std::int16_t>(static_cast<std::int64_t>(code) + w.fmt.qmin());
        }
      }
    } else {
      // Legacy one-float-per-code entry: older archives keep loading (and
      // serving bit-identically — the weights decode to the same q).
      const auto& q = need(a, key(name, "q")).data;
      check_size(q.size(), n_elems, "weight data of " + name);
      w.q.assign(q.size(), 0);
      for (std::size_t i = 0; i < q.size(); ++i) {
        w.q[i] =
            static_cast<std::int16_t>(checked_i64(q[i], w.fmt.qmin(), w.fmt.qmax(), q_what));
      }
    }

    if (a.contains(key(name, "sq"))) {
      TwoLevelScales tl;
      const auto& sb = need(a, key(name, "scale_bits")).data;
      check_size(sb.size(), 1, "scale_bits entry of " + name);
      tl.scale_fmt =
          QuantFormat{checked_scale_bits(sb[0], "weight scale bits of " + name), false};
      tl.coarse_axis = CoarseAxis::kPerRow;
      tl.layout = w.layout;
      tl.rows = w.rows;
      const auto& sq = need(a, key(name, "sq")).data;
      check_size(sq.size(), static_cast<std::uint64_t>(w.rows) * vpr,
                 "weight scales of " + name);
      tl.sq.assign(sq.size(), 0);
      const std::string sq_what = "weight scale of " + name;
      for (std::size_t i = 0; i < sq.size(); ++i) {
        tl.sq[i] =
            static_cast<std::uint16_t>(checked_i64(sq[i], 0, tl.scale_fmt.qmax(), sq_what));
      }
      tl.gamma = need(a, key(name, "gamma")).data;
      if (tl.gamma.size() != static_cast<std::size_t>(w.rows) && tl.gamma.size() != 1) {
        throw std::runtime_error("QuantizedModelPackage: gamma of " + name +
                                 " has inconsistent size");
      }
      if (tl.gamma.size() == 1) tl.coarse_axis = CoarseAxis::kPerTensor;
      w.two_level = std::move(tl);
    } else {
      w.coarse_scales = need(a, key(name, "coarse")).data;
      if (w.coarse_scales.size() != static_cast<std::size_t>(w.rows) &&
          w.coarse_scales.size() != 1) {
        throw std::runtime_error("QuantizedModelPackage: coarse scales of " + name +
                                 " have inconsistent size");
      }
    }

    l.act_spec.enabled = true;
    // Activations are quantized at inference time, and that path
    // (quantize_activations_int / int_conv) rejects widths above 10 — so
    // a wider value here is corruption and must fail at LOAD, not on the
    // first request. (Weight widths may go to 15: they ship prequantized
    // and wide operands route through the int64 reference loop.)
    l.act_spec.fmt = QuantFormat{
        static_cast<int>(checked_i64(meta[6], 1, 10, "act bits of " + name)), meta[7] != 0.0f};
    l.act_spec.vector_size = w.layout.vector_size;
    l.act_spec.channel_block = w.layout.block;
    if (meta[8] != 0.0f) {
      l.act_spec.granularity = Granularity::kPerVector;
      l.act_spec.scale_dtype = ScaleDtype::kTwoLevelInt;
      l.act_spec.scale_fmt =
          QuantFormat{checked_scale_bits(meta[9], "act scale bits of " + name), false};
      l.act_spec.dynamic = true;
    } else {
      l.act_spec.granularity = Granularity::kPerTensor;
    }
    l.act_amax = meta[10];
    l.act_gamma = meta[11];
    if (!std::isfinite(l.act_amax) || !std::isfinite(l.act_gamma)) {
      throw std::runtime_error("QuantizedModelPackage: non-finite act calibration of " + name);
    }
    if (a.contains(key(name, "bias"))) {
      l.bias = a.get(key(name, "bias")).data;
      check_size(l.bias.size(), static_cast<std::uint64_t>(w.rows), "bias of " + name);
    }
    if (a.contains(key(name, "conv"))) {
      const auto& geom = a.get(key(name, "conv")).data;
      check_size(geom.size(), 3, "conv geometry of " + name);
      l.kind = PackagedLayerKind::kConv;
      l.kernel = checked_i64(geom[0], 1, 1 << 12, "conv kernel of " + name);
      l.stride = checked_i64(geom[1], 1, 1 << 12, "conv stride of " + name);
      l.pad = checked_i64(geom[2], 0, 1 << 12, "conv pad of " + name);
    }

    pkg.layers[name] = std::move(l);
  }
  std::sort(prog.begin(), prog.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (auto& [idx, step] : prog) pkg.program.push_back(std::move(step));
  return pkg;
}

namespace {

// Shape-propagation state of the runner's static validation pass: either a
// spatial NHWC activation or a flat feature vector.
struct ActDims {
  bool spatial = false;
  std::int64_t h = 0, w = 0, c = 0;  // spatial
  std::int64_t features = -1;        // flat (-1 = not yet known)

  bool operator==(const ActDims&) const = default;
};

// Mirrors nn/LayerNorm::forward numerics exactly (same accumulation order,
// eps = 1e-5), applied row-wise over a flattened [N, D] activation. Rows
// are independent, so batched results match sequential bit-for-bit.
Tensor layernorm_exec(const Tensor& x, const LayerNormPackage& ln) {
  const auto d = static_cast<std::int64_t>(ln.gamma.size());
  const std::int64_t rows = x.numel() / d;
  Tensor y(x.shape());
  const auto fd = static_cast<float>(d);
  constexpr float kEps = 1e-5f;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * d;
    float* yr = y.data() + r * d;
    float mean = 0.0f;
    for (std::int64_t c = 0; c < d; ++c) mean += xr[c];
    mean /= fd;
    float var = 0.0f;
    for (std::int64_t c = 0; c < d; ++c) {
      const float dv = xr[c] - mean;
      var += dv * dv;
    }
    var /= fd;
    const float is = 1.0f / std::sqrt(var + kEps);
    for (std::int64_t c = 0; c < d; ++c) {
      yr[c] = (xr[c] - mean) * is * ln.gamma[c] + ln.beta[c];
    }
  }
  return y;
}

// GELU through the gelu kernel bound at load; every tier returns
// nn/activations' gelu_value bits.
Tensor gelu_exec(const Tensor& x, const kernels::GeluImpl& gelu) {
  Tensor y(x.shape());
  gelu.fn(x.data(), x.numel(), y.data());
  return y;
}

// Per-sample true-length multi-head attention over packed rows. Sample
// r's tokens occupy rows [off[r], off[r+1]) of the [n, d] q/k/v
// projections; its scores, softmax and context reduce over exactly its
// own positions — the same GEMM shapes a sequential [1, L] call makes —
// so batched results are bit-identical to sequential execution by
// construction (a reduction axis never spans another sample or a pad
// position, which would regroup the blocked kernels' partial sums). Rows
// past off.back() (the shared pad row) stay zero. The per-head score
// matrix is softmaxed in place in this thread's ScratchArena.
Tensor attention_context(const Tensor& q, const Tensor& k, const Tensor& v,
                         const std::vector<std::int64_t>& off, std::int64_t d,
                         std::int64_t heads) {
  const std::int64_t dh = d / heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor ctx(Shape{q.shape()[0], d});  // zero-initialized: the pad row stays zero
  std::int64_t lmax = 0;
  for (std::size_t r = 0; r + 1 < off.size(); ++r) lmax = std::max(lmax, off[r + 1] - off[r]);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchRegion region(arena);
  float* scores = arena.alloc_n<float>(static_cast<std::size_t>(lmax * lmax));
  for (std::size_t r = 0; r + 1 < off.size(); ++r) {
    const std::int64_t l = off[r + 1] - off[r];
    for (std::int64_t hi = 0; hi < heads; ++hi) {
      const std::int64_t base = off[r] * d + hi * dh;
      gemm_nt_strided(q.data() + base, d, k.data() + base, d, scores, l, l, l, dh);
      for (std::int64_t i = 0; i < l * l; ++i) scores[i] *= inv_sqrt;
      for (std::int64_t i = 0; i < l; ++i) softmax_row_inplace(scores + i * l, l);
      gemm_nn_strided(scores, l, v.data() + base, d, ctx.data() + base, d, l, dh, l);
    }
  }
  return ctx;
}

// Packed-row offsets of a [rows, t] token batch: row r's true length is
// its unpadded prefix before the first -1.0f sentinel, and its tokens
// occupy packed rows [off[r], off[r+1]). Validated at the door: a
// malformed row (interior pad, fractional or out-of-vocab id) must fail
// the call with a clear diagnostic, never index the embedding table.
std::vector<std::int64_t> token_row_offsets(const Tensor& x, std::int64_t max_seq,
                                            std::int64_t vocab) {
  if (x.shape().rank() != 2 || x.shape()[1] < 1 || x.shape()[1] > max_seq) {
    throw std::invalid_argument("QuantizedModelRunner: input must be [rows, T] token ids with "
                                "1 <= T <= " +
                                std::to_string(max_seq));
  }
  const std::int64_t rows = x.shape()[0], t = x.shape()[1];
  std::vector<std::int64_t> off(rows + 1, 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * t;
    std::int64_t l = 0;
    while (l < t && row[l] != -1.0f) ++l;
    if (l == 0) {
      throw std::invalid_argument("QuantizedModelRunner: empty token row");
    }
    for (std::int64_t j = l; j < t; ++j) {
      if (row[j] != -1.0f) {
        throw std::invalid_argument(
            "QuantizedModelRunner: pad sentinel inside a token row (suffix padding only)");
      }
    }
    for (std::int64_t j = 0; j < l; ++j) {
      const float v = row[j];
      if (!(v >= 0.0f && v < static_cast<float>(vocab)) ||
          v != static_cast<float>(static_cast<std::int64_t>(v))) {
        throw std::invalid_argument("QuantizedModelRunner: token id out of range [0, " +
                                    std::to_string(vocab) + ")");
      }
    }
    off[r + 1] = off[r] + l;
  }
  return off;
}

// Embedding lookup of a validated token batch into the packed [Σlens, D]
// activation: padding costs no compute. Every later op is row-wise
// (attention partitions the rows per sample), which is what makes
// batched == sequential bit-exact. Every pad position of the padded batch
// would start from the same zero embedding and pass only through row-wise
// ops (attention leaves it zero), so when any row is padded one shared
// zero row after the real ones reproduces all of their outputs.
Tensor embed_packed(const Tensor& x, const std::vector<std::int64_t>& off,
                    const EmbeddingPackage& e) {
  const std::int64_t rows = x.shape()[0], t = x.shape()[1], real = off.back();
  Tensor h(Shape{real + (real < rows * t ? 1 : 0), e.dim});  // zero-initialized pad row
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * t;
    for (std::int64_t j = 0; j < off[r + 1] - off[r]; ++j) {
      const auto id = static_cast<std::int64_t>(row[j]);
      const float* te = e.tok.data() + id * e.dim;
      const float* pe = e.pos.data() + j * e.dim;
      float* dst = h.data() + (off[r] + j) * e.dim;
      for (std::int64_t c = 0; c < e.dim; ++c) dst[c] = te[c] + pe[c];
    }
  }
  return h;
}

// The packed [Σlens (+1 pad row), opt] result back as [rows, t * opt].
// Unpadded, the packed rows already are that. Otherwise scatter: each
// row's real positions are contiguous in h, and every pad position gets
// a copy of the shared pad row.
Tensor scatter_token_rows(const Tensor& h, const std::vector<std::int64_t>& off, std::int64_t t,
                          std::int64_t opt) {
  const auto rows = static_cast<std::int64_t>(off.size()) - 1;
  const std::int64_t real = off.back();
  if (real == rows * t) return h.reshape(Shape{rows, t * opt});
  Tensor y(Shape{rows, t * opt});
  const float* pad = h.data() + real * opt;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* dst = y.data() + r * t * opt;
    const std::int64_t l = off[r + 1] - off[r];
    std::copy_n(h.data() + off[r] * opt, l * opt, dst);
    for (std::int64_t j = l; j < t; ++j) std::copy_n(pad, opt, dst + j * opt);
  }
  return y;
}

}  // namespace

QuantizedModelRunner::QuantizedModelRunner(const QuantizedModelPackage& pkg,
                                           int scale_product_bits)
    : pkg_(&pkg),
      program_(pkg.program.empty() ? mlp_program(pkg) : pkg.program),
      scale_product_bits_(scale_product_bits) {
  using Op = ForwardStep::Op;
  if (program_.empty()) {
    throw std::invalid_argument("QuantizedModelRunner: package has no layers");
  }
  spatial_ = std::any_of(program_.begin(), program_.end(), [](const ForwardStep& s) {
    return s.op == Op::kConv || s.op == Op::kConvSaved || s.op == Op::kGlobalPool;
  });
  if (spatial_ && (pkg.in_h <= 0 || pkg.in_w <= 0 || pkg.in_c <= 0)) {
    throw std::invalid_argument(
        "QuantizedModelRunner: spatial program but package has no input geometry");
  }
  // A sequence program starts with its embed step; the walk below rejects
  // sequence ops in any other program.
  seq_ = program_[0].op == Op::kEmbed;
  if (seq_ && spatial_) {
    throw std::invalid_argument("QuantizedModelRunner: program mixes spatial and sequence ops");
  }
  if (seq_ && (pkg.max_seq <= 0 || pkg.seq_dim <= 0 || pkg.heads <= 0)) {
    throw std::invalid_argument(
        "QuantizedModelRunner: sequence program but package has no sequence geometry");
  }

  // Resolve every layer into its primitive once (kernel dispatch +
  // weight-panel pack); the walk below binds each step to what it executes
  // with, so forward() never repacks and never looks anything up.
  for (const auto& [name, l] : pkg.layers) prims_.try_emplace(name, l);
  const auto find_prim = [this](const std::string& name) {
    const auto it = prims_.find(name);
    if (it == prims_.end()) {
      throw std::invalid_argument("QuantizedModelRunner: program names missing layer " + name);
    }
    return &it->second;
  };

  // Static shape propagation: every step's input/output dims are fixed up
  // front (batch excepted), so forward() never re-validates.
  ActDims cur;
  if (spatial_) cur = ActDims{true, pkg.in_h, pkg.in_w, pkg.in_c, -1};
  std::optional<ActDims> saved;
  // forward()'s kSave is a shallow copy, and h starts as a view of the
  // caller's input: a residual add is only safe once a layer op has
  // produced a fresh h since the last save (true for every generated
  // program; reject hand-crafted ones that would alias-and-mutate).
  bool fresh_h = false;
  steps_.reserve(program_.size());
  for (const ForwardStep& step : program_) {
    Step& st = steps_.emplace_back(Step{step.op, step.relu});
    const QuantizedLayerPackage* layer = nullptr;
    if (op_uses_layer(step.op)) {
      st.prim[0] = find_prim(step.layer);
      layer = &st.prim[0]->layer();
    }
    if (op_is_sequence(step.op) && !seq_) {
      throw std::invalid_argument("QuantizedModelRunner: sequence step " + step.layer +
                                  " in a program that does not start with an embed step");
    }
    // ReLU after a step applies to the main-path activation h. Reject it
    // on ops that write `saved` (or alias h with it): silently relu-ing
    // the wrong tensor would corrupt outputs with no diagnostic.
    if (step.relu && (step.op == Op::kSave || step.op == Op::kConvSaved)) {
      throw std::invalid_argument("QuantizedModelRunner: relu on a saved-slot step");
    }
    switch (step.op) {
      case Op::kGemm: {
        if (cur.spatial) {
          throw std::invalid_argument("QuantizedModelRunner: gemm step " + step.layer +
                                      " on a spatial activation (missing pool?)");
        }
        const QuantizedMatrix& w = layer->weights;
        if (cur.features >= 0 && w.cols() != cur.features) {
          throw std::invalid_argument("QuantizedModelRunner: layer " + step.layer +
                                      " expects " + std::to_string(w.cols()) +
                                      " inputs, previous step produces " +
                                      std::to_string(cur.features));
        }
        if (cur.features < 0) in_features_ = w.cols();
        cur.features = w.rows;
        unit_macs_ += w.rows * w.cols();
        fresh_h = true;
        break;
      }
      case Op::kConv:
      case Op::kConvSaved: {
        ActDims* d = &cur;
        if (step.op == Op::kConvSaved) {
          if (!saved) {
            throw std::invalid_argument("QuantizedModelRunner: shortcut conv " + step.layer +
                                        " with no saved activation");
          }
          d = &*saved;
        }
        if (!d->spatial) {
          throw std::invalid_argument("QuantizedModelRunner: conv step " + step.layer +
                                      " on a flat activation");
        }
        if (layer->kind != PackagedLayerKind::kConv) {
          throw std::invalid_argument("QuantizedModelRunner: " + step.layer +
                                      " is not a conv package");
        }
        if (layer->conv_in_channels() != d->c) {
          throw std::invalid_argument("QuantizedModelRunner: conv " + step.layer + " expects " +
                                      std::to_string(layer->conv_in_channels()) +
                                      " channels, activation has " + std::to_string(d->c));
        }
        const ConvGeom g{d->h, d->w, d->c, layer->kernel, layer->stride, layer->pad};
        if (g.out_h() <= 0 || g.out_w() <= 0) {
          throw std::invalid_argument("QuantizedModelRunner: conv " + step.layer +
                                      " produces an empty output");
        }
        unit_macs_ += g.out_h() * g.out_w() * layer->weights.rows * layer->weights.cols();
        *d = ActDims{true, g.out_h(), g.out_w(), layer->weights.rows, -1};
        if (step.op == Op::kConv) fresh_h = true;
        break;
      }
      case Op::kSave:
        saved = cur;
        fresh_h = false;
        break;
      case Op::kAddSaved:
        if (!saved || !(*saved == cur)) {
          throw std::invalid_argument(
              "QuantizedModelRunner: residual add with mismatched shapes");
        }
        if (!fresh_h) {
          throw std::invalid_argument(
              "QuantizedModelRunner: residual add would alias the saved activation");
        }
        break;
      case Op::kGlobalPool:
        if (!cur.spatial) {
          throw std::invalid_argument("QuantizedModelRunner: pool step on a flat activation");
        }
        cur = ActDims{false, 0, 0, 0, cur.c};
        fresh_h = true;
        break;
      case Op::kEmbed: {
        if (&step != &program_.front()) {
          throw std::invalid_argument(
              "QuantizedModelRunner: embed must be the program's first step");
        }
        const auto it = pkg.embeddings.find(step.layer);
        if (it == pkg.embeddings.end()) {
          throw std::invalid_argument("QuantizedModelRunner: program names missing embedding " +
                                      step.layer);
        }
        const EmbeddingPackage& e = it->second;
        if (e.dim != pkg.seq_dim) {
          throw std::invalid_argument("QuantizedModelRunner: embedding " + step.layer +
                                      " width does not match the sequence geometry");
        }
        if (e.max_len < pkg.max_seq) {
          throw std::invalid_argument("QuantizedModelRunner: embedding " + step.layer +
                                      " covers fewer positions than max_seq");
        }
        st.embed = &e;
        vocab_ = e.vocab;
        cur.features = e.dim;
        fresh_h = true;
        break;
      }
      case Op::kLayerNorm: {
        const auto it = pkg.norms.find(step.layer);
        if (it == pkg.norms.end()) {
          throw std::invalid_argument("QuantizedModelRunner: program names missing layernorm " +
                                      step.layer);
        }
        if (cur.spatial || cur.features < 0 ||
            static_cast<std::int64_t>(it->second.gamma.size()) != cur.features) {
          throw std::invalid_argument("QuantizedModelRunner: layernorm " + step.layer +
                                      " width does not match the activation");
        }
        st.norm = &it->second;
        fresh_h = true;
        break;
      }
      case Op::kAttention: {
        if (cur.spatial || cur.features != pkg.seq_dim) {
          throw std::invalid_argument("QuantizedModelRunner: attention " + step.layer +
                                      " expects the package model width " +
                                      std::to_string(pkg.seq_dim));
        }
        const char* const suffixes[] = {".q", ".k", ".v", ".out"};
        for (int p = 0; p < 4; ++p) {
          st.prim[p] = find_prim(step.layer + suffixes[p]);
          const QuantizedMatrix& w = st.prim[p]->layer().weights;
          if (w.rows != pkg.seq_dim || w.cols() != pkg.seq_dim) {
            throw std::invalid_argument("QuantizedModelRunner: attention projection " +
                                        step.layer + suffixes[p] +
                                        " is not a square model-width layer");
          }
          unit_macs_ += w.rows * w.cols();
        }
        fresh_h = true;
        break;
      }
      case Op::kSoftmax:
      case Op::kGelu:
        if (cur.spatial || cur.features < 0) {
          throw std::invalid_argument("QuantizedModelRunner: elementwise step on an unshaped "
                                      "activation");
        }
        if (step.op == Op::kGelu) st.gelu = &kernels::resolve_gelu();
        fresh_h = true;
        break;
    }
  }
  if (spatial_) in_features_ = pkg.in_h * pkg.in_w * pkg.in_c;
  if (seq_) {
    // Sequence packages take token rows: a full-width input is one id per
    // position; shorter rows are a prefix of that.
    max_seq_ = pkg.max_seq;
    in_features_ = max_seq_;
  }
  if (in_features_ <= 0) {
    throw std::invalid_argument("QuantizedModelRunner: program has no input layer");
  }
  if (seq_) {
    out_per_token_ = cur.features;
    out_features_ = max_seq_ * out_per_token_;
  } else {
    out_features_ = cur.spatial ? cur.h * cur.w * cur.c : cur.features;
  }

}

const IntLayerPrimitive* QuantizedModelRunner::primitive(const std::string& layer) const {
  const auto it = prims_.find(layer);
  return it == prims_.end() ? nullptr : &it->second;
}

const char* QuantizedModelRunner::gelu_name() const {
  for (const Step& s : steps_) {
    if (s.gelu != nullptr) return s.gelu->name;
  }
  return nullptr;
}

QuantizedModelRunner::~QuantizedModelRunner() = default;

std::vector<ForwardStep> QuantizedModelRunner::mlp_program(const QuantizedModelPackage& pkg) {
  std::vector<ForwardStep> program;
  for (const auto& [name, l] : pkg.layers) program.push_back({name, true});
  if (!program.empty()) program.back().relu = false;
  return program;
}

Tensor QuantizedModelRunner::forward(const Tensor& x, IntGemmStats* stats) const {
  // Input side: a token batch validates and packs its rows to Σlens
  // offsets (read by the embed and attention steps); flat and image rows
  // keep `off` empty.
  std::vector<std::int64_t> off;
  if (seq_) {
    off = token_row_offsets(x, max_seq_, vocab_);
  } else if (x.shape().rank() != 2 || x.shape()[1] != in_features_) {
    throw std::invalid_argument("QuantizedModelRunner: input must be [rows, " +
                                std::to_string(in_features_) + "]");
  }
  // Split into groups >= 2 only with two rows, two pool threads and twice
  // kMinTaskMacs of work, and never for a stats run.
  const std::int64_t rows = x.shape()[0];
  const std::int64_t units = seq_ ? off.back() : rows;
  ThreadPool& pool = current_pool();
  const std::int64_t groups =
      stats != nullptr ? 1
                       : std::min({rows, static_cast<std::int64_t>(pool.concurrency()),
                                   units * unit_macs_ / kMinTaskMacs});
  if (groups < 2) return run_steps(x, off, stats);

  // Contiguous row groups of about units / groups each: every cut sits on
  // the row boundary nearest its target, keeping at least one row per group.
  const auto units_before = [&](std::int64_t r) { return seq_ ? off[r] : r; };
  std::vector<std::int64_t> cut(groups + 1, rows);
  cut[0] = 0;
  for (std::int64_t g = 1; g < groups; ++g) {
    const std::int64_t target = units * g / groups;
    std::int64_t r = cut[g - 1] + 1;
    while (r < rows && units_before(r) < target) ++r;
    if (target - units_before(r - 1) < units_before(r) - target) --r;
    cut[g] = std::clamp(r, cut[g - 1] + 1, rows - (groups - g));
  }

  // Each group runs the whole step loop as one pool task and writes its
  // own rows of y. Rows are independent, so y holds the same bits as one
  // unsplit run; a sequence group re-bases its offsets (and carries its
  // own pad row when one of its rows is padded).
  const std::int64_t width = seq_ ? x.shape()[1] * out_per_token_ : out_features_;
  Tensor y(Shape{rows, width});
  pool.parallel_for(
      0, static_cast<std::size_t>(groups),
      [&](std::size_t gb, std::size_t ge) {
        for (std::size_t g = gb; g < ge; ++g) {
          const std::int64_t r0 = cut[g], r1 = cut[g + 1];
          std::vector<std::int64_t> group_off;
          if (seq_) {
            for (std::int64_t r = r0; r <= r1; ++r) group_off.push_back(off[r] - off[r0]);
          }
          const Tensor part = run_steps(x.view_rows(r0, r1), group_off, nullptr);
          std::copy_n(part.data(), part.numel(), y.data() + r0 * width);
        }
      },
      1);
  return y;
}

Tensor QuantizedModelRunner::run_steps(const Tensor& x, const std::vector<std::int64_t>& off,
                                       IntGemmStats* stats) const {
  using Op = ForwardStep::Op;
  const std::int64_t rows = x.shape()[0];
  Tensor h = spatial_ ? x.reshape(Shape{rows, pkg_->in_h, pkg_->in_w, pkg_->in_c}) : x;
  Tensor saved;
  const IntExecContext ctx{scale_product_bits_, stats};
  for (const Step& s : steps_) {
    switch (s.op) {
      case Op::kGemm:
      case Op::kConv:
        h = s.prim[0]->execute(h, ctx);
        break;
      case Op::kConvSaved:
        saved = s.prim[0]->execute(saved, ctx);
        break;
      case Op::kSave:
        saved = h;  // shallow: a layer op makes a fresh h before any add (validated)
        break;
      case Op::kAddSaved:
        add_inplace(h, saved);
        break;
      case Op::kGlobalPool:
        h = global_avg_pool_nhwc(h);
        break;
      case Op::kEmbed:
        h = embed_packed(x, off, *s.embed);
        break;
      case Op::kLayerNorm:
        h = layernorm_exec(h, *s.norm);
        break;
      case Op::kAttention: {
        const Tensor q = s.prim[0]->execute(h, ctx);
        const Tensor k = s.prim[1]->execute(h, ctx);
        const Tensor v = s.prim[2]->execute(h, ctx);
        h = s.prim[3]->execute(attention_context(q, k, v, off, pkg_->seq_dim, pkg_->heads), ctx);
        break;
      }
      case Op::kSoftmax:
        h = softmax_last_axis(h);
        break;
      case Op::kGelu:
        h = gelu_exec(h, *s.gelu);
        break;
    }
    if (s.relu) relu_inplace(h);
  }
  // Output side: a token batch scatters back to its padded layout; an
  // image batch flattens its final activation.
  if (seq_) return scatter_token_rows(h, off, x.shape()[1], out_per_token_);
  if (h.shape().rank() != 2) h = h.reshape(Shape{rows, out_features_});
  return h;
}

IntegerExecutionGuard::IntegerExecutionGuard(std::vector<QuantizableGemm*> gemms,
                                             const QuantizedModelPackage& pkg,
                                             int scale_product_bits)
    : gemms_(std::move(gemms)) {
  // Validate up-front so a missing entry cannot leave a half-installed model.
  for (const QuantizableGemm* g : gemms_) {
    if (pkg.layers.find(g->gemm_name()) == pkg.layers.end()) {
      throw std::invalid_argument("IntegerExecutionGuard: no package entry for layer " +
                                  g->gemm_name());
    }
  }
  for (QuantizableGemm* g : gemms_) {
    // Resolve the layer's primitive once; the override then streams every
    // forward through the prepacked panels. Map nodes are stable for the
    // guard's lifetime (and the caller keeps pkg alive, as the
    // constructor reference implies).
    const auto [it, inserted] =
        prims_.try_emplace(g->gemm_name(), pkg.layers.at(g->gemm_name()));
    const IntLayerPrimitive* prim = &it->second;
    g->set_gemm_override([this, prim, scale_product_bits](const Tensor& x2d) {
      return prim->execute(x2d, IntExecContext{scale_product_bits, &stats_});
    });
  }
}

IntegerExecutionGuard::~IntegerExecutionGuard() {
  for (QuantizableGemm* g : gemms_) g->set_gemm_override({});
}

}  // namespace vsq
