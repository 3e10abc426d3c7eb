// Deployment export: package a PTQ-calibrated model's GEMM layers as the
// integer payloads the accelerator consumes — N-bit integer weights,
// M-bit integer per-vector scales, per-channel/per-layer fp coarse scales
// and the activation calibration constants (amax, gamma) the PPU needs.
// The package round-trips through util/Archive, and QuantizedModelRunner
// executes inference entirely through the bit-accurate integer datapath
// (hw/int_gemm) — what a real VS-Quant deployment would ship.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "quant/quantized_tensor.h"
#include "util/archive.h"

namespace vsq {

class Conv2d;

// What the packaged weights parameterize: a plain GEMM (linear layer) or a
// convolution whose GEMM reduction axis is the unrolled patch.
enum class PackagedLayerKind { kGemm, kConv };

// One exported weighted layer.
struct QuantizedLayerPackage {
  std::string name;
  PackagedLayerKind kind = PackagedLayerKind::kGemm;
  QuantizedMatrix weights;   // integer weights + scale metadata
  QuantSpec act_spec;        // how the PPU quantizes this layer's input
  float act_amax = 0.0f;     // static per-layer activation amax
  float act_gamma = 0.0f;    // two-level gamma for dynamic per-vector acts
  std::vector<float> bias;   // fp bias applied after de-scaling
  // Conv geometry (kind == kConv): square kernel, stride, zero padding.
  std::int64_t kernel = 0, stride = 0, pad = 0;
  // Input channels of a conv layer (the weight cols are kernel^2 * in_c).
  std::int64_t conv_in_channels() const {
    return kernel > 0 ? weights.cols() / (kernel * kernel) : 0;
  }
};

// One step of a packaged model's forward pass. MLP-style graphs only use
// kGemm chains; CNN graphs add convolution, the residual save/add pair
// (one saved-activation slot, enough for ResNet-style chains) and global
// average pooling; transformer graphs add embedding lookup, layernorm,
// per-head self-attention, softmax and GELU over sequence activations
// (kGemm and the save/add pair work position-wise on sequences too, which
// covers the residual-over-sequence joins). ReLU applies after the op
// when `relu` is set.
struct ForwardStep {
  enum class Op {
    kGemm = 0,        // h = layer(h)                 [rows, features]
    kConv = 1,        // h = conv_layer(h)            [N, H, W, C] NHWC
    kConvSaved = 2,   // saved = conv_layer(saved)    projection shortcut
    kSave = 3,        // saved = h
    kAddSaved = 4,    // h += saved                   residual join
    kGlobalPool = 5,  // h = mean over H, W:          [N,H,W,C] -> [N, C]
    kEmbed = 6,       // h = tok[id] + pos[j]:        [rows, T] -> [rows, T, D]
    kLayerNorm = 7,   // h = layernorm(h) over D      fp gamma/beta params
    kAttention = 8,   // h = MHSA(h): layer is the prefix of the four
                      // quantized projections <p>.q/.k/.v/.out
    kSoftmax = 9,     // h = softmax over the last axis
    kGelu = 10,       // h = gelu(h), tanh approximation (nn/activations)
  };
  std::string layer;  // layer name for layer-bearing ops; a token otherwise
  bool relu = false;
  Op op = Op::kGemm;

  static ForwardStep gemm(std::string l, bool r) { return {std::move(l), r, Op::kGemm}; }
  static ForwardStep conv(std::string l, bool r) { return {std::move(l), r, Op::kConv}; }
  static ForwardStep conv_saved(std::string l) { return {std::move(l), false, Op::kConvSaved}; }
  static ForwardStep save() { return {"save", false, Op::kSave}; }
  static ForwardStep add_saved(bool r) { return {"add", r, Op::kAddSaved}; }
  static ForwardStep global_pool() { return {"gap", false, Op::kGlobalPool}; }
  static ForwardStep embed(std::string e) { return {std::move(e), false, Op::kEmbed}; }
  static ForwardStep layernorm(std::string n) { return {std::move(n), false, Op::kLayerNorm}; }
  static ForwardStep attention(std::string p) { return {std::move(p), false, Op::kAttention}; }
  static ForwardStep softmax() { return {"softmax", false, Op::kSoftmax}; }
  static ForwardStep gelu() { return {"gelu", false, Op::kGelu}; }
};

// Floating-point (unquantized) parameter sets of a packaged transformer.
// The paper's BERT recipe — like Q8BERT / I-BERT — quantizes the weighted
// projection and FFN GEMMs and keeps normalization, softmax and the
// embedding tables in floating point; these carry that fp side.
struct LayerNormPackage {
  std::vector<float> gamma, beta;  // [dim] each
};

struct EmbeddingPackage {
  std::int64_t vocab = 0, max_len = 0, dim = 0;
  std::vector<float> tok;  // [vocab, dim] row-major
  std::vector<float> pos;  // [max_len, dim] row-major
};

struct QuantizedModelPackage {
  std::map<std::string, QuantizedLayerPackage> layers;
  // Execution order for QuantizedModelRunner. Optional (older archives
  // have none): persisted through save()/load() when non-empty.
  std::vector<ForwardStep> program;
  // Input image geometry, required (and persisted) when the program
  // contains spatial ops; 0 for MLP-style packages.
  std::int64_t in_h = 0, in_w = 0, in_c = 0;
  // Sequence geometry, required (and persisted, "__seq__") when the
  // program contains sequence ops: the longest servable token row, the
  // model width and the attention head count. 0 for non-sequence packages.
  std::int64_t max_seq = 0, seq_dim = 0, heads = 0;
  // Fp parameter sets referenced by kLayerNorm / kEmbed steps, persisted
  // as "__ln__/<name>" and "__emb__/<name>" entries.
  std::map<std::string, LayerNormPackage> norms;
  std::map<std::string, EmbeddingPackage> embeddings;

  // save() stores weight codes densely packed ("<layer>/q_packed": biased
  // unsigned b-bit codes, 24/b codes per archive float as an exact < 2^24
  // integer — a 4-bit layer's payload is 6x smaller than the legacy
  // one-float-per-code "<layer>/q" entry). save(path, false) writes the
  // legacy byte-width entry instead; load() accepts both, bit-identically
  // (the compat tests pin that old archives keep loading and serving).
  void save(const std::string& path) const { save(path, true); }
  void save(const std::string& path, bool pack_weights) const;
  static QuantizedModelPackage load(const std::string& path);
};

// Export a calibrated QuantizableGemm (must be in kQuantEval mode with a
// finalized activation quantizer). `bias` may be empty.
QuantizedLayerPackage export_gemm(const QuantizableGemm& gemm, const std::vector<float>& bias);

// Export a calibrated Conv2d: export_gemm plus the conv geometry and the
// layer's fp bias (BatchNorm folding moves the BN affine there).
QuantizedLayerPackage export_conv(const Conv2d& conv);

// Execution-time parameters of a resolved primitive — everything that may
// legitimately vary per call, separated from what the primitive bound at
// creation (weights, quantization attributes, kernel implementations),
// after oneDNN's execution-context idiom.
struct IntExecContext {
  int scale_product_bits = -1;    // as in int_gemm; < 0 keeps the full product
  IntGemmStats* stats = nullptr;  // accumulate datapath stats when non-null
};

// One packaged layer resolved into an executable primitive. Construction
// is the descriptor step: it asks the kernel dispatch registry
// (kernels/registry.h) which implementations run for this layer's shape
// class and quantization attributes, and packs the weight panels once in
// the layout that implementation consumes. execute() then applies the
// resolved kernels to one activation batch — no per-call packing, no
// dispatch lookups, no nullable prepacked-panel plumbing (this API
// replaced the IntWeightPanels* parameters that used to thread through
// run_packaged_* and the runner). Layers whose operand widths exceed
// int32-exact accumulation resolve to the int64 reference loop instead
// (no panels; bit-identical, packs per call inside int_gemm). The bound
// package entry must outlive the primitive.
//
// Before load-time packing existed, every serving request re-packed every
// layer's panels; at batch 1 the pack writes about as many elements as
// the GEMM multiplies, so hoisting it sped the batch-1 forward ~4x on the
// committed baselines (BENCH_serve.json). Steady-state serving performs
// zero packs and zero dispatch resolutions (asserted by tests via
// IntGemmStats::panels_packed and kernels::dispatch_resolutions_total).
class IntLayerPrimitive {
 public:
  explicit IntLayerPrimitive(const QuantizedLayerPackage& layer);

  // x: [rows, features] for a GEMM layer (for conv packages this 2-D form
  // is the *materialized* patch matrix — the reference path), NHWC
  // [N, H, W, C] for a conv layer. Applies the layer op and its bias;
  // program-level ReLU stays with the runner.
  Tensor execute(const Tensor& x, const IntExecContext& ctx = {}) const;

  const QuantizedLayerPackage& layer() const { return *layer_; }
  // False when the layer routes through the int64 reference fallback.
  bool prepacked() const { return panels_.has_value(); }

  // Introspection (vsq_inspect --kernels): the resolved kernel identities.
  const char* op_name() const;     // "int_gemm" / "int_conv"
  const char* impl_name() const;   // panel impl, or "int64_ref" (no panels)
  const char* acc_name() const;    // scale-accumulate impl, or "int64_ref"
  const char* quant_name() const;  // act-quant impl of per-vector rows
                                   // ("portable" off the fused row loop: the
                                   // materialized reference), "-" for coarse
  const char* isa_name() const;    // ISA tier of the panel impl, or "-"
  const char* layout_name() const; // panel layout, or "-" (no panels)
  // Resident bytes of the packed panels (0 without panels) and what the
  // same pack would occupy in the byte-width int16 layout — the memory
  // side of the sub-byte tiers (a 4-bit layer sits near 0.25x).
  std::int64_t resident_bytes() const;
  std::int64_t baseline_bytes() const;

 private:
  const QuantizedLayerPackage* layer_;
  std::optional<detail::IntWeightPanels> panels_;
};

// Run one packaged layer on an activation matrix through the integer
// datapath. scale_product_bits as in int_gemm. For conv packages x2d is
// the *materialized* patch matrix — the reference path; the runner serves
// convs through run_packaged_conv_layer instead. Packs panels per call;
// deployments resolve an IntLayerPrimitive once instead — outputs are
// bit-identical either way.
Tensor run_packaged_layer(const QuantizedLayerPackage& layer, const Tensor& x2d,
                          int scale_product_bits = -1, IntGemmStats* stats = nullptr);

// Run one packaged conv layer on an NHWC activation tensor through the
// tiled integer conv datapath (quant/int_conv.h). Returns [N, OH, OW, K].
Tensor run_packaged_conv_layer(const QuantizedLayerPackage& layer, const Tensor& x4d,
                               int scale_product_bits = -1, IntGemmStats* stats = nullptr);

// Standalone integer-datapath model executor: runs a package's forward
// program (layer chain, ReLUs, conv/residual/pool ops, sequence ops)
// entirely through the integer datapath (int_gemm / int_conv) plus the fp
// sidecar ops, no fp32 model object required. This is what the serving
// engine (src/serve/) executes per batch. Output rows depend only on their
// own input row/image, so results are bit-identical for any batch
// composition and any thread count.
//
// Parallelism: a batched forward worth at least two pool tasks (see
// forward()) cuts its samples into contiguous groups, one per pool thread
// at most, and runs each group's step loop as one task; the kernels under
// a group then run inline (the pool's nesting rule, util/thread_pool.h),
// so activation quantization, layernorm, attention and GELU run in
// parallel with the GEMMs. Any other forward runs the step loop on the
// caller, and each kernel splits its own rows.
//
// Every package kind runs through ONE loop over a step table resolved at
// load (each step's op, ReLU flag, primitives and fp parameter set), with
// one arm per op. Only the two ends of forward() depend on the kind:
//
// MLP packages take [rows, in_features] and return [rows, out_features].
//
// CNN packages execute on flattened inputs: forward() takes [rows, H*W*C]
// rows (what the dynamic batcher assembles), reshapes to NHWC internally,
// and flattens the final activation back to 2-D.
//
// Sequence (transformer) packages execute on token rows: forward() takes
// [rows, T] token ids as floats for ANY 1 <= T <= max_seq, with shorter
// rows padded to T by the -1.0f sentinel (suffix padding only). Each
// row's true length L is its unpadded prefix. The embed step packs the
// batch to its ΣL real tokens: every projection, FFN GEMM and elementwise
// op runs over those rows only (each row carries its own per-vector
// activation scales), and attention runs per sample over exactly its L
// positions, so batched outputs are bit-identical to sequential [1, L]
// execution by construction. The output is [rows, T * out_per_token];
// only the first L * out_per_token values of a row are meaningful (the
// serving layer slices them). Pad positions get the output of a zero
// embedding, which is what a padded execution would compute there.
class QuantizedModelRunner {
 public:
  // Uses pkg.program when non-empty, else mlp_program(pkg). The package
  // must outlive the runner. Throws std::invalid_argument when a program
  // step names a missing layer, consecutive layers' shapes don't chain, or
  // a spatial program lacks the package input geometry. Construction also
  // resolves every layer into an IntLayerPrimitive (kernel dispatch +
  // weight-panel pack), so forward() never repacks and never dispatches.
  explicit QuantizedModelRunner(const QuantizedModelPackage& pkg, int scale_product_bits = -1);
  ~QuantizedModelRunner();

  QuantizedModelRunner(QuantizedModelRunner&&) noexcept = default;
  QuantizedModelRunner& operator=(QuantizedModelRunner&&) noexcept = default;

  // Default program when a package carries none: layers in lexicographic
  // name order, ReLU between all but the last.
  static std::vector<ForwardStep> mlp_program(const QuantizedModelPackage& pkg);

  // x: [rows, in_features]. Returns [rows, out_features]. Thread-safe for
  // concurrent calls (stats accumulation excepted: pass distinct `stats`).
  //
  // The batch splits by sample across current_pool() when it has two or
  // more rows, `stats` is null, and its MACs (units x unit_macs(), the
  // units being rows, or real tokens for a sequence program) reach twice
  // kMinTaskMacs. It then runs as min(rows, pool concurrency,
  // MACs / kMinTaskMacs) groups balanced by units. A datapath-stats run
  // stays unsplit, so its counters need no merge. Outputs are the same
  // bits either way.
  Tensor forward(const Tensor& x, IntGemmStats* stats = nullptr) const;

  // Smallest share of a batched forward worth one pool task: 256 Ki MACs
  // is ~65 us of runner work at the ~4 GMAC/s a batch-1 tiny-MLP forward
  // achieves on a 4-vCPU AVX-512 VM. The value was set when a fork there
  // cost its caller a worker's wake-up and then its own (an empty 2-chunk
  // parallel_for: 16.5-18.7 us p50; 4 chunks: 17.5-27.4 us). Now that the
  // caller runs every chunk no worker has claimed, the same forks take
  // 0.5-1.9 and 0.5-2.1 us (bench/fork_join.cpp); the value is unchanged.
  static constexpr std::int64_t kMinTaskMacs = std::int64_t{1} << 18;
  // MACs of the program's integer GEMMs per input unit: one row (MLP), one
  // image (CNN), or one token (sequence; the four attention projections
  // included, the fp score/context products not).
  std::int64_t unit_macs() const { return unit_macs_; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  bool spatial() const { return spatial_; }
  // Sequence-program surface: seq() marks a token-row model; max_seq is
  // the longest servable row (in_features() == max_seq), out_per_token the
  // per-position output width (out_features() == max_seq * out_per_token),
  // vocab the valid token-id range [0, vocab). All 0/false otherwise.
  bool seq() const { return seq_; }
  std::int64_t max_seq() const { return max_seq_; }
  std::int64_t out_per_token() const { return out_per_token_; }
  std::int64_t vocab() const { return vocab_; }
  const std::vector<ForwardStep>& program() const { return program_; }
  // The layer's resolved primitive (nullptr for unknown names), and the
  // full load-time resolution — what vsq_inspect --kernels prints.
  const IntLayerPrimitive* primitive(const std::string& layer) const;
  const std::map<std::string, IntLayerPrimitive>& primitives() const { return prims_; }

 private:
  // One program step resolved at load: what forward() executes it with.
  // prim holds the layer op's primitive, or kAttention's q, k, v and out
  // projections; norm / embed the kLayerNorm / kEmbed parameter set.
  struct Step {
    ForwardStep::Op op = ForwardStep::Op::kGemm;
    bool relu = false;
    const IntLayerPrimitive* prim[4] = {};
    const LayerNormPackage* norm = nullptr;
    const EmbeddingPackage* embed = nullptr;
  };

  // The step loop over x's rows: `off` holds the token-row offsets of a
  // sequence program (empty otherwise). forward() runs it once on the
  // caller, or once per sample group.
  Tensor run_steps(const Tensor& x, const std::vector<std::int64_t>& off,
                   IntGemmStats* stats) const;

  const QuantizedModelPackage* pkg_;
  std::vector<ForwardStep> program_;
  std::map<std::string, IntLayerPrimitive> prims_;  // resolved at load time
  std::vector<Step> steps_;                          // parallel to program_
  int scale_product_bits_;
  bool spatial_ = false;  // program starts on an NHWC image
  bool seq_ = false;      // program starts on a token row (kEmbed first)
  std::int64_t in_features_ = 0, out_features_ = 0;
  std::int64_t max_seq_ = 0, out_per_token_ = 0, vocab_ = 0;
  std::int64_t unit_macs_ = 0;
};

// RAII deployment runner: installs a GEMM override on every listed layer so
// the model's own forward() executes each GEMM through the bit-accurate
// integer datapath of its package entry (the layer still applies its fp
// bias, exactly as the fake-quant path does). Construction resolves one
// IntLayerPrimitive per layer, so the overridden forwards never repack.
// Uninstalls on destruction. Aggregate datapath statistics (vector ops,
// gating) accumulate in stats().
//
//   QuantizedModelPackage pkg = QuantizedModelPackage::load(path);
//   {
//     IntegerExecutionGuard guard(model.gemms(), pkg);
//     Tensor logits = model.forward(batch, /*train=*/false);  // integer GEMMs
//   }  // model back to its previous execution mode
class IntegerExecutionGuard {
 public:
  // Throws std::invalid_argument if a layer has no package entry.
  IntegerExecutionGuard(std::vector<QuantizableGemm*> gemms, const QuantizedModelPackage& pkg,
                        int scale_product_bits = -1);
  ~IntegerExecutionGuard();

  IntegerExecutionGuard(const IntegerExecutionGuard&) = delete;
  IntegerExecutionGuard& operator=(const IntegerExecutionGuard&) = delete;

  const IntGemmStats& stats() const { return stats_; }

 private:
  std::vector<QuantizableGemm*> gemms_;
  std::map<std::string, IntLayerPrimitive> prims_;  // stable addresses
  IntGemmStats stats_;
};

}  // namespace vsq
