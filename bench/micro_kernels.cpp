// google-benchmark microbenchmarks of the library's kernels: GEMM,
// per-vector fake quantization (single- and two-level), the bit-accurate
// integer GEMM and PE datapath, each int-panel kernel, and fp16 scale
// rounding.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/pe_simulator.h"
#include "kernels/isa.h"
#include "kernels/registry.h"
#include "quant/fake_quant.h"
#include "quant/int_conv.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "quant/quantized_tensor.h"
#include "tensor/conv_engine.h"
#include "tensor/gemm.h"
#include "util/fp16.h"
#include "util/rng.h"
#include "util/scratch.h"

namespace {

using namespace vsq;

Tensor random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

void BM_GemmNt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Tensor a = random_matrix(n, n, 1);
  const Tensor b = random_matrix(n, n, 2);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm_nt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNt)->Arg(64)->Arg(128)->Arg(256);

void BM_FakeQuantPerVectorDynamic(benchmark::State& state) {
  const Tensor x = random_matrix(256, 512, 3);
  QuantSpec spec;
  spec.enabled = true;
  spec.fmt = QuantFormat{4, true};
  spec.granularity = Granularity::kPerVector;
  spec.vector_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tensor y = fake_quantize_per_vector_dynamic(x, spec);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_FakeQuantPerVectorDynamic)->Arg(4)->Arg(16)->Arg(64);

void BM_FakeQuantTwoLevelDynamic(benchmark::State& state) {
  const Tensor x = random_matrix(256, 512, 4);
  QuantSpec spec;
  spec.enabled = true;
  spec.fmt = QuantFormat{4, true};
  spec.granularity = Granularity::kPerVector;
  spec.vector_size = 16;
  spec.scale_fmt = QuantFormat{6, false};
  const float gamma = scale_from_amax(amax_per_tensor(x), spec.fmt) /
                      static_cast<float>(spec.scale_fmt.qmax());
  for (auto _ : state) {
    Tensor y = fake_quantize_per_vector_two_level_dynamic(x, spec, gamma);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_FakeQuantTwoLevelDynamic);

void BM_PeSimulator(benchmark::State& state) {
  const Tensor w = random_matrix(64, 256, 5);
  const Tensor a = random_matrix(64, 256, 6);
  MacConfig cfg;
  cfg.wt_bits = 4;
  cfg.act_bits = 4;
  cfg.wt_scale_bits = 4;
  cfg.act_scale_bits = 4;
  cfg.scale_product_bits = static_cast<int>(state.range(0));
  cfg.act_unsigned = false;
  const PeSimulator pe(cfg);
  const float amax = amax_per_tensor(a);
  for (auto _ : state) {
    PeRunResult r = pe.run(a, w, amax);
    benchmark::DoNotOptimize(r.output.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 256);
}
BENCHMARK(BM_PeSimulator)->Arg(-1)->Arg(4);

// Bit-accurate integer GEMM (the VS-Quant vector MAC datapath) on a
// BERT-base-shaped tile: two-level 4-bit operands with 6-bit vector scales.
void BM_IntGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(11);
  Tensor w(Shape{n, n}), a(Shape{n, n});
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());
  for (auto& v : a.span()) v = static_cast<float>(rng.normal());

  QuantSpec wspec;
  wspec.enabled = true;
  wspec.fmt = QuantFormat{4, true};
  wspec.granularity = Granularity::kPerVector;
  wspec.vector_size = 16;
  wspec.scale_dtype = ScaleDtype::kTwoLevelInt;
  wspec.scale_fmt = QuantFormat{6, false};
  QuantSpec aspec = wspec;
  aspec.dynamic = true;

  const QuantizedMatrix wq = quantize_weights_int(w, wspec);
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, aspec.fmt) /
                      static_cast<float>(aspec.scale_fmt.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, aspec, amax, gamma);

  for (auto _ : state) {
    Tensor y = int_gemm(aq, wq, /*scale_product_bits=*/6, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_IntGemm)->Arg(128)->Arg(256);

// Fused tiled-im2col convolution on a ResNetV block shape (16x16 images,
// K=3, C = out = Arg). items = MACs, comparable to BM_GemmNt.
void BM_ConvFused(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  const ConvGeom g{16, 16, c, 3, 1, 1};
  const std::int64_t n = 8, k_out = c;
  Rng rng(21);
  Tensor x(Shape{n, g.in_h, g.in_w, c}), w(Shape{k_out, g.patch_len()}), bias(Shape{k_out});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());
  for (auto& v : bias.span()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    Tensor y = conv2d_nhwc(x, g, w, bias.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * g.out_h() * g.out_w() * g.patch_len() *
                          k_out);
}
BENCHMARK(BM_ConvFused)->Arg(16)->Arg(64);

// Tiled integer convolution (patch-streamed quantize + packed panels) at
// the paper's 4/8/6/10 operating point. items = MACs.
void BM_IntConv(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  const ConvGeom g{16, 16, c, 3, 1, 1};
  const std::int64_t n = 8, k_out = c;
  Rng rng(22);
  Tensor x(Shape{n, g.in_h, g.in_w, c}), w(Shape{k_out, g.patch_len()});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());

  QuantSpec wspec;
  wspec.enabled = true;
  wspec.fmt = QuantFormat{4, true};
  wspec.granularity = Granularity::kPerVector;
  wspec.vector_size = 16;
  wspec.channel_block = c;
  wspec.scale_dtype = ScaleDtype::kTwoLevelInt;
  wspec.scale_fmt = QuantFormat{6, false};
  QuantSpec aspec = wspec;
  aspec.fmt = QuantFormat{8, true};
  aspec.scale_fmt = QuantFormat{10, false};
  aspec.dynamic = true;

  const QuantizedMatrix wq = quantize_weights_int(w, wspec);
  const float amax = amax_per_tensor(x.reshape(Shape{n * g.in_h * g.in_w, c}));
  const float gamma =
      scale_from_amax(amax, aspec.fmt) / static_cast<float>(aspec.scale_fmt.qmax());
  for (auto _ : state) {
    Tensor y = int_conv(x, g, wq, aspec, amax, gamma, /*bias=*/{});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * g.out_h() * g.out_w() * g.patch_len() *
                          k_out);
}
BENCHMARK(BM_IntConv)->Arg(16)->Arg(64);

// ---- per-ISA-tier entries ----
//
// The same BM_IntGemm / BM_ConvFused workloads pinned to each kernel
// dispatch tier via the VSQ_ISA cap, registered only for tiers this CPU
// supports. Baselines carry the tiers of the machine that recorded them;
// compare_bench.py treats hardware-dependent entries as optional
// (--optional=avx512_vnni) so the gate ports across runners.

class ScopedIsa {
 public:
  explicit ScopedIsa(const std::string& tier) {
    if (const char* prev = std::getenv("VSQ_ISA")) prev_ = prev;
    setenv("VSQ_ISA", tier.c_str(), 1);
  }
  ~ScopedIsa() {
    if (prev_) {
      setenv("VSQ_ISA", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }

 private:
  std::optional<std::string> prev_;
};

void bm_int_gemm_isa(benchmark::State& state, const std::string& tier) {
  const ScopedIsa cap(tier);
  const std::int64_t n = 256;
  Rng rng(11);
  Tensor w(Shape{n, n}), a(Shape{n, n});
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());
  for (auto& v : a.span()) v = static_cast<float>(rng.normal());

  QuantSpec wspec;
  wspec.enabled = true;
  wspec.fmt = QuantFormat{4, true};
  wspec.granularity = Granularity::kPerVector;
  wspec.vector_size = 16;
  wspec.scale_dtype = ScaleDtype::kTwoLevelInt;
  wspec.scale_fmt = QuantFormat{6, false};
  QuantSpec aspec = wspec;
  aspec.dynamic = true;

  const QuantizedMatrix wq = quantize_weights_int(w, wspec);
  const float amax = amax_per_tensor(a);
  const float gamma =
      scale_from_amax(amax, aspec.fmt) / static_cast<float>(aspec.scale_fmt.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, aspec, amax, gamma);

  for (auto _ : state) {
    Tensor y = int_gemm(aq, wq, /*scale_product_bits=*/6, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void bm_conv_fused_isa(benchmark::State& state, const std::string& tier) {
  const ScopedIsa cap(tier);
  const std::int64_t c = 64;
  const ConvGeom g{16, 16, c, 3, 1, 1};
  const std::int64_t n = 8, k_out = c;
  Rng rng(21);
  Tensor x(Shape{n, g.in_h, g.in_w, c}), w(Shape{k_out, g.patch_len()}), bias(Shape{k_out});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());
  for (auto& v : bias.span()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    Tensor y = conv2d_nhwc(x, g, w, bias.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * g.out_h() * g.out_w() * g.patch_len() *
                          k_out);
}

const int kIsaTierBenches = [] {
  std::vector<std::string> tiers{"portable"};
  if (isa::features().avx2) tiers.push_back("avx2");
  if (isa::features().avx512_vnni) tiers.push_back("avx512_vnni");
  for (const std::string& t : tiers) {
    benchmark::RegisterBenchmark(("BM_IntGemm/isa:" + t + "/256").c_str(),
                                 bm_int_gemm_isa, t);
    benchmark::RegisterBenchmark(("BM_ConvFused/isa:" + t + "/64").c_str(),
                                 bm_conv_fused_isa, t);
  }
  return 0;
}();

// The act-quant primitive — the PPU's amax -> sq -> codes pass — per
// tier: the kernel resolved under the cap, called once per row into
// preallocated buffers, as the packaged GEMM and int_conv row loops call
// it. 8-bit activations with 10-bit vector scales at V=16 (the 4/8/6/10
// operating point); [128, 32] is a tiny_bert projection batch, [16, 256]
// a tiny-MLP fc1 batch. items = elements quantized.
void bm_quantize_activations_isa(benchmark::State& state, const std::string& tier,
                                 std::int64_t rows, std::int64_t cols) {
  const ScopedIsa cap(tier);
  const kernels::ActQuantImpl& impl = kernels::resolve_act_quant();
  const Tensor x = random_matrix(rows, cols, 41);
  const QuantFormat fmt{8, true}, scale_fmt{10, false};
  const VectorLayout layout{cols, 16, 0};
  const std::int64_t vpr = layout.vectors_per_row();
  std::vector<kernels::VecRange> vr;
  for (std::int64_t v = 0; v < vpr; ++v) {
    const auto [c0, c1] = layout.col_range(v);
    vr.push_back({static_cast<std::int32_t>(c0), static_cast<std::int32_t>(c1 - c0)});
  }
  const float gamma =
      scale_from_amax(amax_per_tensor(x), fmt) / static_cast<float>(scale_fmt.qmax());
  const kernels::ActQuantParams p{{fmt.bits, fmt.is_signed},
                                  {scale_fmt.bits, scale_fmt.is_signed}, gamma};
  std::vector<std::int16_t> q(static_cast<std::size_t>(rows * cols));
  std::vector<std::uint16_t> sq(static_cast<std::size_t>(rows * vpr));
  for (auto _ : state) {
    for (std::int64_t r = 0; r < rows; ++r) {
      impl.fn(x.data() + r * cols, vr.data(), vpr, p, q.data() + r * cols, sq.data() + r * vpr);
    }
    benchmark::DoNotOptimize(q.data());
    benchmark::DoNotOptimize(sq.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}

const int kQuantizeActivationsBenches = [] {
  std::vector<std::string> tiers{"portable"};
  if (isa::features().avx2) tiers.push_back("avx2");
  for (const std::string& t : tiers) {
    for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{128, 32}, {16, 256}}) {
      benchmark::RegisterBenchmark(("BM_QuantizeActivations/isa:" + t + "/" +
                                    std::to_string(rows) + "x" + std::to_string(cols))
                                       .c_str(),
                                   bm_quantize_activations_isa, t, rows, cols);
    }
  }
  return 0;
}();

// The gelu primitive per tier: the kernel resolved under the cap over one
// buffer of 10752 elements, a 168-token tiny_bert batch's 64-wide FFN
// rows (what one GELU step of the runner covers), drawn N(0, 1) like
// fc1's pre-activations. items = elements.
void bm_gelu_isa(benchmark::State& state, const std::string& tier, std::int64_t n) {
  const ScopedIsa cap(tier);
  const kernels::GeluImpl& impl = kernels::resolve_gelu();
  const Tensor x = random_matrix(1, n, 43);
  std::vector<float> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    impl.fn(x.data(), n, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

const int kGeluBenches = [] {
  std::vector<std::string> tiers{"portable"};
  if (isa::features().avx2) tiers.push_back("avx2");
  for (const std::string& t : tiers) {
    benchmark::RegisterBenchmark(("BM_Gelu/isa:" + t + "/10752").c_str(), bm_gelu_isa, t,
                                 std::int64_t{10752});
  }
  return 0;
}();

// ---- int-panel kernels, one at a time ----
//
// Each built-in int-panel kernel, pinned by name, on one activation row x
// one weight panel: the call the integer GEMM and conv row loops make per
// (row, panel), and the measurements behind the preference list in
// kernels/registry.h. V=16 with 4-bit weights and s8 activations; 27
// columns is the tiny_conv stem (3x3x3 patches, so the last vector is
// odd), 72 a tiny_conv 3x3 conv (3x3x8), 256 the tiny MLP's fc1. A kernel
// registers only where it is built in and eligible for the shape.
// Operands are zero: no kernel's control flow depends on the data.
// items = MACs.
void bm_int_panel(benchmark::State& state, const kernels::IntPanelImpl* impl,
                  std::int64_t cols) {
  constexpr std::int64_t kV = 16, kPnr = kernels::kPanelCols;
  std::vector<kernels::VecRange> vr;
  std::int64_t quad_cols = 0;
  for (std::int64_t c0 = 0; c0 < cols; c0 += kV) {
    const std::int64_t len = std::min(kV, cols - c0);
    vr.push_back({static_cast<std::int32_t>(c0), static_cast<std::int32_t>(len)});
    quad_cols += (len + 3) / 4 * 4;
  }
  const auto nvec = static_cast<std::int64_t>(vr.size());
  // Zeroed 64-byte-aligned buffers (the AVX2 kernels load aligned); the
  // panel is sized for the widest layout, int16 [c][j] or quad-i8 with
  // each vector padded to a multiple of 4.
  ScratchArena arena;
  const auto zeros = [&arena](std::int64_t bytes) {
    void* p = arena.alloc(static_cast<std::size_t>(bytes));
    std::memset(p, 0, static_cast<std::size_t>(bytes));
    return p;
  };
  kernels::PanelArgs a;
  a.wp = zeros(std::max<std::int64_t>(cols * 2, quad_cols) * kPnr);
  a.arow = static_cast<const std::int16_t*>(zeros(cols * 2));
  a.arow8 = static_cast<const std::uint8_t*>(zeros(cols + 4));
  a.ncomp = static_cast<const std::int32_t*>(zeros(nvec * kPnr * 4));
  a.vcomp = static_cast<const std::int32_t*>(zeros(nvec * 4));
  a.vr = vr.data();
  a.nvec = nvec;
  a.wbits = 4;
  a.dp = static_cast<std::int32_t*>(zeros(nvec * kPnr * 4));
  for (auto _ : state) {
    impl->fn(a);
    benchmark::DoNotOptimize(a.dp);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cols * kPnr);
}

const int kIntPanelBenches = [] {
  for (const char* name : {"avx512_vnni_sub4", "avx2_sub4_madd", "avx2_sub", "portable_sub",
                           "avx512_vnni", "avx2_madd", "avx2", "portable"}) {
    const kernels::IntPanelImpl* impl = kernels::find_int_panel_impl(name);
    if (impl == nullptr) continue;
    for (const std::int64_t cols : {27, 72, 256}) {
      kernels::KernelDesc d;
      d.shape = {16, cols % 2 == 0};  // V=16: every vector is even iff cols is
      d.quant.act = {8, true};
      d.quant.wgt = {4, true};
      if (impl->eligible != nullptr && !impl->eligible(d)) continue;
      benchmark::RegisterBenchmark(
          ("BM_IntPanel/impl:" + std::string(name) + "/cols:" + std::to_string(cols)).c_str(),
          bm_int_panel, impl, cols);
    }
  }
  return 0;
}();

// ---- sub-byte packed weight panels ----
//
// The 4-bit int_gemm workload at large K — the regime where the panel
// loop is weight-bandwidth-bound and the packed layouts pay off — pinned
// per tier, with the packed preference on (sub-byte panels, unpack in
// register) vs forced byte-width int16 panels (VSQ_PACKED=0). Panels are
// prepacked once outside the timing loop, the serving configuration, so
// the loop measures streaming, not packing. The shape is chosen so the
// int16 panels (~16 MiB at 4096x2048) outgrow a per-core L2 while the
// packed form (~6 MiB) stays close to it — the regime a real serving
// layer lives in — rather than an L2-resident toy where unpack ALU cost
// dominates. wt_stream_Bps reports the
// weight-panel bytes the row loop streams per second (rows x resident
// panel bytes per forward); the packed rows stream ~1/3 the bytes of the
// int16 rows for the same MACs.

class ScopedPacked {
 public:
  explicit ScopedPacked(const char* v) {
    if (const char* prev = std::getenv("VSQ_PACKED")) prev_ = prev;
    setenv("VSQ_PACKED", v, 1);
  }
  ~ScopedPacked() {
    if (prev_) {
      setenv("VSQ_PACKED", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_PACKED");
    }
  }

 private:
  std::optional<std::string> prev_;
};

void bm_int_gemm_4bit_panels(benchmark::State& state, const std::string& tier, bool packed) {
  const ScopedIsa cap(tier);
  const ScopedPacked pref(packed ? "1" : "0");
  const std::int64_t rows = 8, cols = 4096, k_out = 2048;
  Rng rng(31);
  Tensor w(Shape{k_out, cols}), a(Shape{rows, cols});
  for (auto& v : w.span()) v = static_cast<float>(rng.normal());
  for (auto& v : a.span()) v = static_cast<float>(rng.normal());

  QuantSpec wspec;
  wspec.enabled = true;
  wspec.fmt = QuantFormat{4, true};
  wspec.granularity = Granularity::kPerVector;
  wspec.vector_size = 16;
  wspec.scale_dtype = ScaleDtype::kTwoLevelInt;
  wspec.scale_fmt = QuantFormat{6, false};
  QuantSpec aspec = wspec;
  aspec.fmt = QuantFormat{8, true};
  aspec.scale_fmt = QuantFormat{10, false};
  aspec.dynamic = true;

  const QuantizedMatrix wq = quantize_weights_int(w, wspec);
  const float amax = amax_per_tensor(a);
  const float gamma =
      scale_from_amax(amax, aspec.fmt) / static_cast<float>(aspec.scale_fmt.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, aspec, amax, gamma);

  const detail::IntWeightPanels panels(wq, aq.layout, detail::IntActAttrs::of(aq));
  for (auto _ : state) {
    Tensor y = detail::int_gemm_packed(aq, wq, /*scale_product_bits=*/6, nullptr, &panels);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols * k_out);
  state.counters["wt_resident_bytes"] = static_cast<double>(panels.resident_bytes());
  state.counters["wt_stream_Bps"] = benchmark::Counter(
      static_cast<double>(rows * panels.resident_bytes()),
      benchmark::Counter::kIsIterationInvariantRate);
}

const int kPackedPanelBenches = [] {
  std::vector<std::string> tiers{"portable"};
  if (isa::features().avx2) tiers.push_back("avx2");
  if (isa::features().avx512_vnni) tiers.push_back("avx512_vnni");
  for (const std::string& t : tiers) {
    benchmark::RegisterBenchmark(("BM_IntGemm/bits:4/isa:" + t + "/panels:packed").c_str(),
                                 bm_int_gemm_4bit_panels, t, true);
    benchmark::RegisterBenchmark(("BM_IntGemm/bits:4/isa:" + t + "/panels:int16").c_str(),
                                 bm_int_gemm_4bit_panels, t, false);
  }
  return 0;
}();

void BM_Fp16Round(benchmark::State& state) {
  const Tensor x = random_matrix(64, 512, 7);
  Tensor y(x.shape());
  for (auto _ : state) {
    for (std::int64_t i = 0; i < x.numel(); ++i) y[i] = fp16_round(x[i]);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Fp16Round);

void BM_WeightQuantizeTwoLevel(benchmark::State& state) {
  const Tensor w = random_matrix(128, 1152, 8);
  QuantSpec spec;
  spec.enabled = true;
  spec.fmt = QuantFormat{4, true};
  spec.granularity = Granularity::kPerVector;
  spec.vector_size = 16;
  spec.scale_dtype = ScaleDtype::kTwoLevelInt;
  spec.scale_fmt = QuantFormat{6, false};
  spec.channel_block = 128;
  for (auto _ : state) {
    QuantizedOperand q = quantize_weights(w, spec);
    benchmark::DoNotOptimize(q.fake.data());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_WeightQuantizeTwoLevel);

}  // namespace
