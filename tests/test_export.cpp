#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "exp/experiment_context.h"
#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "kernels/registry.h"
#include "nn/linear.h"
#include "quant/export.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "quant/learned_scale.h"
#include "serve/registry.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace vsq {
namespace {

Tensor random_tensor(Shape s, Rng& rng, double scale = 1.0) {
  Tensor t(s);
  for (auto& v : t.span()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

class ExportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(5);
    layer_ = std::make_unique<Linear>("fc1", 64, 16, *rng_);
    x_ = random_tensor(Shape{8, 64}, *rng_);
    layer_->set_quant(specs::weight_pv(4, ScaleDtype::kTwoLevelInt, 6),
                      specs::act_pv(8, false, ScaleDtype::kTwoLevelInt, 8));
    layer_->set_quant_mode(QuantMode::kCalibrate);
    layer_->forward(x_, false);
    layer_->calibrate_finalize();
    layer_->set_quant_mode(QuantMode::kQuantEval);
  }

  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Linear> layer_;
  Tensor x_;
};

TEST_F(ExportFixture, PackagedLayerMatchesQuantEvalForward) {
  const Tensor sw = layer_->forward(x_, false);

  const QuantizedLayerPackage pkg =
      export_gemm(*layer_, layer_->bias().value.to_vector());
  const Tensor hw = run_packaged_layer(pkg, x_);
  EXPECT_LT(max_abs_diff(sw, hw), 2e-4f * (1.0f + amax_per_tensor(sw)));
}

TEST_F(ExportFixture, PackageSurvivesSaveLoad) {
  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_pkg.vsqa";
  QuantizedModelPackage pkg;
  pkg.layers["fc1"] = export_gemm(*layer_, layer_->bias().value.to_vector());
  pkg.save(path);

  const QuantizedModelPackage loaded = QuantizedModelPackage::load(path);
  ASSERT_EQ(loaded.layers.size(), 1u);
  const Tensor a = run_packaged_layer(pkg.layers.at("fc1"), x_);
  const Tensor b = run_packaged_layer(loaded.layers.at("fc1"), x_);
  EXPECT_LT(max_abs_diff(a, b), 1e-6f);
  std::remove(path.c_str());
}

TEST_F(ExportFixture, CoarseBaselinePackageRoundTrips) {
  Linear poc("poc", 32, 8, *rng_);
  const Tensor x = random_tensor(Shape{4, 32}, *rng_);
  poc.set_quant(specs::weight_coarse(8), specs::act_coarse(8, false));
  poc.set_quant_mode(QuantMode::kCalibrate);
  poc.forward(x, false);
  poc.calibrate_finalize();
  poc.set_quant_mode(QuantMode::kQuantEval);

  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_pkg2.vsqa";
  QuantizedModelPackage pkg;
  pkg.layers["poc"] = export_gemm(poc, poc.bias().value.to_vector());
  pkg.save(path);
  const QuantizedModelPackage loaded = QuantizedModelPackage::load(path);
  const Tensor ref = poc.forward(x, false);
  const Tensor out = run_packaged_layer(loaded.layers.at("poc"), x);
  EXPECT_LT(max_abs_diff(ref, out), 2e-4f * (1.0f + amax_per_tensor(ref)));
  std::remove(path.c_str());
}

// ---- The packaged GEMM layer vs the materialized reference ----
//
// run_packaged_layer and IntLayerPrimitive::execute take the fused row
// loop when detail::row_local_quant admits the layer (each row quantized,
// per-vector rows by the bound act-quant kernel, right before it streams
// through the panels) and the materialized path otherwise. Either way the
// bits and the datapath counters must be those of quantize_activations_int
// + int_gemm + bias over the whole matrix, computed here directly.

struct GemmLayerCase {
  std::string what;
  QuantSpec wspec, aspec;
  std::int64_t cols;
  bool fused;         // expected row_local_quant verdict
  const char* quant;  // expected quant_name(); nullptr = the resolved tier
};

QuantizedLayerPackage gemm_layer(const GemmLayerCase& c, std::int64_t outs, Rng& rng) {
  QuantizedLayerPackage layer;
  layer.name = c.what;
  layer.weights = quantize_weights_int(random_tensor(Shape{outs, c.cols}, rng), c.wspec);
  layer.act_spec = c.aspec;
  layer.act_amax = 2.5f;
  if (c.aspec.granularity == Granularity::kPerVector) {
    layer.act_gamma = scale_from_amax(layer.act_amax, c.aspec.fmt) /
                      static_cast<float>(c.aspec.scale_fmt.qmax());
  }
  for (std::int64_t k = 0; k < outs; ++k) layer.bias.push_back(static_cast<float>(rng.normal()));
  return layer;
}

void expect_same_stats(const IntGemmStats& got, const IntGemmStats& ref, const std::string& what) {
  EXPECT_EQ(got.vector_ops, ref.vector_ops) << what;
  EXPECT_EQ(got.zero_scale_products, ref.zero_scale_products) << what;
  EXPECT_EQ(got.zero_dot_products, ref.zero_dot_products) << what;
  EXPECT_EQ(got.max_abs_psum, ref.max_abs_psum) << what;
}

TEST(PackagedGemmLayer, MatchesMaterializedReference) {
  const GemmLayerCase cases[] = {
      {"pv W4/uA8", specs::weight_pv(4, ScaleDtype::kTwoLevelInt, 6),
       specs::act_pv(8, true, ScaleDtype::kTwoLevelInt, 8), 64, true, nullptr},
      {"pv W4/A4 ragged", specs::weight_pv(4, ScaleDtype::kTwoLevelInt, 4),
       specs::act_pv(4, false, ScaleDtype::kTwoLevelInt, 6), 29, true, nullptr},
      {"pv W6/A3 V8", specs::weight_pv(6, ScaleDtype::kTwoLevelInt, 5, 8),
       specs::act_pv(3, false, ScaleDtype::kTwoLevelInt, 4, 8), 44, true, nullptr},
      {"coarse W8/uA8 static", specs::weight_coarse(8), specs::act_coarse(8, true), 48, true,
       "-"},
      {"pv W4/coarse A6 static", specs::weight_pv(4, ScaleDtype::kTwoLevelInt, 6),
       specs::act_coarse(6, false), 40, true, "-"},
      {"coarse A8 dynamic", specs::weight_coarse(8), specs::act_coarse(8, false, {}, true), 48,
       false, "-"},
      // 511 * 511 * 9000 > INT32_MAX: the int64 reference, no panels.
      {"pv W10/A10 V9000 (int64)", specs::weight_pv(10, ScaleDtype::kTwoLevelInt, 6, 9000),
       specs::act_pv(10, false, ScaleDtype::kTwoLevelInt, 8, 9000), 9008, false, "portable"},
  };
  constexpr std::int64_t kRows = 37, kOuts = 11;
  Rng rng(2024);
  for (const GemmLayerCase& c : cases) {
    const QuantizedLayerPackage layer = gemm_layer(c, kOuts, rng);
    ASSERT_EQ(detail::row_local_quant(layer.act_spec, layer.weights,
                                      layer.act_spec.layout(c.cols)),
              c.fused)
        << c.what;
    const IntLayerPrimitive prim(layer);
    EXPECT_STREQ(prim.quant_name(), c.quant ? c.quant : kernels::resolve_act_quant().name)
        << c.what;
    const Tensor x_rand = random_tensor(Shape{kRows, c.cols}, rng, 1.5);
    Tensor x_edge = x_rand;
    // Values every quantizer tier must treat like the reference loop (a
    // dynamic per-tensor amax turns the whole edge batch to NaN outputs,
    // hence the bitwise comparison below).
    x_edge.at2(1, 0) = 1e19f;
    x_edge.at2(1, 1) = -std::numeric_limits<float>::infinity();
    x_edge.at2(2, 2) = std::numeric_limits<float>::quiet_NaN();
    x_edge.at2(3, c.cols - 1) = -1e19f;
    for (std::int64_t col = 0; col < c.cols; ++col) x_edge.at2(4, col) = 0.0f;
    const int scale_bits = c.aspec.granularity == Granularity::kPerVector
                               ? c.aspec.scale_fmt.bits
                               : c.wspec.scale_fmt.bits;
    for (const auto& [input, sp_bits] :
         {std::pair{&x_rand, -1}, {&x_rand, 3}, {&x_rand, scale_bits}, {&x_edge, -1},
          {&x_edge, scale_bits}}) {
      const Tensor& x = *input;
      const std::string what = c.what + (input == &x_edge ? " edge" : "") +
                               " sp=" + std::to_string(sp_bits);
      IntGemmStats ref_stats;
      const QuantizedMatrix acts =
          quantize_activations_int(x, layer.act_spec, layer.act_amax, layer.act_gamma);
      Tensor ref = int_gemm(acts, layer.weights, sp_bits, &ref_stats);
      for (std::int64_t r = 0; r < kRows; ++r) {
        for (std::int64_t k = 0; k < kOuts; ++k) {
          ref.at2(r, k) += layer.bias[static_cast<std::size_t>(k)];
        }
      }
      for (const bool with_stats : {false, true}) {
        const std::string tag = what + (with_stats ? " stats" : "");
        IntGemmStats call_stats, prim_stats;
        const Tensor per_call =
            run_packaged_layer(layer, x, sp_bits, with_stats ? &call_stats : nullptr);
        const Tensor via_prim =
            prim.execute(x, IntExecContext{sp_bits, with_stats ? &prim_stats : nullptr});
        ASSERT_EQ(per_call.shape(), ref.shape()) << tag;
        ASSERT_EQ(via_prim.shape(), ref.shape()) << tag;
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
          const auto ref_bits = std::bit_cast<std::uint32_t>(ref[i]);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(per_call[i]), ref_bits)
              << tag << ": run_packaged_layer element " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(via_prim[i]), ref_bits)
              << tag << ": IntLayerPrimitive element " << i;
        }
        if (with_stats) {
          expect_same_stats(call_stats, ref_stats, tag + " run_packaged_layer");
          expect_same_stats(prim_stats, ref_stats, tag + " IntLayerPrimitive");
        }
      }
    }
  }
}

TEST(ExportErrors, RejectsUnquantizedLayer) {
  Rng rng(6);
  Linear l("l", 8, 4, rng);
  EXPECT_THROW(export_gemm(l, {}), std::invalid_argument);
}

TEST(ExportRoundTrip, SixteenBitScalePackageSurvivesLoad) {
  // The widest legal scale format: 16-bit integer per-vector scales (sq is
  // uint16, MacConfig accepts up to 16). The load-side validation must not
  // confuse it with the (narrower) element-width bound.
  Rng rng(77);
  Linear layer("fc1", 32, 8, rng);
  layer.set_quant(specs::weight_pv(8, ScaleDtype::kTwoLevelInt, 16),
                  specs::act_pv(8, false, ScaleDtype::kTwoLevelInt, 16));
  layer.set_quant_mode(QuantMode::kCalibrate);
  const Tensor x = random_tensor(Shape{4, 32}, rng);
  layer.forward(x, false);
  layer.calibrate_finalize();
  layer.set_quant_mode(QuantMode::kQuantEval);
  QuantizedModelPackage pkg;
  pkg.layers["fc1"] = export_gemm(layer, layer.bias().value.to_vector());
  const std::string path =
      (std::filesystem::temp_directory_path() / "vsq_test_pkg16.vsqa").string();
  pkg.save(path);
  const QuantizedModelPackage loaded = QuantizedModelPackage::load(path);  // must not throw
  const Tensor a = run_packaged_layer(pkg.layers.at("fc1"), x);
  const Tensor b = run_packaged_layer(loaded.layers.at("fc1"), x);
  EXPECT_LT(max_abs_diff(a, b), 1e-6f);
  std::remove(path.c_str());
}

// ---- Archive robustness: corrupt .vsqa inputs must fail cleanly ----
//
// Truncated, bit-flipped and wrong-magic archives go through every load
// surface — Archive::load, QuantizedModelPackage::load, and the
// multi-model registry's load_file path — and must either load (a flip
// that only touched payload floats) or throw an ordinary exception. No
// crash, no giant allocation, no UB: the sanitizer CI job runs this suite
// under ASan/UBSan.

// A small but fully featured package (per-vector weights, two-level
// scales, bias, forward program) written to a temp file; returns its path.
// `pack_weights` selects the on-disk weight encoding (packed sub-byte
// codes vs the legacy one-float-per-code form) so the fuzz sweeps cover
// both parse paths.
std::string write_fuzz_package(const std::string& tag, bool pack_weights = true) {
  Rng rng(55);
  Linear layer("fc1", 24, 6, rng);
  layer.set_quant(specs::weight_pv(4, ScaleDtype::kTwoLevelInt, 6),
                  specs::act_pv(8, false, ScaleDtype::kTwoLevelInt, 8));
  layer.set_quant_mode(QuantMode::kCalibrate);
  layer.forward(random_tensor(Shape{4, 24}, rng), false);
  layer.calibrate_finalize();
  layer.set_quant_mode(QuantMode::kQuantEval);
  QuantizedModelPackage pkg;
  pkg.layers["fc1"] = export_gemm(layer, layer.bias().value.to_vector());
  pkg.program = {{"fc1", false}};
  const std::string path =
      (std::filesystem::temp_directory_path() / ("vsq_fuzz_" + tag + ".vsqa")).string();
  pkg.save(path, pack_weights);
  return path;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Attempt every load surface on a (possibly corrupt) file. Success is
// allowed; anything thrown must be a std::exception. Returns true when the
// package load surfaces succeeded.
bool load_all_surfaces(const std::string& path, bool through_registry) {
  try {
    (void)Archive::load(path);
  } catch (const std::exception&) {
    return false;  // archive layer rejected it; package layers see nothing
  }
  bool pkg_ok = true;
  try {
    (void)QuantizedModelPackage::load(path);
  } catch (const std::exception&) {
    pkg_ok = false;
  }
  if (through_registry) {
    ServeConfig cfg;
    cfg.warmup = false;  // keep per-attempt cost tiny
    cfg.max_batch = 1;
    ModelRegistry reg(cfg);
    try {
      reg.load_file("fuzz", path);
      reg.unload("fuzz");
    } catch (const std::exception&) {
      // Parse or runner validation rejected it — the clean outcome.
    }
  }
  return pkg_ok;
}

TEST(ArchiveFuzz, WrongMagicFailsCleanly) {
  const std::string path = write_fuzz_package("magic");
  std::vector<char> bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 4u);
  bytes[0] = 'X';
  bytes[1] = 'Y';
  write_bytes(path, bytes);
  EXPECT_THROW((void)Archive::load(path), std::runtime_error);
  EXPECT_THROW((void)QuantizedModelPackage::load(path), std::runtime_error);
  ModelRegistry reg;
  EXPECT_THROW(reg.load_file("m", path), std::runtime_error);
  EXPECT_FALSE(reg.contains("m"));
  std::remove(path.c_str());
}

TEST(ArchiveFuzz, TruncationsFailCleanly) {
  for (const bool pack : {false, true}) {
    const std::string path =
        write_fuzz_package(pack ? "trunc_packed" : "trunc_legacy", pack);
    const std::vector<char> bytes = read_bytes(path);
    ASSERT_GT(bytes.size(), 64u);
    std::vector<std::size_t> cuts{0, 1, 3, 4, 7, 8, 11, 12, 15, 16, 20, 40, 64};
    for (std::size_t frac = 1; frac < 8; ++frac) cuts.push_back(bytes.size() * frac / 8);
    cuts.push_back(bytes.size() - 1);
    for (const std::size_t cut : cuts) {
      write_bytes(path, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
      EXPECT_THROW((void)Archive::load(path), std::runtime_error)
          << "cut=" << cut << " pack=" << pack;
      EXPECT_THROW((void)QuantizedModelPackage::load(path), std::runtime_error)
          << "cut=" << cut << " pack=" << pack;
    }
    // The registry path on a representative truncation.
    write_bytes(path,
                {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2)});
    ModelRegistry reg;
    EXPECT_THROW(reg.load_file("m", path), std::runtime_error);
    std::remove(path.c_str());
  }
}

TEST(ArchiveFuzz, BitFlipsNeverCrash) {
  for (const bool pack : {false, true}) {
    const std::string path =
        write_fuzz_package(pack ? "flip_packed" : "flip_legacy", pack);
    const std::vector<char> bytes = read_bytes(path);
    std::size_t loaded = 0, rejected = 0;
    // Dense sweep over the header + structural region, sparse over the
    // payload: every byte of the first 96, then every 7th byte after, with
    // a rotating bit position. Deterministic, so a failure reproduces.
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < std::min<std::size_t>(96, bytes.size()); ++i)
      positions.push_back(i);
    for (std::size_t i = 96; i < bytes.size(); i += 7) positions.push_back(i);
    for (std::size_t n = 0; n < positions.size(); ++n) {
      const std::size_t pos = positions[n];
      std::vector<char> corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (n % 8)));
      write_bytes(path, corrupt);
      // The registry spin-up is heavier than a parse; exercise it on a
      // deterministic subsample.
      if (load_all_surfaces(path, /*through_registry=*/n % 16 == 0)) {
        ++loaded;
      } else {
        ++rejected;
      }
    }
    // The sweep must have exercised both outcomes: flips in payload floats
    // load fine (legacy), or at minimum flips in structural fields get
    // rejected. The packed encoding validates every weight byte (range,
    // integrality, tail zeros), so a payload flip there may also reject —
    // only the legacy form guarantees some flips still load.
    if (!pack) {
      EXPECT_GT(loaded, 0u);
    }
    EXPECT_GT(rejected, 0u);
    std::remove(path.c_str());
  }
}

// ---- Sequence-package entries (__seq__, __ln__/*, __emb__/*) ------------
//
// The transformer package adds three new archive entry families: sequence
// geometry, fp32 layernorm parameters, and fp32 embedding tables. The
// same robustness contract applies — corrupting any of them must surface
// as a clean std::runtime_error (or load fine when only payload floats
// moved), never a crash or a poisoned runner.

std::string write_seq_fuzz_package(const std::string& tag) {
  const QuantizedModelPackage pkg = tiny_bert_package(MacConfig::parse("4/8/6/10"));
  const std::string path =
      (std::filesystem::temp_directory_path() / ("vsq_fuzz_" + tag + ".vsqa")).string();
  pkg.save(path);
  return path;
}

// Byte offsets of `needle` in `haystack` (entry names are stored verbatim
// in the archive, so this locates each new entry's neighborhood).
std::vector<std::size_t> find_all(const std::vector<char>& haystack, const std::string& needle) {
  std::vector<std::size_t> hits;
  if (needle.empty() || haystack.size() < needle.size()) return hits;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (std::memcmp(haystack.data() + i, needle.data(), needle.size()) == 0) hits.push_back(i);
  }
  return hits;
}

TEST(ArchiveFuzz, SequencePackageTruncationsFailCleanly) {
  const std::string path = write_seq_fuzz_package("seq_trunc");
  const std::vector<char> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 256u);
  std::vector<std::size_t> cuts{0, 1, 4, 8, 16, 64};
  for (std::size_t frac = 1; frac < 8; ++frac) cuts.push_back(bytes.size() * frac / 8);
  cuts.push_back(bytes.size() - 1);
  // Cut right at and just inside each new entry family, so the loader's
  // "truncated" branches for __seq__/__ln__/__emb__ actually execute.
  for (const std::string name : {"__seq__", "__ln__/", "__emb__/"}) {
    for (const std::size_t at : find_all(bytes, name)) {
      cuts.push_back(at);
      cuts.push_back(at + name.size() + 4);
    }
  }
  for (const std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    write_bytes(path, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_THROW((void)Archive::load(path), std::runtime_error) << "cut=" << cut;
    EXPECT_THROW((void)QuantizedModelPackage::load(path), std::runtime_error) << "cut=" << cut;
  }
  std::remove(path.c_str());
}

TEST(ArchiveFuzz, SequenceEntryBitFlipsNeverCrash) {
  const std::string path = write_seq_fuzz_package("seq_flip");
  const std::vector<char> bytes = read_bytes(path);
  // Dense sweep over each new entry's neighborhood (name + dims + the
  // leading payload words: geometry fields, the ln/emb self-describing
  // headers), sparse over the rest of the file.
  std::vector<std::size_t> positions;
  for (const std::string name : {"__seq__", "__ln__/", "__emb__/"}) {
    for (const std::size_t at : find_all(bytes, name)) {
      for (std::size_t i = at; i < std::min(bytes.size(), at + 96); ++i) positions.push_back(i);
    }
  }
  ASSERT_FALSE(positions.empty()) << "no sequence entries found in the archive";
  for (std::size_t i = 0; i < bytes.size(); i += 97) positions.push_back(i);
  std::size_t loaded = 0, rejected = 0;
  for (std::size_t n = 0; n < positions.size(); ++n) {
    const std::size_t pos = positions[n];
    std::vector<char> corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (n % 8)));
    write_bytes(path, corrupt);
    if (load_all_surfaces(path, /*through_registry=*/n % 64 == 0)) {
      ++loaded;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must occur: flips in fp payload (embedding/layernorm
  // floats) may load, flips in names/dims/geometry must reject.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

// ---- Sub-byte packed weight encoding: forward/backward compatibility ----
//
// PR introducing q_packed: new saves pack 24/bits weight codes per float
// (biased-unsigned, exact integers); old archives carry one float per code
// under name/q. Both parse paths must stay live, and a model must run
// bit-identically regardless of which encoding it was loaded from.

void expect_tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST(PackedArchiveCompat, LegacyArchiveLoadsAndRunsBitIdenticalToPacked) {
  // tiny_int_legacy.vsqa is the committed pre-q_packed golden; tiny_int.vsqa
  // is the same model re-exported in the packed encoding.
  const std::string legacy = std::string(VSQ_GOLDEN_DIR) + "/tiny_int_legacy.vsqa";
  const std::string packed = std::string(VSQ_GOLDEN_DIR) + "/tiny_int.vsqa";
  const QuantizedModelPackage from_legacy = QuantizedModelPackage::load(legacy);
  const QuantizedModelPackage from_packed = QuantizedModelPackage::load(packed);
  ASSERT_EQ(from_legacy.layers.size(), from_packed.layers.size());
  for (const auto& [name, l] : from_legacy.layers) {
    ASSERT_TRUE(from_packed.layers.count(name));
    EXPECT_EQ(l.weights.q, from_packed.layers.at(name).weights.q)
        << "decoded weight codes differ for layer " << name;
  }
  const QuantizedModelRunner run_legacy(from_legacy), run_packed(from_packed);
  Rng rng(909);
  Tensor x(Shape{4, run_legacy.in_features()});
  for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  expect_tensors_bitwise_equal(run_legacy.forward(x), run_packed.forward(x));
}

TEST(PackedArchiveCompat, LegacyConvArchiveRunsBitIdenticalToPacked) {
  const std::string legacy = std::string(VSQ_GOLDEN_DIR) + "/tiny_conv_legacy.vsqa";
  const std::string packed = std::string(VSQ_GOLDEN_DIR) + "/tiny_conv.vsqa";
  // The runner points into its package; both must outlive the forwards.
  const QuantizedModelPackage from_legacy = QuantizedModelPackage::load(legacy);
  const QuantizedModelPackage from_packed = QuantizedModelPackage::load(packed);
  const QuantizedModelRunner run_legacy(from_legacy), run_packed(from_packed);
  Rng rng(910);
  Tensor x(Shape{2, run_legacy.in_features()});
  for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  expect_tensors_bitwise_equal(run_legacy.forward(x), run_packed.forward(x));
}

TEST(PackedArchiveCompat, BothEncodingsAreSaveFixedPoints) {
  // save(load(x)) must be byte-identical to x for BOTH encodings: the
  // legacy writer (pack_weights=false) reproduces a legacy archive, the
  // packed writer reproduces a packed one — compat code must not silently
  // rewrite archives it merely passed through.
  const std::string legacy = std::string(VSQ_GOLDEN_DIR) + "/tiny_int_legacy.vsqa";
  const std::string packed = std::string(VSQ_GOLDEN_DIR) + "/tiny_int.vsqa";
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "vsq_compat_fixed_point.vsqa").string();
  QuantizedModelPackage::load(legacy).save(tmp, /*pack_weights=*/false);
  EXPECT_EQ(read_bytes(tmp), read_bytes(legacy))
      << "legacy-encoding writer drifted from the committed pre-packed archive";
  QuantizedModelPackage::load(packed).save(tmp, /*pack_weights=*/true);
  EXPECT_EQ(read_bytes(tmp), read_bytes(packed))
      << "packed-encoding writer is not a round-trip fixed point";
  std::remove(tmp.c_str());
}

// ---- Learned per-vector scales ----

TEST(LearnedScale, InitializesAtMaxCalibration) {
  Rng rng(7);
  const Tensor w = random_tensor(Shape{8, 32}, rng);
  const QuantFormat fmt{4, true};
  const VectorLayout layout{32, 8, 0};
  LearnedScaleQuantizer lsq(w, fmt, layout);
  const ScaleSet ref = compute_scales(w, Granularity::kPerVector, layout, fmt);
  for (std::size_t i = 0; i < ref.scales.size(); ++i) {
    EXPECT_NEAR(lsq.scales().scales[i], ref.scales[i], ref.scales[i] * 1e-6 + 1e-9);
  }
}

TEST(LearnedScale, FitReducesReconstructionError) {
  Rng rng(8);
  Tensor w(Shape{16, 64});
  for (auto& v : w.span()) v = static_cast<float>(rng.laplace(0.5));
  const QuantFormat fmt{3, true};
  const VectorLayout layout{64, 16, 0};
  LearnedScaleQuantizer lsq(w, fmt, layout);
  const double before = mse(w, lsq.forward(w));
  const double after = lsq.fit_reconstruction(w, 200, 5e-5f);
  EXPECT_LT(after, before);
}

TEST(LearnedScale, GradientMatchesFiniteDifference) {
  // LSQ scale gradient vs numeric differentiation of mean squared error.
  Rng rng(9);
  const Tensor w = random_tensor(Shape{2, 8}, rng);
  const QuantFormat fmt{4, true};
  const VectorLayout layout{8, 4, 0};
  LearnedScaleQuantizer lsq(w, fmt, layout);

  const auto loss = [&](const LearnedScaleQuantizer& q) {
    return mse(w, q.forward(w));
  };
  const Tensor wq = lsq.forward(w);
  Tensor go(w.shape());
  const auto n = static_cast<float>(w.numel());
  for (std::int64_t i = 0; i < w.numel(); ++i) go[i] = 2.0f * (wq[i] - w[i]) / n;
  const auto grads = lsq.backward(w, go);

  // Numeric: perturb each scale.
  for (std::size_t si = 0; si < lsq.scales().scales.size(); ++si) {
    LearnedScaleQuantizer plus = lsq, minus = lsq;
    std::vector<float> delta(lsq.scales().scales.size(), 0.0f);
    const float eps = 1e-4f;
    delta[si] = -eps;  // step() subtracts lr*grad; use it to nudge scales
    plus.step(delta, 1.0f);
    delta[si] = eps;
    minus.step(delta, 1.0f);
    const double num = (loss(plus) - loss(minus)) / (2 * eps);
    EXPECT_NEAR(grads.scale_grad[si], num, 5e-2 * (1.0 + std::abs(num))) << "scale " << si;
  }
}

TEST(LearnedScale, StepKeepsScalesPositive) {
  Rng rng(10);
  const Tensor w = random_tensor(Shape{2, 8}, rng);
  LearnedScaleQuantizer lsq(w, QuantFormat{4, true}, VectorLayout{8, 4, 0});
  std::vector<float> huge(lsq.scales().scales.size(), 1e9f);
  lsq.step(huge, 1.0f);
  for (const float s : lsq.scales().scales) EXPECT_GT(s, 0.0f);
}

}  // namespace
}  // namespace vsq
