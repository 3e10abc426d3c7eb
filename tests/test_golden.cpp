// Golden-archive regression tests for the deployment package format and
// the integer datapath. tests/golden/ holds a committed package exported
// from the deterministic tiny model plus an input/expected-output archive
// produced by QuantizedModelRunner at commit time. Any drift in the
// archive encoding, the package save/load round trip, the quantization
// arithmetic, or int_gemm itself fails these tests loudly instead of
// silently changing deployed behavior.
//
// Regenerate after an INTENTIONAL format/datapath change with:
//   ./test_golden --gtest_also_run_disabled_tests
//                 --gtest_filter='*RegenerateGoldenFiles*'
// (one command line) and commit the rewritten files with the change.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "models/zoo.h"
#include "quant/export.h"
#include "util/rng.h"

namespace vsq {
namespace {

std::string golden_dir() { return VSQ_GOLDEN_DIR; }
std::string golden_package_path() { return golden_dir() + "/tiny_int.vsqa"; }
std::string golden_io_path() { return golden_dir() + "/tiny_io.vsqa"; }
std::string golden_conv_package_path() { return golden_dir() + "/tiny_conv.vsqa"; }
std::string golden_conv_io_path() { return golden_dir() + "/tiny_conv_io.vsqa"; }
std::string golden_bert_package_path() { return golden_dir() + "/tiny_bert.vsqa"; }
std::string golden_bert_io_path() { return golden_dir() + "/tiny_bert_io.vsqa"; }

// The exact package vsq_quantize --model=tiny exports (same seed, same
// calibration stream, same config — one shared definition in exp/ptq).
QuantizedModelPackage build_tiny_package() {
  return tiny_mlp_package(MacConfig::parse("4/8/6/10"));
}

// Likewise for --model=tiny_conv: the tiny residual CNN package with conv
// geometry, the conv/residual/pool forward program and the input shape.
QuantizedModelPackage build_tiny_conv_package() {
  return tiny_conv_package(MacConfig::parse("4/8/6/10"));
}

Tensor golden_input() {
  // uniform() is pure integer/IEEE arithmetic (no libm), so the input is
  // reproducible to the bit on every platform and C library.
  Rng rng(4242);
  Tensor x(Shape{4, TinyMlp::kIn});
  for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return x;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(GoldenPackage, SaveLoadRoundTripIsByteIdentical) {
  const std::string tmp1 = std::filesystem::temp_directory_path() / "vsq_golden_rt1.vsqa";
  const std::string tmp2 = std::filesystem::temp_directory_path() / "vsq_golden_rt2.vsqa";
  // load(golden) -> save must reproduce the committed bytes exactly: the
  // on-disk encoding is part of the deployment contract.
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_package_path());
  pkg.save(tmp1);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(golden_package_path()))
      << "save(load(golden)) differs from the committed archive - the "
         "package format drifted";
  // And the round trip is a fixed point.
  QuantizedModelPackage::load(tmp1).save(tmp2);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(tmp2));
  std::remove(tmp1.c_str());
  std::remove(tmp2.c_str());
}

TEST(GoldenPackage, StructureMatchesCommittedExpectations) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_package_path());
  ASSERT_EQ(pkg.layers.size(), 2u);
  ASSERT_TRUE(pkg.layers.count("fc1"));
  ASSERT_TRUE(pkg.layers.count("fc2"));
  const QuantizedLayerPackage& fc1 = pkg.layers.at("fc1");
  EXPECT_EQ(fc1.weights.rows, TinyMlp::kHidden);
  EXPECT_EQ(fc1.weights.cols(), TinyMlp::kIn);
  EXPECT_EQ(fc1.weights.fmt.bits, 4);
  EXPECT_TRUE(fc1.weights.fmt.is_signed);
  EXPECT_EQ(fc1.weights.layout.vector_size, 16);
  ASSERT_TRUE(fc1.weights.two_level.has_value());
  EXPECT_EQ(fc1.weights.two_level->scale_fmt.bits, 6);
  EXPECT_EQ(fc1.act_spec.fmt.bits, 8);
  EXPECT_EQ(fc1.act_spec.scale_fmt.bits, 10);
  EXPECT_GT(fc1.act_amax, 0.0f);
  EXPECT_GT(fc1.act_gamma, 0.0f);
  const QuantizedLayerPackage& fc2 = pkg.layers.at("fc2");
  EXPECT_EQ(fc2.weights.rows, TinyMlp::kOut);
  EXPECT_EQ(fc2.weights.cols(), TinyMlp::kHidden);
  ASSERT_EQ(pkg.program.size(), 2u);
  EXPECT_EQ(pkg.program[0].layer, "fc1");
  EXPECT_TRUE(pkg.program[0].relu);
  EXPECT_EQ(pkg.program[1].layer, "fc2");
  EXPECT_FALSE(pkg.program[1].relu);
}

TEST(GoldenPackage, FreshExportMatchesCommittedArchive) {
  // Quantizing the deterministic tiny model today must reproduce the
  // committed package bit-for-bit: calibration, scale factorization and
  // weight quantization are all deterministic functions of the seed.
  // Calibration runs the fp32 forward, whose microkernel tiers all round
  // each multiply-add once, so every VSQ_ISA tier exports the same bytes.
  const std::string tmp = std::filesystem::temp_directory_path() / "vsq_golden_fresh.vsqa";
  build_tiny_package().save(tmp);
  EXPECT_EQ(read_bytes(tmp), read_bytes(golden_package_path()))
      << "fresh tiny export differs from the committed archive - the "
         "calibration/export pipeline drifted";
  std::remove(tmp.c_str());
}

TEST(GoldenPackage, RunnerReproducesCommittedOutputsBitExactly) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_package_path());
  const QuantizedModelRunner runner(pkg);
  const Archive io = Archive::load(golden_io_path());
  const ArchiveEntry& in = io.get("input");
  const ArchiveEntry& expected = io.get("output");
  ASSERT_EQ(in.dims.size(), 2u);
  const Tensor x = Tensor::from_vector(Shape{in.dims[0], in.dims[1]}, in.data);
  const Tensor y = runner.forward(x);
  ASSERT_EQ(static_cast<std::size_t>(y.numel()), expected.data.size());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], expected.data[static_cast<std::size_t>(i)])
        << "integer datapath output drifted at element " << i;
  }
}

// ---- Conv package goldens ------------------------------------------------
// Same contract for the CNN deployment format: conv geometry entries, the
// op-coded forward program, the input-geometry entry and the tiled integer
// conv datapath all participate in the byte-stability guarantee.

Tensor golden_conv_input() {
  Rng rng(2424);
  Tensor x(Shape{4, 8 * 8 * 3});
  for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return x;
}

TEST(GoldenConvPackage, SaveLoadRoundTripIsByteIdentical) {
  const std::string tmp1 = std::filesystem::temp_directory_path() / "vsq_golden_conv_rt1.vsqa";
  const std::string tmp2 = std::filesystem::temp_directory_path() / "vsq_golden_conv_rt2.vsqa";
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_conv_package_path());
  pkg.save(tmp1);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(golden_conv_package_path()))
      << "save(load(golden)) differs from the committed conv archive - the "
         "package format drifted";
  QuantizedModelPackage::load(tmp1).save(tmp2);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(tmp2));
  std::remove(tmp1.c_str());
  std::remove(tmp2.c_str());
}

TEST(GoldenConvPackage, StructureMatchesCommittedExpectations) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_conv_package_path());
  // stem + stage0.block0{conv1,conv2} + stage1.block0{conv1,conv2,shortcut} + fc.
  ASSERT_EQ(pkg.layers.size(), 7u);
  EXPECT_EQ(pkg.in_h, 8);
  EXPECT_EQ(pkg.in_w, 8);
  EXPECT_EQ(pkg.in_c, 3);
  const QuantizedLayerPackage& stem = pkg.layers.at("stem");
  EXPECT_EQ(stem.kind, PackagedLayerKind::kConv);
  EXPECT_EQ(stem.kernel, 3);
  EXPECT_EQ(stem.stride, 1);
  EXPECT_EQ(stem.pad, 1);
  EXPECT_EQ(stem.conv_in_channels(), 3);
  EXPECT_FALSE(stem.bias.empty());  // BN folding plants the bias
  const QuantizedLayerPackage& shortcut = pkg.layers.at("stage1.block0.shortcut");
  EXPECT_EQ(shortcut.kernel, 1);
  EXPECT_EQ(shortcut.stride, 2);
  EXPECT_EQ(shortcut.conv_in_channels(), 8);
  const QuantizedLayerPackage& fc = pkg.layers.at("fc");
  EXPECT_EQ(fc.kind, PackagedLayerKind::kGemm);
  EXPECT_EQ(fc.weights.rows, 10);
  EXPECT_EQ(fc.weights.cols(), 16);
  // Program: stem + 4-step plain block + 5-step projection block + gap + fc.
  ASSERT_EQ(pkg.program.size(), 12u);
  EXPECT_EQ(pkg.program[0].op, ForwardStep::Op::kConv);
  EXPECT_EQ(pkg.program[0].layer, "stem");
  EXPECT_TRUE(pkg.program[0].relu);
  EXPECT_EQ(pkg.program[1].op, ForwardStep::Op::kSave);
  EXPECT_EQ(pkg.program[8].op, ForwardStep::Op::kConvSaved);
  EXPECT_EQ(pkg.program[8].layer, "stage1.block0.shortcut");
  EXPECT_EQ(pkg.program[10].op, ForwardStep::Op::kGlobalPool);
  EXPECT_EQ(pkg.program[11].op, ForwardStep::Op::kGemm);
  EXPECT_EQ(pkg.program[11].layer, "fc");
}

TEST(GoldenConvPackage, FreshExportMatchesCommittedArchive) {
  const std::string tmp = std::filesystem::temp_directory_path() / "vsq_golden_conv_fresh.vsqa";
  build_tiny_conv_package().save(tmp);
  EXPECT_EQ(read_bytes(tmp), read_bytes(golden_conv_package_path()))
      << "fresh tiny_conv export differs from the committed archive - the "
         "CNN calibration/export pipeline drifted";
  std::remove(tmp.c_str());
}

TEST(GoldenConvPackage, RunnerReproducesCommittedOutputsBitExactly) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_conv_package_path());
  const QuantizedModelRunner runner(pkg);
  const Archive io = Archive::load(golden_conv_io_path());
  const ArchiveEntry& in = io.get("input");
  const ArchiveEntry& expected = io.get("output");
  ASSERT_EQ(in.dims.size(), 2u);
  const Tensor x = Tensor::from_vector(Shape{in.dims[0], in.dims[1]}, in.data);
  const Tensor y = runner.forward(x);
  ASSERT_EQ(static_cast<std::size_t>(y.numel()), expected.data.size());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], expected.data[static_cast<std::size_t>(i)])
        << "integer conv datapath output drifted at element " << i;
  }
}

// ---- Transformer package goldens -----------------------------------------
// The sequence-serving deployment format: the __seq__ geometry entry, the
// self-describing __ln__/__emb__ fp32 parameter entries, and the op-coded
// embed/layernorm/attention/softmax/gelu forward program, plus the padded
// mixed-length batched forward through the sequence runner.

// Likewise for --model=tiny_bert: the 2-layer encoder package.
QuantizedModelPackage build_tiny_bert_package() {
  return tiny_bert_package(MacConfig::parse("4/8/6/10"));
}

// Padded token batch at mixed true lengths (suffix -1.0f sentinel), so the
// committed output also pins the true-length attention/pad handling.
Tensor golden_bert_input() {
  Rng rng(1717);
  const TransformerConfig config = tiny_bert_config();
  const std::int64_t lens[] = {5, 19, config.max_len};
  Tensor x(Shape{3, config.max_len});
  x.fill(-1.0f);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t j = 0; j < lens[r]; ++j) {
      x.at2(r, j) =
          static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(config.vocab)));
    }
  }
  return x;
}

TEST(GoldenBertPackage, SaveLoadRoundTripIsByteIdentical) {
  const std::string tmp1 = std::filesystem::temp_directory_path() / "vsq_golden_bert_rt1.vsqa";
  const std::string tmp2 = std::filesystem::temp_directory_path() / "vsq_golden_bert_rt2.vsqa";
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_bert_package_path());
  pkg.save(tmp1);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(golden_bert_package_path()))
      << "save(load(golden)) differs from the committed bert archive - the "
         "sequence package format drifted";
  QuantizedModelPackage::load(tmp1).save(tmp2);
  EXPECT_EQ(read_bytes(tmp1), read_bytes(tmp2));
  std::remove(tmp1.c_str());
  std::remove(tmp2.c_str());
}

TEST(GoldenBertPackage, StructureMatchesCommittedExpectations) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_bert_package_path());
  const TransformerConfig config = tiny_bert_config();
  EXPECT_EQ(pkg.max_seq, config.max_len);
  EXPECT_EQ(pkg.seq_dim, config.dim);
  EXPECT_EQ(pkg.heads, config.heads);
  // 2 blocks x (4 attention projections + 2 FFN gemms) + the span head.
  EXPECT_EQ(pkg.layers.size(), 13u);
  ASSERT_TRUE(pkg.layers.count("layer0.attn.q"));
  ASSERT_TRUE(pkg.layers.count("layer1.fc2"));
  ASSERT_TRUE(pkg.layers.count("span_head"));
  EXPECT_EQ(pkg.layers.at("layer0.attn.q").weights.fmt.bits, 4);
  // fp32 sidecars: one embedding, 2 layernorms per block + the final one.
  ASSERT_EQ(pkg.embeddings.size(), 1u);
  const EmbeddingPackage& emb = pkg.embeddings.at("emb");
  EXPECT_EQ(emb.vocab, config.vocab);
  EXPECT_EQ(emb.max_len, config.max_len);
  EXPECT_EQ(emb.dim, config.dim);
  ASSERT_EQ(pkg.norms.size(), 5u);
  EXPECT_EQ(static_cast<std::int64_t>(pkg.norms.at("final_ln").gamma.size()), config.dim);
  // Program: embed + 2 x (save ln attn +res save ln fc1 gelu fc2 +res) +
  // final_ln + span_head = 1 + 2*10 + 2 steps.
  ASSERT_EQ(pkg.program.size(), 23u);
  EXPECT_EQ(pkg.program[0].op, ForwardStep::Op::kEmbed);
  EXPECT_EQ(pkg.program[0].layer, "emb");
  EXPECT_EQ(pkg.program[1].op, ForwardStep::Op::kSave);
  EXPECT_EQ(pkg.program[2].op, ForwardStep::Op::kLayerNorm);
  EXPECT_EQ(pkg.program[3].op, ForwardStep::Op::kAttention);
  EXPECT_EQ(pkg.program[3].layer, "layer0.attn");
  EXPECT_EQ(pkg.program[4].op, ForwardStep::Op::kAddSaved);
  EXPECT_EQ(pkg.program[7].op, ForwardStep::Op::kGemm);
  EXPECT_EQ(pkg.program[8].op, ForwardStep::Op::kGelu);
  EXPECT_EQ(pkg.program[21].op, ForwardStep::Op::kLayerNorm);
  EXPECT_EQ(pkg.program[21].layer, "final_ln");
  EXPECT_EQ(pkg.program[22].op, ForwardStep::Op::kGemm);
  EXPECT_EQ(pkg.program[22].layer, "span_head");
}

TEST(GoldenBertPackage, FreshExportMatchesCommittedArchive) {
  const std::string tmp = std::filesystem::temp_directory_path() / "vsq_golden_bert_fresh.vsqa";
  build_tiny_bert_package().save(tmp);
  EXPECT_EQ(read_bytes(tmp), read_bytes(golden_bert_package_path()))
      << "fresh tiny_bert export differs from the committed archive - the "
         "transformer calibration/export pipeline drifted";
  std::remove(tmp.c_str());
}

TEST(GoldenBertPackage, RunnerReproducesCommittedOutputsBitExactly) {
  const QuantizedModelPackage pkg = QuantizedModelPackage::load(golden_bert_package_path());
  const QuantizedModelRunner runner(pkg);
  ASSERT_TRUE(runner.seq());
  const Archive io = Archive::load(golden_bert_io_path());
  const ArchiveEntry& in = io.get("input");
  const ArchiveEntry& expected = io.get("output");
  ASSERT_EQ(in.dims.size(), 2u);
  const Tensor x = Tensor::from_vector(Shape{in.dims[0], in.dims[1]}, in.data);
  const Tensor y = runner.forward(x);
  ASSERT_EQ(static_cast<std::size_t>(y.numel()), expected.data.size());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], expected.data[static_cast<std::size_t>(i)])
        << "sequence datapath output drifted at element " << i;
  }
}

// Manual regeneration hook (see file header). Disabled so normal runs
// never rewrite the golden files.
TEST(GoldenPackage, DISABLED_RegenerateGoldenFiles) {
  const QuantizedModelPackage pkg = build_tiny_package();
  pkg.save(golden_package_path());
  const QuantizedModelRunner runner(pkg);
  const Tensor x = golden_input();
  const Tensor y = runner.forward(x);
  Archive io;
  io.put("input", {x.shape()[0], x.shape()[1]}, x.to_vector());
  io.put("output", {y.shape()[0], y.shape()[1]}, y.to_vector());
  io.save(golden_io_path());

  const QuantizedModelPackage conv_pkg = build_tiny_conv_package();
  conv_pkg.save(golden_conv_package_path());
  const QuantizedModelRunner conv_runner(conv_pkg);
  const Tensor cx = golden_conv_input();
  const Tensor cy = conv_runner.forward(cx);
  Archive conv_io;
  conv_io.put("input", {cx.shape()[0], cx.shape()[1]}, cx.to_vector());
  conv_io.put("output", {cy.shape()[0], cy.shape()[1]}, cy.to_vector());
  conv_io.save(golden_conv_io_path());

  const QuantizedModelPackage bert_pkg = build_tiny_bert_package();
  bert_pkg.save(golden_bert_package_path());
  const QuantizedModelRunner bert_runner(bert_pkg);
  const Tensor bx = golden_bert_input();
  const Tensor by = bert_runner.forward(bx);
  Archive bert_io;
  bert_io.put("input", {bx.shape()[0], bx.shape()[1]}, bx.to_vector());
  bert_io.put("output", {by.shape()[0], by.shape()[1]}, by.to_vector());
  bert_io.save(golden_bert_io_path());
  std::printf("regenerated %s, %s, %s, %s, %s and %s\n", golden_package_path().c_str(),
              golden_io_path().c_str(), golden_conv_package_path().c_str(),
              golden_conv_io_path().c_str(), golden_bert_package_path().c_str(),
              golden_bert_io_path().c_str());
}

}  // namespace
}  // namespace vsq
