// Quantized transformer serving: attention-path validation fixes, the
// sequence-op runner (embed/layernorm/attention/softmax/gelu forward
// programs over packed real-token rows), and the mixed-length batcher.
// The central contract under test is the serving invariant extended to
// sequences: a batched forward over padded rows of MIXED true lengths is
// bit-identical to sequential single-request execution, on every kernel
// tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "kernels/isa.h"
#include "models/transformer.h"
#include "models/zoo.h"
#include "nn/attention.h"
#include "nn/softmax.h"
#include "quant/export.h"
#include "serve/session.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vsq {
namespace {

// Scoped VSQ_ISA override; restores the previous value (or unset) on exit.
class EnvIsa {
 public:
  explicit EnvIsa(const char* v) {
    if (const char* prev = std::getenv("VSQ_ISA")) prev_ = prev;
    if (v) {
      setenv("VSQ_ISA", v, 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  ~EnvIsa() {
    if (prev_) {
      setenv("VSQ_ISA", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  EnvIsa(const EnvIsa&) = delete;
  EnvIsa& operator=(const EnvIsa&) = delete;

 private:
  std::optional<std::string> prev_;
};

struct TierCase {
  const char* env;  // nullptr = native (no cap)
  bool available() const {
    if (env == nullptr) return true;
    const std::string v(env);
    if (v == "portable") return true;
    if (v == "avx2") return isa::features().avx2;
    return isa::features().avx512_vnni;
  }
};

const TierCase kTiers[] = {{"portable"}, {"avx2"}, {"avx512_vnni"}, {nullptr}};

// Calibrating + exporting the encoder is the expensive part; every test
// shares one package (runners and sessions each take their own copy).
const QuantizedModelPackage& bert_pkg() {
  static const QuantizedModelPackage pkg = tiny_bert_package(MacConfig::parse("4/8/6/10"));
  return pkg;
}

// A padded token batch: row r carries lens[r] deterministic tokens, the
// rest of the row is the -1.0f pad sentinel.
Tensor padded_tokens(const std::vector<std::int64_t>& lens, std::int64_t t,
                     std::int64_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{static_cast<std::int64_t>(lens.size()), t});
  x.fill(-1.0f);
  for (std::size_t r = 0; r < lens.size(); ++r) {
    for (std::int64_t j = 0; j < lens[r]; ++j) {
      x.at2(static_cast<std::int64_t>(r), j) =
          static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(vocab)));
    }
  }
  return x;
}

// ---- Attention constructor validation (the inverted-message fix) ------

TEST(AttentionValidation, RejectsNonPositiveHeadsBeforeDividing) {
  Rng rng(3);
  try {
    MultiHeadSelfAttention a("attn", 32, 0, rng);
    FAIL() << "heads=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("heads must be positive"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(MultiHeadSelfAttention("attn", 32, -4, rng), std::invalid_argument);
}

TEST(AttentionValidation, RejectsHeadsNotDividingDimWithCorrectMessage) {
  Rng rng(3);
  try {
    MultiHeadSelfAttention a("attn", 32, 5, rng);
    FAIL() << "heads=5, dim=32 accepted";
  } catch (const std::invalid_argument& e) {
    // The original message had the relation inverted ("dim must divide
    // heads"); pin the corrected direction.
    EXPECT_NE(std::string(e.what()).find("heads must divide dim"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(MultiHeadSelfAttention("attn", 32, 4, rng));
}

// ---- Eval-path statelessness (the train-gated cache fix) --------------

TEST(AttentionEvalPath, EvalForwardDoesNotDisturbTrainingState) {
  // Two identically-seeded modules. One runs an eval forward (with a
  // DIFFERENT batch/sequence geometry) between its train forward and its
  // backward; the backward gradients must be bit-identical to the
  // undisturbed module's. Before the fix the eval forward overwrote the
  // cached batch_/seq_ dims, so the interposed call corrupted backward.
  const std::int64_t d = 16;
  Rng r1(9), r2(9);
  MultiHeadSelfAttention ref("attn", d, 4, r1);
  MultiHeadSelfAttention probed("attn", d, 4, r2);

  Rng data(21);
  Tensor x(Shape{2, 5, d});
  for (auto& v : x.span()) v = static_cast<float>(data.normal());
  Tensor gy(Shape{2, 5, d});
  for (auto& v : gy.span()) v = static_cast<float>(data.normal());
  Tensor x_eval(Shape{1, 7, d});
  for (auto& v : x_eval.span()) v = static_cast<float>(data.normal());

  const Tensor y_ref = ref.forward(x, /*train=*/true);
  const Tensor g_ref = ref.backward(gy);

  const Tensor y_probed = probed.forward(x, /*train=*/true);
  const Tensor y_eval = probed.forward(x_eval, /*train=*/false);
  EXPECT_EQ(y_eval.shape(), (Shape{1, 7, d}));
  const Tensor g_probed = probed.backward(gy);

  ASSERT_EQ(g_ref.numel(), g_probed.numel());
  for (std::int64_t i = 0; i < g_ref.numel(); ++i) {
    ASSERT_EQ(g_ref[i], g_probed[i]) << "gradient diverged at " << i;
  }
  for (std::int64_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(y_ref[i], y_probed[i]) << "output diverged at " << i;
  }
}

// ---- Fully-masked softmax rows (the all--inf NaN fix) ------------------

TEST(SoftmaxMaskedRows, AllNegInfRowYieldsZerosNotNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{2, 4});
  // Row 0 fully masked; row 1 an ordinary row.
  for (std::int64_t c = 0; c < 4; ++c) x.at2(0, c) = -inf;
  x.at2(1, 0) = 0.5f;
  x.at2(1, 1) = -1.0f;
  x.at2(1, 2) = -inf;
  x.at2(1, 3) = 2.0f;
  const Tensor y = softmax_last_axis(x);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(y.at2(0, c), 0.0f) << "masked row leaked probability at " << c;
  }
  float sum = 0.0f;
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_FALSE(std::isnan(y.at2(1, c)));
    sum += y.at2(1, c);
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_EQ(y.at2(1, 2), 0.0f);  // the -inf entry inside a live row
}

// ---- The sequence runner: batched == sequential, bit for bit ----------

TEST(TransformerRunner, BatchedMixedLengthsMatchSequentialBitExactly) {
  const QuantizedModelRunner runner(bert_pkg());
  ASSERT_TRUE(runner.seq());
  const std::int64_t t = runner.max_seq();
  const std::int64_t opt = runner.out_per_token();
  // Mixed lengths (packed rows plus the shared pad row), no padded row at
  // all (no pad row), and a one-row padded batch.
  const std::vector<std::vector<std::int64_t>> cases{{5, 19, t, 1}, {t, t, t}, {7}};
  std::uint64_t seed = 1234;
  for (const std::vector<std::int64_t>& lens : cases) {
    const auto rows = static_cast<std::int64_t>(lens.size());
    const Tensor batch = padded_tokens(lens, t, runner.vocab(), seed++);
    const Tensor all = runner.forward(batch);
    ASSERT_EQ(all.shape(), (Shape{rows, t * opt}));
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t l = lens[static_cast<std::size_t>(r)];
      // The same tokens as an unpadded single request [1, L].
      Tensor one(Shape{1, l});
      for (std::int64_t j = 0; j < l; ++j) one.at2(0, j) = batch.at2(r, j);
      const Tensor y = runner.forward(one);
      ASSERT_EQ(y.numel(), l * opt);
      for (std::int64_t i = 0; i < y.numel(); ++i) {
        ASSERT_EQ(y[i], all.at2(r, i))
            << "row " << r << " (len " << l << ") diverged at logit " << i;
      }
      // The same row alone at the batch width T reproduces the whole
      // batched row, pad positions included.
      const Tensor alone = runner.forward(batch.view_rows(r, r + 1));
      ASSERT_EQ(alone.numel(), t * opt);
      for (std::int64_t i = 0; i < alone.numel(); ++i) {
        ASSERT_EQ(alone[i], all.at2(r, i))
            << "row " << r << " (len " << l << ") at width " << t << " diverged at " << i;
      }
    }
  }
}

TEST(TransformerRunner, BitIdenticalAcrossThreadCounts) {
  // A batched forward splits its rows into contiguous groups balanced by
  // token count, one per pool thread at most. Row 0 is the only
  // full-length row (its length is the batch width, below max_seq) and
  // holds about a third of the tokens, so on 3 threads it forms a group
  // with no padded row (and no pad row) while the other two groups each
  // carry their own pad row.
  const QuantizedModelRunner runner(bert_pkg());
  const std::int64_t t = runner.max_seq() * 3 / 4;
  const std::int64_t opt = runner.out_per_token();
  const std::vector<std::int64_t> lens{t, 1, 2, 5, 1, 3, 7, 1, 4, 2, 8, 1, 6, 3, 1, 2};
  const Tensor batch = padded_tokens(lens, t, runner.vocab(), 5150);
  std::int64_t tokens = 0;
  for (const std::int64_t l : lens) tokens += l;
  ASSERT_GE(tokens * runner.unit_macs(), 3 * QuantizedModelRunner::kMinTaskMacs)
      << "the batch no longer splits three ways on 3 threads";

  std::optional<Tensor> y1;
  std::optional<IntGemmStats> stats1;
  for (const std::size_t threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ThreadPoolScope scope(pool);
    const Tensor y = runner.forward(batch);
    // A datapath-stats run stays unsplit, and its counters exact.
    IntGemmStats stats;
    const Tensor ys = runner.forward(batch, &stats);
    if (!y1) {
      y1.emplace(y);
      stats1 = stats;
    }
    ASSERT_EQ(y.shape(), y1->shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_EQ(y[i], (*y1)[i]) << threads << " threads diverged at " << i;
      ASSERT_EQ(ys[i], (*y1)[i]) << threads << " threads, stats run, diverged at " << i;
    }
    EXPECT_EQ(stats.vector_ops, stats1->vector_ops) << threads << " threads";
    EXPECT_EQ(stats.zero_scale_products, stats1->zero_scale_products) << threads << " threads";
    EXPECT_EQ(stats.zero_dot_products, stats1->zero_dot_products) << threads << " threads";
    EXPECT_EQ(stats.panels_packed, stats1->panels_packed) << threads << " threads";
    EXPECT_EQ(stats.panels_unpacked_materialized, stats1->panels_unpacked_materialized)
        << threads << " threads";
    EXPECT_EQ(stats.max_abs_psum, stats1->max_abs_psum) << threads << " threads";
  }
  EXPECT_GT(stats1->vector_ops, 0u);

  for (std::size_t r = 0; r < lens.size(); ++r) {
    const auto row = static_cast<std::int64_t>(r);
    Tensor one(Shape{1, lens[r]});
    for (std::int64_t j = 0; j < lens[r]; ++j) one.at2(0, j) = batch.at2(row, j);
    const Tensor y = runner.forward(one);
    ASSERT_EQ(y.numel(), lens[r] * opt);
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_EQ(y[i], y1->at2(row, i)) << "row " << r << " diverged at " << i;
    }
  }
}

TEST(TransformerRunner, PadPositionsCarryTheZeroEmbeddingOutput) {
  // In a padded execution every pad position starts from a zero embedding
  // and passes through the row-wise ops with a zero attention context. The
  // committed package has zero biases and layernorm betas, so its pad
  // outputs are all zero; give it non-zero ones, and zero the value
  // projections so that a lone real token with a zero embedding takes
  // exactly the pad path. Its output is the reference for every pad
  // position.
  QuantizedModelPackage pkg = bert_pkg();
  for (auto& [name, ln] : pkg.norms) std::fill(ln.beta.begin(), ln.beta.end(), 0.25f);
  for (auto& [name, l] : pkg.layers) {
    l.bias.assign(static_cast<std::size_t>(l.weights.rows), 0.125f);
    if (name.ends_with(".attn.v")) {
      std::fill(l.weights.q.begin(), l.weights.q.end(), std::int16_t{0});
      std::fill(l.bias.begin(), l.bias.end(), 0.0f);
    }
  }
  EmbeddingPackage& e = pkg.embeddings.begin()->second;
  std::fill(e.pos.begin(), e.pos.end(), 0.0f);
  std::fill(e.tok.begin(), e.tok.begin() + e.dim, 0.0f);  // token 0 embeds to zero
  const QuantizedModelRunner runner(pkg);
  const std::int64_t t = runner.max_seq();
  const std::int64_t opt = runner.out_per_token();

  const Tensor ref = runner.forward(Tensor(Shape{1, 1}));  // one token, id 0
  ASSERT_EQ(ref.numel(), opt);
  ASSERT_TRUE(std::any_of(ref.span().begin(), ref.span().end(), [](float v) { return v != 0.0f; }))
      << "the reference pad output is zero; the test would not see a dropped pad row";

  const std::vector<std::int64_t> lens{5, 19, t, 1};
  const Tensor all = runner.forward(padded_tokens(lens, t, runner.vocab(), 77));
  for (std::size_t r = 0; r < lens.size(); ++r) {
    for (std::int64_t j = lens[r]; j < t; ++j) {
      for (std::int64_t c = 0; c < opt; ++c) {
        ASSERT_EQ(all.at2(static_cast<std::int64_t>(r), j * opt + c), ref[c])
            << "row " << r << " pad position " << j;
      }
    }
  }
}

TEST(TransformerRunner, RejectsMalformedTokenRows) {
  const QuantizedModelRunner runner(bert_pkg());
  const std::int64_t t = runner.max_seq();
  {
    Tensor x = padded_tokens({4}, t, runner.vocab(), 7);
    x.at2(0, 1) = -1.0f;  // pad sentinel inside the live prefix
    EXPECT_THROW((void)runner.forward(x), std::invalid_argument);
  }
  {
    Tensor x = padded_tokens({4}, t, runner.vocab(), 7);
    x.at2(0, 0) = static_cast<float>(runner.vocab());  // out of range
    EXPECT_THROW((void)runner.forward(x), std::invalid_argument);
  }
  {
    Tensor x = padded_tokens({4}, t, runner.vocab(), 7);
    x.at2(0, 2) = 1.5f;  // non-integral token id
    EXPECT_THROW((void)runner.forward(x), std::invalid_argument);
  }
  {
    Tensor x(Shape{1, t});
    x.fill(-1.0f);  // no tokens at all
    EXPECT_THROW((void)runner.forward(x), std::invalid_argument);
  }
}

TEST(TransformerRunner, RejectsBrokenSequencePrograms) {
  const QuantizedModelPackage& pkg = bert_pkg();
  ASSERT_EQ(pkg.program.front().op, ForwardStep::Op::kEmbed);
  ASSERT_NO_THROW(QuantizedModelRunner{pkg});
  // The embed step moved off position 0.
  QuantizedModelPackage moved = pkg;
  std::swap(moved.program[0], moved.program[1]);
  EXPECT_THROW(QuantizedModelRunner{moved}, std::invalid_argument);
  // A layernorm step whose parameter set is missing.
  QuantizedModelPackage no_norm = pkg;
  ASSERT_EQ(no_norm.norms.erase("layer0.ln1"), 1u);
  EXPECT_THROW(QuantizedModelRunner{no_norm}, std::invalid_argument);
  // An attention step missing its .k projection.
  QuantizedModelPackage no_k = pkg;
  ASSERT_EQ(no_k.layers.erase("layer0.attn.k"), 1u);
  EXPECT_THROW(QuantizedModelRunner{no_k}, std::invalid_argument);
  // A conv step appended. The input geometry is set, so what is rejected
  // is the mix of spatial and sequence ops, not missing geometry.
  QuantizedModelPackage conv = pkg;
  conv.program.push_back(ForwardStep::conv("span_head", false));
  conv.in_h = conv.in_w = 4;
  conv.in_c = 2;
  EXPECT_THROW(QuantizedModelRunner{conv}, std::invalid_argument);
  // No servable sequence length.
  QuantizedModelPackage no_len = pkg;
  no_len.max_seq = 0;
  EXPECT_THROW(QuantizedModelRunner{no_len}, std::invalid_argument);
}

TEST(TransformerRunner, ForcedTierOutputsBitIdenticalAcrossTiers) {
  // The integer datapath promises the same bits on every kernel tier, and
  // so must the sequence ops between the GEMMs: embed, layernorm and
  // softmax run in scalar fp32, attention's score and context products on
  // the fp32 GEMM microkernel (every tier rounds each multiply-add once),
  // and GELU on the gelu kernel (every tier reproduces the scalar
  // definition). Each tier gets a freshly-constructed runner (dispatch
  // binds at load).
  const std::vector<std::int64_t> lens{3, 17, 32};
  std::optional<Tensor> baseline;
  for (const TierCase& tier : kTiers) {
    if (!tier.available()) continue;
    EnvIsa e(tier.env);
    const QuantizedModelRunner runner(bert_pkg());
    const Tensor batch = padded_tokens(lens, runner.max_seq(), runner.vocab(), 4242);
    const Tensor y = runner.forward(batch);
    if (!baseline) {
      baseline.emplace(y);  // portable, always first
    } else {
      ASSERT_EQ(baseline->numel(), y.numel());
      for (std::int64_t i = 0; i < y.numel(); ++i) {
        ASSERT_EQ((*baseline)[i], y[i])
            << "tier " << (tier.env ? tier.env : "native") << " diverged at " << i;
      }
    }
  }
}

TEST(TransformerRunner, ForcedTierBitIdenticalOnRandomBiasesBetasAndRows) {
  // The committed package's Linear biases and layernorm betas are all
  // zero, and its attention products stay below the fp32 GEMM's direct-
  // loop threshold (m n k < 32 Ki: dim 32 over 4 heads, 32 tokens). This
  // property runs seeded normal biases and betas and random rows of 1 to
  // max_seq tokens through every tier, on the tiny_bert geometry and on a
  // wider one (dim 64 over 2 heads, 48 tokens) whose score and context
  // products of 32 tokens or more take the blocked GEMM and its tier-
  // resolved microkernel. A tier that rounds a product and its sum apart
  // instead of fusing them flips activation codes there.
  TransformerConfig wide = tiny_bert_config();
  wide.dim = 64;
  wide.heads = 2;
  wide.max_len = 48;
  int compared = 0;
  for (const TransformerConfig& config : {tiny_bert_config(), wide}) {
    const QuantizedModelPackage base = transformer_package(config, MacConfig::parse("4/8/6/10"));
    const std::int64_t t = base.max_seq;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
      for (const double sigma : {0.0, 0.5, 1.0}) {
        QuantizedModelPackage pkg = base;
        Rng rng(seed);
        if (sigma > 0.0) {
          for (auto& [name, l] : pkg.layers) {
            l.bias.resize(static_cast<std::size_t>(l.weights.rows));
            for (float& b : l.bias) b = static_cast<float>(rng.normal(0.0, sigma));
          }
          for (auto& [name, ln] : pkg.norms) {
            for (float& b : ln.beta) b = static_cast<float>(rng.normal(0.0, sigma));
          }
        }
        std::vector<std::int64_t> lens(16);
        for (std::int64_t& l : lens) {
          l = 1 + static_cast<std::int64_t>(rng.uniform_u64(static_cast<std::uint64_t>(t)));
        }
        const Tensor batch = padded_tokens(lens, t, config.vocab, seed + 1000);
        std::optional<Tensor> baseline;
        for (const TierCase& tier : kTiers) {
          if (!tier.available()) continue;
          EnvIsa e(tier.env);
          const Tensor y = QuantizedModelRunner(pkg).forward(batch);
          if (!baseline) {
            baseline.emplace(y);  // portable, always first
            continue;
          }
          ++compared;
          ASSERT_EQ(baseline->numel(), y.numel());
          std::int64_t differ = 0;
          for (std::int64_t i = 0; i < y.numel(); ++i) {
            differ += std::bit_cast<std::uint32_t>((*baseline)[i]) !=
                      std::bit_cast<std::uint32_t>(y[i]);
          }
          EXPECT_EQ(differ, 0) << "dim " << config.dim << " tier "
                               << (tier.env ? tier.env : "native") << " seed " << seed
                               << " sigma " << sigma << ": " << differ << " of " << y.numel()
                               << " outputs differ from the portable tier";
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

// ---- The serving session: door validation and mixed-length batching ---

TEST(TransformerServe, SubmitValidatesTokensAtTheDoor) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.watchdog = false;
  InferenceSession session(bert_pkg(), cfg);
  const std::int64_t t = session.runner().max_seq();
  EXPECT_THROW((void)session.submit(Tensor(Shape{t + 1})), std::invalid_argument);
  EXPECT_THROW((void)session.submit(Tensor(Shape{0})), std::invalid_argument);
  {
    Tensor bad(Shape{4});
    bad.fill(0.25f);  // non-integral
    EXPECT_THROW((void)session.submit(bad), std::invalid_argument);
  }
  {
    Tensor bad(Shape{4});
    bad.fill(-1.0f);  // clients send unpadded rows; the sentinel is internal
    EXPECT_THROW((void)session.submit(bad), std::invalid_argument);
  }
  {
    Tensor bad(Shape{4});
    bad.fill(static_cast<float>(session.runner().vocab()));  // out of range
    EXPECT_THROW((void)session.submit(bad), std::invalid_argument);
  }
}

TEST(TransformerServe, MixedLengthRequestsShareOneBatch) {
  // A 4-token and a 30-token request, submitted back to back with a long
  // straggler window, must ride ONE forward pass — counted as a
  // mixed-length batch — and still each get the exact bits sequential
  // execution produces.
  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200000;  // plenty for the second submit to join
  cfg.watchdog = false;
  InferenceSession session(bert_pkg(), cfg);
  const QuantizedModelRunner& runner = session.runner();
  const std::int64_t opt = runner.out_per_token();

  const Tensor short_req = padded_tokens({4}, 4, runner.vocab(), 11).reshape(Shape{4});
  const Tensor long_req = padded_tokens({30}, 30, runner.vocab(), 12).reshape(Shape{30});
  std::future<Tensor> f_short = session.submit(short_req);
  std::future<Tensor> f_long = session.submit(long_req);
  const Tensor y_short = f_short.get();
  const Tensor y_long = f_long.get();

  ASSERT_EQ(y_short.shape(), (Shape{1, 4 * opt}));
  ASSERT_EQ(y_long.shape(), (Shape{1, 30 * opt}));
  const Tensor ref_short = runner.forward(short_req.reshape(Shape{1, 4}));
  const Tensor ref_long = runner.forward(long_req.reshape(Shape{1, 30}));
  for (std::int64_t i = 0; i < y_short.numel(); ++i) ASSERT_EQ(y_short[i], ref_short[i]);
  for (std::int64_t i = 0; i < y_long.numel(); ++i) ASSERT_EQ(y_long[i], ref_long[i]);

  const ServeStatsSnapshot snap = session.stats();
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.batches, 1u) << "the straggler window failed to merge the two requests";
  EXPECT_EQ(snap.mixed_bucket_batches, 1u)
      << "a 4-token and a 30-token request did not share a mixed-length batch";
  EXPECT_NE(snap.json().find("\"mixed_bucket_batches\":1"), std::string::npos);
}

}  // namespace
}  // namespace vsq
