// Traced replay: after the traced phase, call QuantizedModelRunner::forward
// and every resolved IntLayerPrimitive::execute directly, at the batch
// sizes the workload actually formed, and time each call from the outside.
#include <algorithm>
#include <array>
#include <functional>
#include <map>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using vsq::ForwardStep;
using vsq::QuantizedLayerPackage;
using vsq::QuantizedModelPackage;
using vsq::QuantizedModelRunner;
using vsq::Shape;
using vsq::Tensor;

using Geometry = std::array<std::int64_t, 3>;  // H, W, C

Geometry conv_output(const QuantizedLayerPackage& l, const Geometry& in) {
  return {(in[0] + 2 * l.pad - l.kernel) / l.stride + 1,
          (in[1] + 2 * l.pad - l.kernel) / l.stride + 1, l.weights.rows};
}

// NHWC input geometry (batch 1) of every conv primitive, by walking the
// forward program's spatial steps.
std::map<std::string, Geometry> conv_inputs(const QuantizedModelPackage& pkg,
                                            const std::vector<ForwardStep>& program) {
  std::map<std::string, Geometry> geo;
  Geometry cur{pkg.in_h, pkg.in_w, pkg.in_c};
  Geometry saved = cur;
  for (const ForwardStep& s : program) {
    switch (s.op) {
      case ForwardStep::Op::kConv:
        geo[s.layer] = cur;
        cur = conv_output(pkg.layers.at(s.layer), cur);
        break;
      case ForwardStep::Op::kConvSaved:
        geo[s.layer] = saved;
        saved = conv_output(pkg.layers.at(s.layer), saved);
        break;
      case ForwardStep::Op::kSave:
        saved = cur;
        break;
      default:
        break;
    }
  }
  return geo;
}

// Pad-to width the session's default bucket ladder (8, 16, ... max_seq)
// gives a batch whose longest row is `len` tokens.
std::int64_t bucket_width(std::int64_t len, std::int64_t max_seq) {
  std::int64_t w = 8;
  while (w < len && w < max_seq) w *= 2;
  return std::min(w, max_seq);
}

// One call to time: the work, its span detail, and its median time (us).
struct Probe {
  Probe(std::function<void()> f, std::uint32_t d) : fn(std::move(f)), detail(d) {}
  std::function<void()> fn;
  std::uint32_t detail = 0;
  int calls = 0;
  std::vector<double> per_call_us;
};

// Times every probe in 9 interleaved rounds. Each probe first calibrates
// how many calls last >= 2 ms (well above the clock's resolution); each
// round then times every probe once, so a slow drift in machine load hits
// all probes alike. Returns the per-probe median per-call time in us.
std::vector<double> time_interleaved(std::vector<Probe>& probes, Tracer::Log* log,
                                     std::uint32_t name) {
  for (Probe& p : probes) {
    p.fn();  // warm caches and any lazy state
    const auto c0 = Clock::now();
    do {
      p.fn();
      ++p.calls;
    } while (Clock::now() - c0 < std::chrono::milliseconds(2));
  }
  for (int r = 0; r < 9; ++r) {
    for (Probe& p : probes) {
      const auto a = Clock::now();
      for (int i = 0; i < p.calls; ++i) p.fn();
      const auto b = Clock::now();
      p.per_call_us.push_back(1e6 * seconds_between(a, b) / p.calls);
      log->record(name, a, b, 0, 0, p.detail);
    }
  }
  std::vector<double> out;
  for (const Probe& p : probes) out.push_back(median(p.per_call_us));
  return out;
}

}  // namespace

double replay_model(const ServedModel& m, int median_batch, bool primary, int mean_batch,
                    Tracer& tracer, Metrics& out) {
  Tracer::Log* log = tracer.thread_log();
  const std::uint32_t span_build = tracer.intern("replay.runner_build");
  const std::uint32_t span_replay = tracer.intern("replay.call");

  const QuantizedModelPackage pkg = QuantizedModelPackage::load(m.archive);
  std::vector<double> build_ms;
  std::unique_ptr<QuantizedModelRunner> runner;
  for (int r = 0; r < 7; ++r) {
    runner.reset();
    const auto a = Clock::now();
    runner = std::make_unique<QuantizedModelRunner>(pkg);
    const auto b = Clock::now();
    build_ms.push_back(1e3 * seconds_between(a, b));
    log->record(span_build, a, b);
  }

  // A batch of the first b pool rows, as the batcher would assemble it:
  // sequence rows padded with -1 to their bucket width.
  const auto batch_of = [&](int b) {
    std::int64_t width = runner->in_features();
    if (runner->seq()) {
      std::int64_t longest = 1;
      for (int i = 0; i < b; ++i) {
        longest = std::max(longest, m.inputs[i % m.inputs.size()].numel());
      }
      width = bucket_width(longest, runner->max_seq());
    }
    Tensor x(Shape{b, width});
    x.fill(-1.0f);
    for (int i = 0; i < b; ++i) {
      const Tensor& row = m.inputs[i % m.inputs.size()];
      std::copy(row.data(), row.data() + row.numel(), x.data() + i * width);
    }
    return x;
  };

  // Every resolved primitive on synthetic activations of the shape the
  // program feeds it at the median batch (GEMM rows are b, or b * width
  // for sequence programs, whose projections run over the padded batch).
  const int b = std::max(1, median_batch);
  const Tensor med_batch = batch_of(b);
  const std::int64_t gemm_rows = runner->seq() ? b * med_batch.shape()[1] : b;
  const std::map<std::string, Geometry> geo =
      pkg.in_h > 0 ? conv_inputs(pkg, runner->program()) : std::map<std::string, Geometry>{};
  vsq::Rng rng(0x5eedull);
  std::vector<Probe> probes;
  std::vector<Tensor> acts;  // kept alive for the probes
  std::vector<std::pair<std::string, double>> prim_macs;
  acts.reserve(runner->primitives().size());
  for (const auto& [name, prim] : runner->primitives()) {
    const QuantizedLayerPackage& l = prim.layer();
    double macs = 0.0;
    if (l.kind == vsq::PackagedLayerKind::kConv) {
      const Geometry in = geo.at(name);
      const Geometry o = conv_output(l, in);
      acts.emplace_back(Shape{b, in[0], in[1], in[2]});
      macs = static_cast<double>(b) * o[0] * o[1] * l.weights.rows * l.weights.cols();
    } else {
      acts.emplace_back(Shape{gemm_rows, l.weights.cols()});
      macs = static_cast<double>(gemm_rows) * l.weights.rows * l.weights.cols();
    }
    for (auto& v : acts.back().span()) v = static_cast<float>(rng.normal());
    const vsq::IntLayerPrimitive* p = &prim;
    const Tensor* x = &acts.back();
    probes.push_back(Probe{[p, x] { p->execute(*x); }, tracer.intern(name)});
    prim_macs.emplace_back(name, macs);
  }
  const std::size_t n_prims = probes.size();

  // The primary model's runner: forward at the median batch (the base of
  // quant.int_share), at the mean batch (the base of serve.overhead_us_p50),
  // and the same 16 rows one at a time at their true length versus as one
  // batch, so rows/s and true tokens/s give the same batch gain.
  const int mb = std::max(1, mean_batch);
  const Tensor mean_x = batch_of(mb), b16_x = batch_of(16);
  std::vector<Tensor> singles;
  for (int i = 0; i < 16; ++i) {
    const Tensor& row = m.inputs[static_cast<std::size_t>(i) % m.inputs.size()];
    singles.push_back(row.reshape(Shape{1, row.numel()}));
  }
  if (primary) {
    const QuantizedModelRunner* r = runner.get();
    const auto fwd = [r](const Tensor& x) { return [r, px = &x] { r->forward(*px); }; };
    probes.push_back(Probe{fwd(med_batch), tracer.intern("forward.b" + std::to_string(b))});
    probes.push_back(Probe{fwd(mean_x), tracer.intern("forward.b" + std::to_string(mb))});
    probes.push_back(Probe{fwd(b16_x), tracer.intern("forward.b16")});
    probes.push_back(Probe{[r, &singles] {
                             for (const Tensor& s : singles) r->forward(s);
                           },
                           tracer.intern("forward.b1x16")});
  }
  const std::vector<double> us = time_interleaved(probes, log, span_replay);

  double int_us = 0.0;
  for (std::size_t i = 0; i < n_prims; ++i) {
    int_us += us[i];
    const std::string key = "quant." + m.label + "." + prim_macs[i].first;
    out.set(key + ".us", us[i], "us");
    out.set(key + ".gmacs", prim_macs[i].second / (us[i] * 1e3), "GMAC/s");
  }
  if (!primary) return 0.0;
  const double med_us = us[n_prims], mean_us = us[n_prims + 1];
  const double b16_us = us[n_prims + 2], b1x16_us = us[n_prims + 3];
  out.set("runner.build_ms", median(build_ms), "ms");
  out.set("quant.int_share", int_us / med_us, "frac");
  out.set("runner.fp_share", 1.0 - int_us / med_us, "frac");
  out.set("runner.forward_us.b1", b1x16_us / 16.0, "us");
  out.set("runner.forward_us.b16", b16_us, "us");
  out.set("runner.batch_gain", b1x16_us / b16_us, "x");
  return mean_us;
}

void zero_model_metrics(const std::string& label, const QuantizedModelPackage& pkg,
                        Metrics& out) {
  for (const auto& [name, layer] : pkg.layers) {
    out.set("quant." + label + "." + name + ".us", 0.0, "us");
    out.set("quant." + label + "." + name + ".gmacs", 0.0, "GMAC/s");
  }
}

}  // namespace perfbench
