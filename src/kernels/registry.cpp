#include "kernels/registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "kernels/builtin_impls.h"
#include "util/scratch.h"

namespace vsq::kernels {
namespace {

// Resolution cache of a descriptor-free primitive (act-quant, fp-micro),
// keyed by the VSQ_ISA value it was resolved under (the env is re-read so
// tests can flip tiers between calls).
template <class Impl>
struct TierCache {
  std::string key = "\x01unresolved";
  const Impl* impl = nullptr;
};

// Implementation tables. std::deque keeps registered impls at stable
// addresses (resolution hands out references that live as long as the
// process). Built-ins install on first use; register_*_impl appends.
struct Tables {
  std::mutex mu;
  std::deque<IntPanelImpl> int_panel;
  std::deque<PanelAccImpl> panel_acc;
  std::deque<ActQuantImpl> act_quant;
  std::deque<FpMicroImpl> fp_micro;
  // Chooser cache: (candidate set, shape class) -> winner. Synthetic-bench
  // ties are timed once per shape class, not per pack.
  std::map<std::string, const IntPanelImpl*> chooser;
  TierCache<ActQuantImpl> act_quant_cache;
  TierCache<FpMicroImpl> fp_cache;
};

Tables& tables() {
  static Tables* t = [] {
    auto* tt = new Tables();
    for (const IntPanelImpl& i : builtin_int_panel_impls()) tt->int_panel.push_back(i);
    for (const PanelAccImpl& i : builtin_panel_acc_impls()) tt->panel_acc.push_back(i);
    for (const ActQuantImpl& i : builtin_act_quant_impls()) tt->act_quant.push_back(i);
    for (const FpMicroImpl& i : builtin_fp_micro_impls()) tt->fp_micro.push_back(i);
    return tt;
  }();
  return *t;
}

std::atomic<std::uint64_t> g_resolutions{0};

void count_resolution() { g_resolutions.fetch_add(1, std::memory_order_relaxed); }

// The highest-tier implementation under the current cap, served from
// `cache` while VSQ_ISA is unchanged; only a cache miss counts as a
// dispatch resolution. The portable tier always registers, so the result
// is never null.
template <class Impl>
const Impl& resolve_by_tier(const std::deque<Impl>& impls, TierCache<Impl>& cache,
                            std::mutex& mu) {
  const isa::Tier cap = isa::effective_cap();  // throws on a bad VSQ_ISA
  const char* env = std::getenv("VSQ_ISA");
  const std::string key = env ? env : "";
  std::lock_guard lock(mu);
  if (cache.impl != nullptr && cache.key == key) return *cache.impl;
  count_resolution();
  const Impl* best = nullptr;
  for (const Impl& impl : impls) {
    if (static_cast<int>(impl.tier) > static_cast<int>(cap)) continue;
    if (best == nullptr || static_cast<int>(impl.tier) > static_cast<int>(best->tier)) {
      best = &impl;
    }
  }
  cache.impl = best;
  cache.key = key;
  return *best;
}

bool impl_eligible(const IntPanelImpl& impl, const KernelDesc& desc, isa::Tier cap) {
  if (static_cast<int>(impl.tier) > static_cast<int>(cap)) return false;
  return impl.eligible == nullptr || impl.eligible(desc);
}

// ---- micro-benchmark tie-break --------------------------------------------
//
// When two SIMD implementations are eligible for a shape class (today:
// plain AVX2 vs the madd pair-interleave on even vectors, plus VNNI where
// the CPU has it), neither tier ranking nor heuristics answer which is
// faster — vector length, panel count and layout interact with the cache.
// So the registry times the candidates once, on synthetic zeroed operands
// of the same shape class, and caches the winner. Any choice is CORRECT
// (all tiers are bit-exact); the bench only decides speed, so a handful of
// reps suffices.

std::int64_t padded4(std::int64_t len) { return (len + 3) / 4 * 4; }

double time_candidate(const IntPanelImpl& impl, const KernelDesc& desc) {
  const ShapeClass& shape = desc.shape;
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchRegion region(arena);

  // Synthetic operands of the shape class: the vectors tile cols with the
  // class's max length (respecting evenness), all values zero — the
  // kernels' control flow does not depend on data.
  std::int64_t len = std::max<std::int64_t>(1, shape.max_vec_len);
  if (shape.even_vectors && len % 2 != 0) ++len;
  const std::int64_t nvec = std::max<std::int64_t>(1, (shape.cols + len - 1) / len);
  auto* vr = arena.alloc_n<VecRange>(static_cast<std::size_t>(nvec));
  std::int64_t padded_cols = 0;
  for (std::int64_t v = 0; v < nvec; ++v) {
    const std::int64_t c0 = v * len;
    const std::int64_t l = std::min(len, std::max<std::int64_t>(1, shape.cols - c0));
    vr[v] = VecRange{static_cast<std::int32_t>(c0), static_cast<std::int32_t>(l)};
    padded_cols += padded4(l);
  }
  const std::int64_t cols = vr[nvec - 1].c0 + vr[nvec - 1].len;

  // Sized for the widest layout; every packed layout is strictly smaller
  // (kBitPacked: cols*b + 8 slack <= cols*16; the nibble layouts halve the
  // int8 sizes).
  const std::size_t panel_bytes = static_cast<std::size_t>(
      std::max(cols * kPanelCols * static_cast<std::int64_t>(sizeof(std::int16_t)),
               padded_cols * kPanelCols * static_cast<std::int64_t>(sizeof(std::int8_t))));
  auto* wp = arena.alloc(panel_bytes);
  std::memset(wp, 0, panel_bytes);
  auto* arow = arena.alloc_n<std::int16_t>(static_cast<std::size_t>(cols));
  std::memset(arow, 0, static_cast<std::size_t>(cols) * sizeof(std::int16_t));
  auto* arow8 = arena.alloc_n<std::uint8_t>(static_cast<std::size_t>(cols + 4));
  std::memset(arow8, 0, static_cast<std::size_t>(cols + 4));
  auto* ncomp = arena.alloc_n<std::int32_t>(static_cast<std::size_t>(nvec * kPanelCols));
  std::memset(ncomp, 0, static_cast<std::size_t>(nvec * kPanelCols) * sizeof(std::int32_t));
  auto* vcomp = arena.alloc_n<std::int32_t>(static_cast<std::size_t>(nvec));
  std::memset(vcomp, 0, static_cast<std::size_t>(nvec) * sizeof(std::int32_t));
  auto* dp = arena.alloc_n<std::int32_t>(static_cast<std::size_t>(nvec * kPanelCols));

  PanelArgs a;
  a.arow = arow;
  a.arow8 = arow8;
  a.wp = wp;
  a.ncomp = ncomp;
  a.vcomp = vcomp;
  a.vr = vr;
  a.nvec = nvec;
  a.wbits = desc.quant.wgt.bits;
  a.dp = dp;

  using Clock = std::chrono::steady_clock;
  impl.fn(a);  // warm
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    int reps = 1;
    for (;;) {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) impl.fn(a);
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      if (ns >= 20000.0 || reps >= 4096) {
        best = std::min(best, ns / reps);
        break;
      }
      reps *= 4;
    }
  }
  return best;
}

std::string chooser_key(const std::vector<const IntPanelImpl*>& cands, const KernelDesc& d) {
  const ShapeClass& s = d.shape;
  std::string k;
  for (const IntPanelImpl* c : cands) k += std::string(c->name) + "|";
  k += std::to_string(s.cols) + "/" + std::to_string(s.max_vec_len) +
       (s.even_vectors ? "/e" : "/o") + "/b" + std::to_string(d.quant.wgt.bits);
  return k;
}

// Packed sub-byte layouts are preferred over byte-width ones whenever any
// is eligible: the synthetic chooser bench runs cache-resident and cannot
// see the bandwidth win that motivates packing, and the packed tiers are
// bit-exact like everything else, so the preference trades only speed for
// resident bytes. The trade is deliberate and density-first: a 4-bit
// model keeps ~1/3 the panel bytes of the int16 layout (the multi-model
// serving story), streams ~1/3 the weight bytes when panels outgrow
// cache (where the VNNI packed tier also wins outright), and pays an
// unpack-ALU premium at cache-resident toy sizes — BENCH_micro.json's
// bits:4 entries record both regimes. VSQ_PACKED=0 opts serving back
// into the byte-width layouts (and is how the identity tests obtain the
// reference pack). Re-read per resolution, like VSQ_ISA, so tests can
// flip it between packs.
bool packed_enabled() {
  const char* env = std::getenv("VSQ_PACKED");
  return env == nullptr || std::string(env) != "0";
}

}  // namespace

const IntPanelImpl& resolve_int_panel(const KernelDesc& desc) {
  count_resolution();
  const isa::Tier cap = isa::effective_cap();  // throws on a bad VSQ_ISA
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  std::vector<const IntPanelImpl*> cands;
  const bool want_packed = packed_enabled();
  for (const IntPanelImpl& impl : t.int_panel) {
    if (!impl_eligible(impl, desc, cap)) continue;
    if (!want_packed && panel_layout_sub_byte(impl.layout)) continue;
    cands.push_back(&impl);
  }
  if (want_packed &&
      std::any_of(cands.begin(), cands.end(), [](const IntPanelImpl* c) {
        return panel_layout_sub_byte(c->layout);
      })) {
    std::erase_if(cands, [](const IntPanelImpl* c) {
      return !panel_layout_sub_byte(c->layout);
    });
  }
  // The portable tier registers unconditionally and is always eligible.
  const auto top = static_cast<int>(
      (*std::max_element(cands.begin(), cands.end(),
                         [](const IntPanelImpl* x, const IntPanelImpl* y) {
                           return static_cast<int>(x->tier) < static_cast<int>(y->tier);
                         }))
          ->tier);
  if (top == static_cast<int>(isa::Tier::kPortable)) {
    for (const IntPanelImpl* c : cands) {
      if (static_cast<int>(c->tier) == top) return *c;
    }
  }
  // Several SIMD implementations eligible: micro-benchmark once per shape
  // class (portable never contends with SIMD on speed, so it is excluded
  // from the tie-break).
  std::vector<const IntPanelImpl*> simd;
  for (const IntPanelImpl* c : cands) {
    if (c->tier != isa::Tier::kPortable) simd.push_back(c);
  }
  if (simd.size() == 1) return *simd.front();
  const std::string key = chooser_key(simd, desc);
  const auto it = t.chooser.find(key);
  if (it != t.chooser.end()) return *it->second;
  const IntPanelImpl* best = nullptr;
  double best_ns = 1e30;
  for (const IntPanelImpl* c : simd) {
    const double ns = time_candidate(*c, desc);
    if (ns < best_ns) {
      best_ns = ns;
      best = c;
    }
  }
  t.chooser.emplace(key, best);
  return *best;
}

const PanelAccImpl& resolve_panel_acc(const KernelDesc& desc) {
  count_resolution();
  const isa::Tier cap = isa::effective_cap();
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  const PanelAccImpl* best = nullptr;
  for (const PanelAccImpl& impl : t.panel_acc) {
    if (static_cast<int>(impl.tier) > static_cast<int>(cap)) continue;
    if (desc.quant.full_bits > impl.max_full_bits) continue;
    if (best == nullptr || static_cast<int>(impl.tier) > static_cast<int>(best->tier)) {
      best = &impl;
    }
  }
  return *best;  // the portable impl (max_full_bits = 64) always qualifies
}

const ActQuantImpl& resolve_act_quant() {
  Tables& t = tables();
  return resolve_by_tier(t.act_quant, t.act_quant_cache, t.mu);
}

const FpMicroImpl& resolve_fp_micro() {
  Tables& t = tables();
  return resolve_by_tier(t.fp_micro, t.fp_cache, t.mu);
}

const PanelAccImpl& portable_panel_acc() {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  for (const PanelAccImpl& impl : t.panel_acc) {
    if (impl.tier == isa::Tier::kPortable) return impl;
  }
  return t.panel_acc.front();
}

const ActQuantImpl& portable_act_quant() {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  for (const ActQuantImpl& impl : t.act_quant) {
    if (impl.tier == isa::Tier::kPortable) return impl;
  }
  return t.act_quant.front();
}

std::uint64_t dispatch_resolutions_total() {
  return g_resolutions.load(std::memory_order_relaxed);
}

const IntPanelImpl* find_int_panel_impl(const char* name) {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  for (const IntPanelImpl& impl : t.int_panel) {
    if (std::strcmp(impl.name, name) == 0) return &impl;
  }
  return nullptr;
}

const ActQuantImpl* find_act_quant_impl(const char* name) {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  for (const ActQuantImpl& impl : t.act_quant) {
    if (std::strcmp(impl.name, name) == 0) return &impl;
  }
  return nullptr;
}

void register_int_panel_impl(const IntPanelImpl& impl) {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  t.int_panel.push_back(impl);
  t.chooser.clear();
}

void register_panel_acc_impl(const PanelAccImpl& impl) {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  t.panel_acc.push_back(impl);
}

void register_fp_micro_impl(const FpMicroImpl& impl) {
  Tables& t = tables();
  std::lock_guard lock(t.mu);
  t.fp_micro.push_back(impl);
  t.fp_cache.impl = nullptr;
}

}  // namespace vsq::kernels
