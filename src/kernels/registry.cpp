#include "kernels/registry.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/builtin_impls.h"

namespace vsq::kernels {
namespace {

// Resolution cache of a descriptor-free primitive (act-quant, gelu,
// fp-micro), keyed by the VSQ_ISA value it was resolved under (the env is
// re-read so tests can flip tiers between calls).
template <class Impl>
struct TierCache {
  std::mutex mu;
  std::string key = "\x01unresolved";
  const Impl* impl = nullptr;
};

// Implementation tables, built once from the built-in lists and never
// changed after, so resolution hands out references that live as long as
// the process and reads them without a lock.
struct Tables {
  const std::vector<IntPanelImpl> int_panel = builtin_int_panel_impls();
  const std::vector<PanelAccImpl> panel_acc = builtin_panel_acc_impls();
  const std::vector<ActQuantImpl> act_quant = builtin_act_quant_impls();
  const std::vector<GeluImpl> gelu = builtin_gelu_impls();
  const std::vector<FpMicroImpl> fp_micro = builtin_fp_micro_impls();
  TierCache<ActQuantImpl> act_quant_cache;
  TierCache<GeluImpl> gelu_cache;
  TierCache<FpMicroImpl> fp_cache;
};

Tables& tables() {
  static Tables* t = new Tables();
  return *t;
}

std::atomic<std::uint64_t> g_resolutions{0};

void count_resolution() { g_resolutions.fetch_add(1, std::memory_order_relaxed); }

bool under_cap(isa::Tier tier, isa::Tier cap) {
  return static_cast<int>(tier) <= static_cast<int>(cap);
}

// The highest-tier implementation under the current cap, served from
// `cache` while VSQ_ISA is unchanged; only a cache miss counts as a
// dispatch resolution. The portable tier is always built in, so the
// result is never null.
template <class Impl>
const Impl& resolve_by_tier(const std::vector<Impl>& impls, TierCache<Impl>& cache) {
  const isa::Tier cap = isa::effective_cap();  // throws on a bad VSQ_ISA
  const char* env = std::getenv("VSQ_ISA");
  const std::string key = env ? env : "";
  std::lock_guard lock(cache.mu);
  if (cache.impl != nullptr && cache.key == key) return *cache.impl;
  count_resolution();
  const Impl* best = nullptr;
  for (const Impl& impl : impls) {
    if (!under_cap(impl.tier, cap)) continue;
    if (best == nullptr || static_cast<int>(impl.tier) > static_cast<int>(best->tier)) {
      best = &impl;
    }
  }
  cache.impl = best;
  cache.key = key;
  return *best;
}

template <class Impl>
const Impl* find_by_name(const std::vector<Impl>& impls, const char* name) {
  for (const Impl& impl : impls) {
    if (std::strcmp(impl.name, name) == 0) return &impl;
  }
  return nullptr;
}

// Packed sub-byte layouts come first in the int-panel preference list,
// and the trade is deliberate and density-first: a 4-bit model keeps ~1/3
// the panel bytes of the int16 layout (the multi-model serving story),
// streams ~1/3 the weight bytes when panels outgrow cache (where the VNNI
// packed tier also wins outright), and pays an unpack-ALU premium at
// cache-resident toy sizes — BENCH_micro.json's bits:4 entries record
// both regimes. The packed tiers are bit-exact like everything else, so
// the preference trades only speed for resident bytes. VSQ_PACKED=0 opts
// serving back into the byte-width layouts (and is how the identity tests
// obtain the reference pack). Re-read per resolution, like VSQ_ISA, so
// tests can flip it between packs.
bool packed_enabled() {
  const char* env = std::getenv("VSQ_PACKED");
  return env == nullptr || std::string(env) != "0";
}

}  // namespace

const IntPanelImpl& resolve_int_panel(const KernelDesc& desc) {
  count_resolution();
  const isa::Tier cap = isa::effective_cap();  // throws on a bad VSQ_ISA
  const bool packed = packed_enabled();
  for (const IntPanelImpl& impl : tables().int_panel) {
    if (!under_cap(impl.tier, cap)) continue;
    if (!packed && panel_layout_sub_byte(impl.layout)) continue;
    if (impl.eligible == nullptr || impl.eligible(desc)) return impl;
  }
  // Unreachable while the list ends with the plain portable kernel.
  throw std::logic_error("resolve_int_panel: no eligible int-panel kernel");
}

const PanelAccImpl& resolve_panel_acc(const KernelDesc& desc) {
  count_resolution();
  const isa::Tier cap = isa::effective_cap();
  const PanelAccImpl* best = nullptr;
  for (const PanelAccImpl& impl : tables().panel_acc) {
    if (!under_cap(impl.tier, cap)) continue;
    if (desc.quant.full_bits > impl.max_full_bits) continue;
    if (best == nullptr || static_cast<int>(impl.tier) > static_cast<int>(best->tier)) {
      best = &impl;
    }
  }
  return *best;  // the portable impl (max_full_bits = 64) always qualifies
}

const ActQuantImpl& resolve_act_quant() {
  Tables& t = tables();
  return resolve_by_tier(t.act_quant, t.act_quant_cache);
}

const GeluImpl& resolve_gelu() {
  Tables& t = tables();
  return resolve_by_tier(t.gelu, t.gelu_cache);
}

const FpMicroImpl& resolve_fp_micro() {
  Tables& t = tables();
  return resolve_by_tier(t.fp_micro, t.fp_cache);
}

const PanelAccImpl& portable_panel_acc() { return *find_by_name(tables().panel_acc, "portable"); }

const ActQuantImpl& portable_act_quant() { return *find_by_name(tables().act_quant, "portable"); }

std::uint64_t dispatch_resolutions_total() {
  return g_resolutions.load(std::memory_order_relaxed);
}

const IntPanelImpl* find_int_panel_impl(const char* name) {
  return find_by_name(tables().int_panel, name);
}

const ActQuantImpl* find_act_quant_impl(const char* name) {
  return find_by_name(tables().act_quant, name);
}

const GeluImpl* find_gelu_impl(const char* name) { return find_by_name(tables().gelu, name); }

}  // namespace vsq::kernels
