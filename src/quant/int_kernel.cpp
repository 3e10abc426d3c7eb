#include "quant/int_kernel.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "util/thread_pool.h"

namespace vsq::detail {
namespace {

constexpr int PNR = kIntPanelCols;

std::int64_t padded4(std::int64_t len) { return (len + 3) / 4 * 4; }

std::atomic<std::uint64_t> g_panels_packed{0};
std::atomic<std::uint64_t> g_panels_unpacked_materialized{0};

}  // namespace

std::uint64_t panels_packed_total() { return g_panels_packed.load(std::memory_order_relaxed); }

std::uint64_t panels_unpacked_materialized_total() {
  return g_panels_unpacked_materialized.load(std::memory_order_relaxed);
}

IntWeightPanels::IntWeightPanels(const QuantizedMatrix& wgt, const VectorLayout& layout,
                                 const IntActAttrs& act, ScratchArena& arena)
    : wgt_(&wgt), cols_(layout.cols), k_out_(wgt.rows), vpr_(layout.vectors_per_row()) {
  pack(wgt, layout, act, arena);
}

IntWeightPanels::IntWeightPanels(const QuantizedMatrix& wgt, const VectorLayout& layout,
                                 const IntActAttrs& act)
    : wgt_(&wgt),
      cols_(layout.cols),
      k_out_(wgt.rows),
      vpr_(layout.vectors_per_row()),
      own_(std::make_unique<ScratchArena>()) {
  pack(wgt, layout, act, *own_);
}

void IntWeightPanels::pack(const QuantizedMatrix& wgt, const VectorLayout& layout,
                           const IntActAttrs& act, ScratchArena& arena) {
  g_panels_packed.fetch_add(1, std::memory_order_relaxed);
  vector_size_ = layout.vector_size;
  block_len_ = layout.block_len();
  act_fmt_ = act.fmt;
  u8_bias_ = act.fmt.is_signed ? 128 : 0;

  // Vector column ranges (and the shape class they imply), precomputed
  // once per pack.
  auto* vr = arena.alloc_n<VecRange>(static_cast<std::size_t>(vpr_));
  bool all_even = true;
  std::int64_t max_len = 0, quad_cols = 0;
  for (std::int64_t v = 0; v < vpr_; ++v) {
    const auto [c0, c1] = layout.col_range(v);
    vr[v] = VecRange{static_cast<std::int32_t>(c0), static_cast<std::int32_t>(c1 - c0)};
    all_even = all_even && (c1 - c0) % 2 == 0;
    max_len = std::max(max_len, c1 - c0);
    quad_cols += padded4(c1 - c0);
  }
  vr_ = vr;

  // Descriptor-time resolution: bind the shape class and the quant attrs,
  // ask the registry which implementations run. This is the only dispatch
  // this pack (and every row streamed through it) ever performs.
  kernels::KernelDesc desc;
  desc.op = kernels::OpKind::kIntPanel;
  desc.shape = {cols_, k_out_, max_len, all_even};
  desc.quant.act = {act.fmt.bits, act.fmt.is_signed};
  desc.quant.wgt = {wgt.fmt.bits, wgt.fmt.is_signed};
  desc.quant.full_bits =
      act.scale_bits + (wgt.two_level ? wgt.two_level->scale_fmt.bits : 0);
  panel_impl_ = &kernels::resolve_int_panel(desc);
  desc.op = kernels::OpKind::kPanelAcc;
  acc_impl_ = &kernels::resolve_panel_acc(desc);
  acc_fallback_ = kernels::portable_panel_acc().fn;
  act_quant_impl_ = &kernels::resolve_act_quant();

  // Pack the weight matrix into PNR-column panels once, in the layout the
  // resolved implementation consumes (see kernels/registry.h's
  // PanelLayout); every activation row then streams the panel with unit
  // stride instead of re-striding wgt.q per output element. Scales are
  // [v][j]; everything is zero-padded past k_out so the kernels never
  // branch on panel width.
  n_panels_ = (k_out_ + PNR - 1) / PNR;
  const kernels::PanelLayout pl = panel_impl_->layout;
  const int wb = wgt.fmt.bits;
  switch (pl) {
    case kernels::PanelLayout::kQuadInt8:
      panel_stride_ = quad_cols * PNR * static_cast<std::int64_t>(sizeof(std::int8_t));
      break;
    case kernels::PanelLayout::kBitPacked:
      // b bytes per column (8 codes x b bits) + 8 slack bytes so the
      // kernel's fixed 4/8-byte group loads never leave the panel.
      panel_stride_ = cols_ * wb + 8;
      break;
    case kernels::PanelLayout::kNibblePair:
      // One byte per column pair per output: (cols/2) * PNR nibble pairs.
      panel_stride_ = (cols_ / 2) * PNR;
      break;
    case kernels::PanelLayout::kNibbleQuad:
      // Two bytes per column quad per output.
      panel_stride_ = (quad_cols / 4) * 2 * PNR;
      break;
    default:
      panel_stride_ = cols_ * PNR * static_cast<std::int64_t>(sizeof(std::int16_t));
      break;
  }
  if (kernels::panel_layout_sub_byte(pl)) {
    wbits_ = wb;
  } else if (wb < 8) {
    g_panels_unpacked_materialized.fetch_add(1, std::memory_order_relaxed);
  }
  vcomp_off_ = (cols_ + 4 + 3) / 4 * 4;
  auto* pw = static_cast<unsigned char*>(
      arena.alloc(static_cast<std::size_t>(n_panels_ * panel_stride_)));
  auto* psq = arena.alloc_n<std::uint32_t>(static_cast<std::size_t>(n_panels_ * vpr_ * PNR));
  std::int32_t* ncomp = nullptr;
  if (pl == kernels::PanelLayout::kQuadInt8) {
    ncomp = arena.alloc_n<std::int32_t>(static_cast<std::size_t>(n_panels_ * vpr_ * PNR));
  }
  const std::int64_t psq_bytes =
      n_panels_ * vpr_ * PNR * static_cast<std::int64_t>(sizeof(std::uint32_t));
  resident_bytes_ = n_panels_ * panel_stride_ + psq_bytes +
                    (ncomp != nullptr
                         ? n_panels_ * vpr_ * PNR * static_cast<std::int64_t>(sizeof(std::int32_t))
                         : 0);
  baseline_bytes_ =
      n_panels_ * cols_ * PNR * static_cast<std::int64_t>(sizeof(std::int16_t)) + psq_bytes;

  for (std::int64_t kp = 0; kp < n_panels_; ++kp) {
    const std::int64_t k0 = kp * PNR;
    const int nr = static_cast<int>(std::min<std::int64_t>(PNR, k_out_ - k0));
    unsigned char* pd = pw + kp * panel_stride_;
    switch (pl) {
      case kernels::PanelLayout::kPlain: {
        auto* vd = reinterpret_cast<std::int16_t*>(pd);
        for (std::int64_t c = 0; c < cols_; ++c) {
          for (int j = 0; j < PNR; ++j) {
            vd[c * PNR + j] = j < nr ? wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c)] : 0;
          }
        }
        break;
      }
      case kernels::PanelLayout::kPairInterleaved: {
        auto* vd = reinterpret_cast<std::int16_t*>(pd);
        for (std::int64_t v = 0; v < vpr_; ++v) {
          const std::int64_t c0 = vr[v].c0, pairs = vr[v].len / 2;
          for (std::int64_t p = 0; p < pairs; ++p) {
            for (int j = 0; j < PNR; ++j) {
              for (int h = 0; h < 2; ++h) {
                vd[p * 2 * PNR + j * 2 + h] =
                    j < nr ? wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + 2 * p + h)]
                           : 0;
              }
            }
          }
          vd += pairs * 2 * PNR;
        }
        break;
      }
      case kernels::PanelLayout::kQuadInt8: {
        // int8 quads, zero-padded to a multiple of 4 per vector (the
        // padding neutralizes the kernel's 4-byte activation reads), plus
        // the compensation block: ncomp[v][j] = -bias * sum_c w[j][c],
        // the accumulator's initial value under the biased-u8 row (see
        // kernels/int_panel_impls.cpp). vnni_eligible guaranteed the
        // weights fit s8.
        auto* vd = reinterpret_cast<std::int8_t*>(pd);
        std::int32_t* nc = ncomp + kp * vpr_ * PNR;
        for (std::int64_t v = 0; v < vpr_; ++v) {
          const std::int64_t c0 = vr[v].c0, len = vr[v].len;
          const std::int64_t quads = padded4(len) / 4;
          for (std::int64_t q = 0; q < quads; ++q) {
            for (int j = 0; j < PNR; ++j) {
              for (int h = 0; h < 4; ++h) {
                const std::int64_t c = 4 * q + h;
                vd[q * 4 * PNR + j * 4 + h] =
                    (j < nr && c < len)
                        ? static_cast<std::int8_t>(
                              wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + c)])
                        : 0;
              }
            }
          }
          for (int j = 0; j < PNR; ++j) {
            std::int32_t wsum = 0;
            if (j < nr) {
              for (std::int64_t c = 0; c < len; ++c) {
                wsum += wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + c)];
              }
            }
            nc[v * PNR + j] = -static_cast<std::int32_t>(u8_bias_) * wsum;
          }
          vd += quads * 4 * PNR;
        }
        break;
      }
      case kernels::PanelLayout::kBitPacked: {
        // Per column: one b-byte group holding the 8 output codes, LSB
        // first. Codes are two's-complement TRUNCATED (w & mask) — exact
        // over the signed b-bit range the eligibility predicate
        // guaranteed — and zero past k_out (code 0 decodes to 0).
        const auto mask = static_cast<std::uint64_t>((1 << wb) - 1);
        for (std::int64_t c = 0; c < cols_; ++c) {
          std::uint64_t bits = 0;
          for (int j = 0; j < nr; ++j) {
            const auto code = static_cast<std::uint64_t>(
                                  wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c)]) &
                              mask;
            bits |= code << (j * wb);
          }
          for (int h = 0; h < wb; ++h) {
            pd[c * wb + h] = static_cast<unsigned char>(bits >> (8 * h));
          }
        }
        std::memset(pd + cols_ * wb, 0, 8);  // group-load slack
        break;
      }
      case kernels::PanelLayout::kNibblePair: {
        // One byte per column pair per output: lo nibble = even column,
        // hi = odd (even vector lengths only, so pairs tile exactly).
        for (std::int64_t v = 0; v < vpr_; ++v) {
          const std::int64_t c0 = vr[v].c0, pairs = vr[v].len / 2;
          for (std::int64_t p = 0; p < pairs; ++p) {
            for (int j = 0; j < PNR; ++j) {
              unsigned lo = 0, hi = 0;
              if (j < nr) {
                lo = static_cast<unsigned>(
                         wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + 2 * p)]) &
                     0xF;
                hi = static_cast<unsigned>(
                         wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + 2 * p + 1)]) &
                     0xF;
              }
              pd[p * PNR + j] = static_cast<unsigned char>(lo | (hi << 4));
            }
          }
          pd += pairs * PNR;
        }
        break;
      }
      case kernels::PanelLayout::kNibbleQuad: {
        // Two bytes per column quad per output: byte h packs columns
        // 4q+2h / 4q+2h+1 as lo/hi nibbles. Codes are BIASED UNSIGNED
        // (w + 8, in 1..15) — the vpdpbusd unsigned operand — with
        // padding code 0, which multiplies to zero against whatever the
        // kernel's 4-byte activation overread picks up.
        for (std::int64_t v = 0; v < vpr_; ++v) {
          const std::int64_t c0 = vr[v].c0, len = vr[v].len;
          const std::int64_t quads = padded4(len) / 4;
          for (std::int64_t q = 0; q < quads; ++q) {
            for (int j = 0; j < PNR; ++j) {
              for (int h = 0; h < 2; ++h) {
                unsigned lo = 0, hi = 0;
                const std::int64_t ce = 4 * q + 2 * h, co = ce + 1;
                if (j < nr && ce < len) {
                  lo = static_cast<unsigned>(
                      wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + ce)] + 8);
                }
                if (j < nr && co < len) {
                  hi = static_cast<unsigned>(
                      wgt.q[static_cast<std::size_t>((k0 + j) * cols_ + c0 + co)] + 8);
                }
                pd[q * 2 * PNR + j * 2 + h] = static_cast<unsigned char>(lo | (hi << 4));
              }
            }
          }
          pd += quads * 2 * PNR;
        }
        break;
      }
    }
    std::uint32_t* sd = psq + kp * vpr_ * PNR;
    for (std::int64_t v = 0; v < vpr_; ++v) {
      for (int j = 0; j < PNR; ++j) {
        sd[v * PNR + j] = j < nr ? wgt.int_scale(k0 + j, v) : 0;
      }
    }
  }
  pw_ = pw;
  psq_ = psq;
  ncomp_ = ncomp;
}

void run_quantized_rows(const QuantizedMatrix& wgt, const VectorLayout& layout,
                        const QuantSpec& act_spec, float act_amax, float act_gamma,
                        std::int64_t rows, FpRowFn row, const void* ctx,
                        const std::vector<float>& bias, int scale_product_bits,
                        IntGemmStats* stats, const IntWeightPanels* prepacked, float* dst) {
  ScratchArena& arena = ScratchArena::thread_local_arena();
  ScratchRegion region(arena);
  std::optional<IntWeightPanels> local_panels;
  if (prepacked != nullptr && !prepacked->matches(wgt, layout, act_spec.fmt)) {
    throw std::invalid_argument("prepacked panels do not match the operands");
  }
  if (prepacked == nullptr) {
    local_panels.emplace(wgt, layout, IntActAttrs::of(act_spec), arena);
    if (stats) {
      ++stats->panels_packed;
      if (local_panels->materialized_sub_byte()) ++stats->panels_unpacked_materialized;
    }
  }
  const IntWeightPanels& panels = prepacked ? *prepacked : *local_panels;
  const std::int64_t cols = layout.cols, k_out = wgt.rows, vpr = panels.vpr();

  const bool per_vector = act_spec.granularity == Granularity::kPerVector;
  int full_bits = 0;
  if (per_vector) full_bits += act_spec.scale_fmt.bits;
  if (wgt.two_level) full_bits += wgt.two_level->scale_fmt.bits;
  // Coarse activations: one static scale is both the quantizer and the
  // outer de-scaling factor, exactly as quantize_activations_int builds
  // them. Per-vector: the row's outer factor is the calibrated gamma.
  const float coarse_scale = per_vector ? 0.0f : scale_from_amax(act_amax, act_spec.fmt);
  const float aout = per_vector ? act_gamma : coarse_scale;
  const kernels::ActQuantParams params{{act_spec.fmt.bits, act_spec.fmt.is_signed},
                                       {act_spec.scale_fmt.bits, act_spec.scale_fmt.is_signed},
                                       act_gamma};

  // Per-chunk stat accumulation merged under a (cold) mutex.
  std::mutex stats_mu;

  const std::size_t grain = static_cast<std::size_t>(
      std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, k_out * cols)));

  // Instantiated with and without the datapath gating counters, as in
  // int_gemm: identical arithmetic, no per-product branch when off.
  const auto row_loop = [&]<bool kStats>(std::size_t rb, std::size_t re,
                                         std::bool_constant<kStats>) {
    ScratchArena& ta = ScratchArena::thread_local_arena();
    ScratchRegion tr(ta);
    // Per-thread row workspace: one fp row (when the source writes one),
    // its quantized image and scales, and the panel dot-product buffer —
    // a few KiB total, however many rows the call has.
    auto* frow = ta.alloc_n<float>(static_cast<std::size_t>(cols));
    auto* qrow = ta.alloc_n<std::int16_t>(static_cast<std::size_t>(cols));
    auto* sqrow = ta.alloc_n<std::uint16_t>(static_cast<std::size_t>(vpr));
    auto* dp = ta.alloc_n<std::int32_t>(static_cast<std::size_t>(vpr * kIntPanelCols));
    std::uint8_t* u8row =
        panels.needs_u8_row()
            ? ta.alloc_n<std::uint8_t>(static_cast<std::size_t>(panels.u8_row_len()))
            : nullptr;
    IntRowStats t;
    for (std::size_t r = rb; r < re; ++r) {
      const auto ri = static_cast<std::int64_t>(r);
      const float* x = row(ctx, ri, frow);
      if (per_vector) {
        panels.quantize_row(x, params, qrow, sqrow);
      } else {
        for (std::int64_t c = 0; c < cols; ++c) {
          qrow[c] = static_cast<std::int16_t>(quantize_value(x[c], coarse_scale, act_spec.fmt));
        }
      }
      float* drow = dst + ri * k_out;
      panels.run_row<kStats>(qrow, per_vector ? sqrow : nullptr, aout, drow, full_bits,
                             scale_product_bits, dp, u8row, t);
      if (!bias.empty()) {
        for (std::int64_t k = 0; k < k_out; ++k) drow[k] += bias[static_cast<std::size_t>(k)];
      }
    }
    if constexpr (kStats) {
      std::lock_guard lock(stats_mu);
      t.merge_into(*stats);
    }
  };

  if (stats) {
    parallel_for(
        0, static_cast<std::size_t>(rows),
        [&](std::size_t rb, std::size_t re) { row_loop(rb, re, std::bool_constant<true>{}); },
        grain);
  } else {
    parallel_for(
        0, static_cast<std::size_t>(rows),
        [&](std::size_t rb, std::size_t re) { row_loop(rb, re, std::bool_constant<false>{}); },
        grain);
  }
}

}  // namespace vsq::detail
