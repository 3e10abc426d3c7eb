// Internal to src/kernels/: the built-in implementation sets the registry
// installs on first use. Each list contains only what the running CPU can
// execute (SIMD entries are left out when isa::features() lacks them), so
// the resolver never needs to re-probe. The int-panel list is in
// preference order (registry.h).
#pragma once

#include <vector>

#include "kernels/registry.h"

namespace vsq::kernels {

std::vector<IntPanelImpl> builtin_int_panel_impls();   // int_panel_impls.cpp
std::vector<PanelAccImpl> builtin_panel_acc_impls();   // int_panel_impls.cpp
std::vector<ActQuantImpl> builtin_act_quant_impls();   // act_quant_impls.cpp
std::vector<GeluImpl> builtin_gelu_impls();            // gelu_impls.cpp
std::vector<FpMicroImpl> builtin_fp_micro_impls();     // fp_micro.cpp

}  // namespace vsq::kernels
