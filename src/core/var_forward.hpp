// VAR(P) forward pass of one emulated member on the shared sampling engine.
//
// Both emulators regenerate a member the same way (Section III-B): every
// step s in [0, burn + num_steps) draws an innovation xi_s = V z_s with
// z_s ~ N(0, I), then runs the diagonal recursion
//   f_s[c] = xi_s[c] + sum_a phi_c[a] * f_{s-1-a}[c]
// and keeps the steps after the burn-in. The innovations are drawn as the
// columns of multi-RHS panels of up to 64 consecutive steps through
// runtime::run_sampling — the engine serving uses — reading the trained
// factor in place; the recursion then consumes each panel in step order and
// hands the panel's kept steps to the caller, so a member never holds more
// than one panel of coefficients.
//
// Reproducibility contract: step s of member r takes its n standard
// normals, and after them its nugget seed, from its own split stream
// Rng(seed).split(r).split(s) (s counts from the start of the burn-in).
// The panel apply fixes every accumulation order, so a member's output is a
// pure function of (model, seed, r): byte-identical at any thread count,
// for any number of members, and a run of T steps is a prefix of any longer
// run from the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "core/config.hpp"
#include "linalg/matrix.hpp"
#include "stats/ar.hpp"

namespace exaclim::core {

/// Kept steps [first_step, first_step + num_steps) of one panel.
struct StepPanel {
  index_t first_step = 0;
  index_t num_steps = 0;
  const double* coefficients = nullptr;  ///< num_steps x n, row per step
  const std::uint64_t* nugget_seeds = nullptr;  ///< one per step
};

/// Runs member `member`'s forward pass over `factor` (the n x n lower
/// Cholesky factor V) with one AR model per coefficient, calling `consume`
/// once per panel that has kept steps, in step order; the panel's pointers
/// are valid only during the call. Burn-in, threads, DAG verification and
/// the stall watchdog come from `config`.
void run_member_var(const linalg::Matrix& factor,
                    std::span<const stats::ArModel> ar,
                    const EmulatorConfig& config, index_t num_steps,
                    std::uint64_t seed, index_t member,
                    const std::function<void(const StepPanel&)>& consume);

}  // namespace exaclim::core
