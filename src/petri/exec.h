// Token-game execution rules (Def 3.1 rules 2-6), guard-agnostic.
//
// Guarded firing (rule 4) is layered on top by dcf/sim via the `GuardFn`
// hook: a transition with guards fires only when its OR-ed guard value is
// TRUE; unguarded transitions fire freely.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "petri/marking.h"
#include "petri/net.h"

namespace camad::petri {

/// Returns true when `t` may fire at the current data-path state.
/// The default (nullptr) treats every transition as unguarded.
using GuardFn = std::function<bool(TransitionId)>;

/// Rule 3: all input places of `t` carry at least one token.
bool is_enabled(const Net& net, const Marking& m, TransitionId t);

/// Rule 5: fires `t`, consuming one token per input place and producing one
/// per output place. Throws ModelError if `t` is not enabled.
Marking fire(const Net& net, const Marking& m, TransitionId t);

/// Fires one step: scans `order`, firing each transition still enabled
/// (and guard-allowed) after earlier firings in the same step. With
/// `order` = net.transitions() that is a maximal non-conflicting step;
/// other orders exercise alternative interleavings in confluence tests.
/// Returns the fired set (empty = no transition of `order` could fire).
std::vector<TransitionId> fire_step_in_order(
    const Net& net, Marking& m, const std::vector<TransitionId>& order,
    const GuardFn& guard = nullptr);

}  // namespace camad::petri
