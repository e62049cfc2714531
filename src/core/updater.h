// Interface every online updater implements: react to one window event
// (Problem 2 of the paper) by adjusting the factor matrices.

#ifndef SLICENSTITCH_CORE_UPDATER_H_
#define SLICENSTITCH_CORE_UPDATER_H_

#include <string_view>

#include "core/cpd_state.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

class Rng;           // common/random.h
class LossFunction;  // losses/loss_function.h

/// Processes window events. `window` is the live window with the delta
/// already applied, so it equals the X + ΔX of the update rules; `delta`
/// carries ΔX itself (Definition 6).
class EventUpdater {
 public:
  virtual ~EventUpdater() = default;

  /// Display name, e.g. "SNS+RND".
  virtual std::string_view name() const = 0;

  /// Updates `state` in response to one event.
  virtual void OnEvent(const SparseTensor& window, const WindowDelta& delta,
                       CpdState& state) = 0;

  /// Pointwise loss the updater descends — set by the engine from its
  /// options before any event (never null afterwards; the engine always
  /// passes a process-lifetime singleton). Updaters branch on kind():
  /// Gaussian runs the verbatim least-squares paths, anything else routes
  /// through the GCP Newton row step (losses/gcp_row_update.h). Default:
  /// ignored, i.e. Gaussian-only behavior.
  virtual void set_loss(const LossFunction* /*loss*/) {}

  /// The updater's private sampling Rng, or nullptr for deterministic
  /// updaters. Durability checkpoints save and restore it so a restored
  /// stream draws the identical θ-sample sequence.
  virtual Rng* MutableRng() { return nullptr; }
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_UPDATER_H_
