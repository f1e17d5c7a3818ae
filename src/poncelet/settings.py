"""Tolerance configuration.

All "is zero" decisions in the package are relative: residuals are scaled
by the magnitudes of the operands before comparison.  ``Tolerances`` holds
seven thresholds: a general relative tolerance and a stricter one used to
detect degenerate elements; incidence membership in assembled
configurations, looser because those coordinates compound many
construction steps; the chain closure residual; the floor that guards 0/0
in relative residuals; and the merge radius and real snap of closure
roots.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    rel: float = 1e-9            # generic "equal / incident / on-conic" threshold
    degeneracy: float = 1e-12    # "this element is degenerate" threshold
    incidence: float = 1e-7      # configuration membership threshold
    closure: float = 1e-8        # chain closure residual threshold
    floor: float = 1e-300        # guards 0/0 in relative residuals
    root_merge: float = 1e-7     # closure roots this close (relative) count as one
    real_snap: float = 1e-12     # relative imaginary part dropped from a real root seed


DEFAULT = Tolerances()
