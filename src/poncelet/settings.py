"""Tolerance configuration.

All "is zero" decisions in the package are relative: residuals are scaled
by the magnitudes of the operands before comparison.  Two knobs control
this, a general relative tolerance and a stricter one used to detect
degenerate elements.  Incidence membership in assembled configurations is
looser because those coordinates compound many construction steps.
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


DEFAULT = Tolerances()
