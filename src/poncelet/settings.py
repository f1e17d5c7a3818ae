"""Tolerance configuration.

All "is zero" decisions in the package are relative: residuals are scaled
by the magnitudes of the operands before comparison.  ``Tolerances`` holds
six thresholds: a general relative tolerance and a stricter one used to
detect degenerate elements; incidence membership in assembled
configurations, looser because those coordinates compound many
construction steps; the chain closure residual; the floor that guards 0/0
in relative residuals; and the on-conic cut of the points handed to a
chart, a chain start or a completion.  Closure roots need no threshold of their own:
``roots.isolate_roots`` certifies each by a disc that holds no other root.
"""

from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    rel: float = 1e-9            # generic "equal / incident" threshold
    degeneracy: float = 1e-12    # "this element is degenerate" threshold
    incidence: float = 1e-7      # configuration membership threshold
    closure: float = 1e-8        # chain closure residual threshold
    floor: float = 1e-300        # guards 0/0 in relative residuals
    on_conic: float = 1e-6       # conic_contains cut of an input point on its conic


DEFAULT = Tolerances()
