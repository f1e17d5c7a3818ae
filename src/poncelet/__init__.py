"""Poncelet polygons from a projective point of view.

Homogeneous-coordinate primitives, stereographic transfer to the
projective line, bracket-polynomial chain and closure conditions, exact
closure-polynomial solving, explicit ruler constructions for Poncelet
6/7/8/9-gons and doubling, and (N_4) incidence configurations derived from
closed chains.
"""

from . import errors
from .chains import (
    ChainState,
    ClosureReport,
    ClosureRoot,
    PonceletScene,
    algebraic_closure_report,
    chain_step,
    chain_values,
    closure_polynomial,
    closure_roots,
    closure_test,
    concentric_scene,
    count_solutions,
    pole,
    run_chain,
    scene_from_rp1,
    transformed_scene,
)
from .configurations import (
    IncidenceConfiguration,
    LineRing,
    N4Report,
    PointRing,
    canonical_certificate,
    color_structure_report,
    config_from_chain_trace,
    grunbaum_rigby,
    incidence_configuration,
    ring_join,
    ring_meet,
    verify_n4,
)
from .constructions import (
    ChainConstruction,
    ConstructionTrace,
    butterfly_check,
    chain_iterate_joinmeet,
    complete_heptagon,
    complete_hexagon_p6,
    complete_octagon,
    construct_heptagon_p6,
    construct_ninegon_p4,
    construct_octagon_p7,
    doubling,
    moderate_chart,
    polygon_scene,
)
from .document import SceneDocument
from .projective import (
    Conic,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    collinear,
    conic_conic_intersect,
    conic_contains,
    conic_fit,
    conic_fit_lines,
    conic_through_5,
    conic_through_5_lines,
    join,
    line_conic_intersect,
    meet,
    proj_distance,
    proj_map_from_4,
    second_intersection,
    six_on_conic_residual,
    tangent_line_at,
    tangents_from_point,
)
from .rp1 import (
    BracketResidual,
    RP1Point,
    StereoChart,
    bracket,
    chain7_forms,
    chain7_residual,
    cross_ratio,
    gp_residual,
    gp_syzygy_combination,
    heptagon6_cross_ratio_product,
    heptagon6_residual,
    heptagon_precondition_residual,
    hexagon_point6,
    make_chart,
    next_chain_point,
    ninegon_residual,
    octagon_point7_residual,
    quadset_residual,
    rp1_distance,
)
from .settings import DEFAULT, Tolerances
from .svg import render_svg

__version__ = "0.1.11"
