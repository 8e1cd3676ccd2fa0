"""Motion risk on occupancy grids: how likely is a robot to finish a path?

Risk elements score each visited state from three kinds of evidence — the
local surroundings, the arriving action, or the whole traverse so far (tether
geometry) — and the engine composes them into a finish probability under
independence.  Planners search for low-risk paths; a Monte Carlo sampler and
an additive baseline provide cross-checks.
"""

from .compose import (
    DomainError,
    MonteCarloResult,
    PathRiskReport,
    RiskMatrix,
    additive_path_cost,
    evaluate_path,
    evaluate_risk_matrix,
    monte_carlo_risk,
    path_finish_prob,
    path_risk,
    state_finish_prob,
)
from .elements import (
    ConfigError,
    RiskCategory,
    RiskElement,
    RiskMapping,
    TetherReader,
    action_length_risk,
    dump_elements,
    load_elements,
    obstacle_distance_risk,
    tether_contact_risk,
    tether_length_risk,
    turn_risk,
    visibility_risk,
)
from .planner import (
    PlanResult,
    SearchConfig,
    moves_within,
    plan_additive_baseline,
    plan_min_risk,
)
from .render import render_svg, risk_color
from .tether import (
    TetherError,
    TetherState,
    advance_tether,
    check_tether,
    start_tether,
    tether_for_prefix,
)
from .world import (
    GridMap,
    MapFormatError,
    Path,
    PathCheck,
    PathValidationError,
    State,
    distance_transform,
    dump_map,
    load_map,
    ray_directions,
    require_valid_path,
    validate_path,
    visibility_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "GridMap",
    "MapFormatError",
    "MonteCarloResult",
    "Path",
    "PathCheck",
    "PathRiskReport",
    "PathValidationError",
    "PlanResult",
    "RiskCategory",
    "RiskElement",
    "RiskMapping",
    "RiskMatrix",
    "SearchConfig",
    "State",
    "TetherError",
    "TetherReader",
    "TetherState",
    "action_length_risk",
    "additive_path_cost",
    "advance_tether",
    "check_tether",
    "distance_transform",
    "dump_elements",
    "dump_map",
    "evaluate_path",
    "evaluate_risk_matrix",
    "load_elements",
    "load_map",
    "monte_carlo_risk",
    "moves_within",
    "obstacle_distance_risk",
    "path_finish_prob",
    "path_risk",
    "plan_additive_baseline",
    "plan_min_risk",
    "ray_directions",
    "require_valid_path",
    "render_svg",
    "risk_color",
    "start_tether",
    "state_finish_prob",
    "tether_contact_risk",
    "tether_for_prefix",
    "tether_length_risk",
    "turn_risk",
    "validate_path",
    "visibility_fraction",
    "visibility_risk",
]
