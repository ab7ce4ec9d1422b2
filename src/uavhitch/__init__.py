"""UAV hitchhiking on ground vehicles: single-pair plans, fleet matching
and seeded experiments."""

from .model import (
    Binding,
    Eligibility,
    EligibilityReason,
    HitchPlan,
    PairGeometry,
    PlannerConfig,
    UavTask,
    UnboundedHitchError,
    VehicleOffer,
)
from .planner import (
    consumption,
    eligibility,
    energy,
    flight_leg,
    max_hitch_distance,
    PlanArrays,
    plan_matrix,
    plan_pair,
    select_vehicle,
    travel_time,
)
from .matching import (
    BruteForceSizeError,
    DualState,
    MatchResult,
    SavingMatrix,
    brute_force_match,
    build_saving_matrix,
    greedy_match,
    msa_match,
    verify_duals,
)
from .simlab import (
    ExperimentRow,
    GeneratorParams,
    Scenario,
    TrialReport,
    case_theta_range,
    generate_scenario,
    run_experiment,
    run_trial,
    scale_scenario,
    sweep_curves,
)
from .scenario_io import load_scenario, save_scenario, scenario_from_dict, scenario_to_dict

__version__ = "0.1.0"
