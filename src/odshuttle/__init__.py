"""On-demand shuttle dispatch engine and rolling-horizon simulator."""

from .costing import optimal_sequence
from .demand import DemandProfile, generate_demand
from .enumeration import PlanSet, enumerate_plans
from .network import Region, TravelNetwork, TripType, classify_trip
from .reporting import SummaryStats, compare, summarize
from .simulator import (
    FixedRoute,
    ScenarioConfig,
    TripRecord,
    cost_reduction,
    min_fleet_fixed_routes,
    run_baseline,
    run_scenario,
    sweep_fleet_sizes,
)
from .solver import DispatchProblem, check_solution, solve_dispatch
from .types import (
    AssignmentPlan,
    DispatchSolution,
    ShuttleState,
    Stop,
    StopId,
    TripRequest,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentPlan",
    "DemandProfile",
    "DispatchProblem",
    "DispatchSolution",
    "FixedRoute",
    "PlanSet",
    "Region",
    "ScenarioConfig",
    "ShuttleState",
    "Stop",
    "StopId",
    "SummaryStats",
    "TravelNetwork",
    "TripRecord",
    "TripRequest",
    "TripType",
    "check_solution",
    "classify_trip",
    "compare",
    "cost_reduction",
    "enumerate_plans",
    "generate_demand",
    "min_fleet_fixed_routes",
    "optimal_sequence",
    "run_baseline",
    "run_scenario",
    "solve_dispatch",
    "summarize",
    "sweep_fleet_sizes",
]
