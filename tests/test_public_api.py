import odshuttle

# The package exports only what the CLI, the simulator and the behaviour
# tests use; a new export has to be added here on purpose.
PUBLIC = [
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


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert odshuttle.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in odshuttle.__all__:
        assert getattr(odshuttle, name) is not None, name
