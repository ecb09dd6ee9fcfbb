import os
import subprocess
import sys
from pathlib import Path

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


def test_package_loads_only_the_standard_library():
    # -S keeps site-packages off the path, so a third-party import fails
    # outright; the check below also names any that a stdlib module's
    # fallback might pull in.
    src = Path(odshuttle.__file__).resolve().parent.parent
    script = (
        "import odshuttle, odshuttle.cli, sys; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "- set(sys.stdlib_module_names) - {'odshuttle', '__main__'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
