"""Record output fingerprints for the benchmark's fixed draws.

    python3 perfbench/record.py --seeds 0-10

Runs every fixed draw of every workload for the given seeds once,
untraced, and stores the sha256 of its ``trips.csv`` and ``summary.csv``
in ``fingerprints.json`` (merged into what is there).  ``run.py`` then
fails any run of a recorded draw whose outputs differ.  Re-record only
for a change that is meant to alter simulated results, and say so where
the change is described.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import FINGERPRINTS, HERE, OUT, ROOT
from workloads import WORKLOADS, scenario_text


def fingerprint(workload: str, draw: int) -> list[str]:
    out = OUT / "record" / workload / str(draw)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "scenario.cfg"
    config.write_text(scenario_text(ROOT, workload, draw))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--config", str(config),
                           "--out", str(out)], capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["ok"]:
        raise SystemExit(f"{workload} draw {draw}: {report['error_class']}: {report['error']}")
    return [report["trips_sha256"], report["summary_sha256"]]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or N-M")
    args = parser.parse_args(argv)
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    count = 0
    for workload, (_, _, draws) in WORKLOADS.items():
        for seed in args.seeds:
            for k in range(draws):
                draw = seed * 1000 + k
                recorded.setdefault(workload, {})[str(draw)] = fingerprint(workload, draw)
                count += 1
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {count} draws into {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
