"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload ledger_replay --seed 1 --seconds 25 --trace 0

Run from the root of a dcm-engine checkout.  The package is imported from
``src`` in that checkout; working files go to ``.perfbench-work`` there and
are removed at the end.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload's purpose, the environment and the sample counts.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (span summary on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def git_sha(root: Path) -> str:
    """The checked-out commit; 'unknown' outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"  # git would otherwise report an enclosing repository
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0, tamper: bool = False) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result, detail) as printed by main."""
    from workloads import WORKLOADS, Outcome, child_env, timed

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench-work"))
    try:
        cls = WORKLOADS[name]
        workload = cls(seed, work, child_env(SRC), scale=scale, tamper=tamper)
        out = Outcome()
        detail = {
            "workload": name,
            "why": cls.why,
            "bypasses": cls.bypasses,
            "seed": seed,
            "python": platform.python_version(),
            "git_sha": git_sha(ROOT),
            "nproc": os.cpu_count(),
        }
        if trace:
            import layers

            workload.setup()
            metrics, tracer = layers.traced_run(workload, seconds, out)
            print(layers.summary(tracer), file=sys.stderr)
        else:
            setups = []  # (ms, reference ms) of each set-up
            for _ in range(SETUP_REPEATS):
                gc.collect()
                setups.append(timed(workload.setup)[1:])
            metrics, measured = workload.measure(seconds, out)
            metrics["setup_s"] = (median(ref_ms for _, ref_ms in setups) / 1e3, "s")
            detail.update(measured)
            detail["raw"]["setup_s"] = median(ms for ms, _ in setups) / 1e3
        detail["failed_frac"] = out.failed / out.attempted
        detail["failures_by_kind"] = dict(out.failures)
        result = {
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ledger_replay", "scenario_long", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dcm" / "__init__.py").is_file():
        print(f"error: no dcm package under {SRC}; run from a dcm-engine checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
