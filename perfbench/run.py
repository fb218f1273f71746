"""recourselab benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload desk-attack --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh Python process with BLAS pinned to one thread,
importing recourselab from the `src/` tree next to this directory.  The
command prints every end-to-end metric by name and unit (or why it does not
apply), checks the outputs, compares each run's output digest with earlier
runs of the same code and seed, writes a results file under `.perfbench/`,
and prints one JSON result object as its last line.  It exits non-zero when a
check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("desk-attack", "explain-mix", "full-scale-step")
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

NOT_APPLICABLE = {
    "audit_s": "no run_audit in this workload",
    "explain_p50_s": "no single-query searches in this workload",
    "explain_p90_s": "no single-query searches in this workload",
}


def code_digest() -> str:
    """Hash of the program and benchmark sources, naming 'the same code'."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(args, workload: str) -> dict:
    result_path = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
                "MKL_NUM_THREADS": BLAS_THREADS,
                "PYTHONPATH": os.pathsep.join(
                    [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--root", str(ROOT), "--result", str(result_path)]
    if args.plant_fault:
        cmd.append("--plant-fault")
    # The program's own prints go to stderr: stdout ends with the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise SystemExit(f"{workload}: worker failed with exit code {proc.returncode}")
    result = json.loads(result_path.read_text())
    check_digest_history(result)
    result["code_digest"] = code_digest()
    result_path.write_text(json.dumps(result, indent=1, allow_nan=True))
    return result


def check_digest_history(result: dict) -> None:
    """Runs of the same code, workload, scale and seed must produce one digest."""
    path = OUT / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_digest()}:{result['workload']}:{result['scale']}:{result['seed']}"
    seen = history.setdefault(key, result["digest"])
    if seen != result["digest"]:
        result["problems"].append(
            f"output digest {result['digest']} differs from an earlier run's {seen}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)


def describe(result: dict) -> list[str]:
    e2e = result["end_to_end"]
    units = len(result["unit_walls_s"])
    lat = result["latency"]
    lines = [f"{result['workload']}  seed {result['seed']}  scale {result['scale']}  "
             f"units {units}  digest {result['digest'][:16]}"]
    for name, unit in metrics.END_TO_END.items():
        value = e2e[name]
        if name == "fail_frac":
            note = f"{result['failed']} of {result['attempted']} operations failed"
        elif name == "setup_s":
            note = f"median of {len(result['setup_reps_s'])} set-ups"
        elif name in ("wall_s", "wall_kref", "audit_s") and value is not None:
            note = f"median of {units} units"
        elif name.startswith("explain_") and lat["count"]:
            note = f"{lat['count']} samples"
            if value is None and lat["tail"] is not None:
                note += (f"; ten beyond it needs {20 if name == 'explain_p50_s' else 100}; "
                         f"highest percentile with ten beyond: "
                         f"p{lat['tail_pct']:.0f} = {lat['tail']:.4f} s")
        else:
            note = NOT_APPLICABLE.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<15} {shown:<16} {note}")
    if result["trace"]:
        for name, unit in metrics.PER_LAYER.items():
            lines.append(f"  {name:<44} {result['per_layer'][name]:.6g} {unit}")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return lines


def result_line(result: dict, prefix: str = "") -> dict:
    if result["trace"]:
        names = metrics.PER_LAYER
        values = result["per_layer"]
    else:
        names = {n: metrics.END_TO_END[n] for n in metrics.GATED}
        values = result["end_to_end"]
    return {prefix + n: {"value": values[n], "unit": unit} for n, unit in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one result before the checks (tests only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recourselab" / "__init__.py").is_file():
        print(f"no recourselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_worker(args, name) for name in names]
    for result in results:
        print("\n".join(describe(result)))
    print(f"results: {OUT / 'results'}")
    correct = all(not r["problems"] for r in results)
    prefixed = len(results) > 1
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: v for r in results
                    for k, v in result_line(r, r["workload"] + "." if prefixed else "").items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
