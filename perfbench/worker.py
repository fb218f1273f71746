"""One workload in one fresh process; started by run.py with BLAS pinned.

Sets up the workload, then runs one unit of work, and repeats until
`--seconds` have passed (at least one unit and three set-ups; the medians
are `setup_s` and `wall_s`), checks every unit's outputs, and writes a JSON
result file.  With `--trace 1` it then traces one more set-up and one more
unit; the per-layer metrics come from those, the end-to-end ones never do.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import metrics
import probe as probe_mod
import tracer as tracer_mod
import workloads

MIN_SETUPS = 3
MAX_SETUPS_PER_ROUND = 50
SETUP_SLICE_S = 0.25     # set-up time before each unit, at least one set-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SAMPLE_PERIOD_S = 0.01
REFERENCE_LOOP = 1000    # iterations of the reference loop, about 0.1 ms


class Speedometer:
    """Samples how fast the core runs while a unit runs.

    On a shared host the same work takes up to twice as long from one minute
    to the next, in CPU time as much as in wall time.  Every SAMPLE_PERIOD_S a
    timer signal runs a fixed pure-Python loop and records how long it took;
    a unit's wall time over the mean of its samples is its time in reference
    loops, which the core's speed changes far less than the wall time.  The
    samples cost about 1% of the wall time, in every untraced unit alike.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(REFERENCE_LOOP):
            x += i * i
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def running(self):
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def import_program(root: Path):
    import recourselab as rl
    import recourselab.cli  # noqa: F401  (makes rl.cli an attribute)

    src = (root / "src").resolve()
    if src not in Path(rl.__file__).resolve().parents:
        raise SystemExit(f"recourselab imported from {rl.__file__}, not from {src}")
    return rl


def run_unit(wl, rl, inputs, probe, speedometer=None):
    wl.reset(inputs)
    probe.reset()
    with speedometer.running() if speedometer else nullcontext():
        t0 = time.perf_counter()
        output = wl.run(rl, inputs, probe)
        wall = time.perf_counter() - t0
    record = probe.reset()
    return output, record, wall - record.excluded_s


def evaluate(wl, rl, inputs, output, record, args, workdir) -> dict:
    if args.plant_fault:
        plant_invalid_result(record)
    report = probe_mod.check_unit(rl, record)
    problems = report.problems + wl.problems(output, record.phase2_aborted)
    results = list(record.results())
    return {"digest": wl.digest(rl, inputs, output, workdir),
            "attempted": report.attempted, "failed": report.failed,
            "problems": problems, "audit_s": record.audit_s,
            "latencies": output.get("latencies", []),
            "queries": len(results),
            "not_found": sum(not r.found for r in results),
            "attempts": sum(len(r.lam_attempts) for r in results),
            "jacobians": len(record.jacobian_modes),
            "hypergrad_skipped": record.hypergrad_skipped,
            "phase2_aborted": record.phase2_aborted}


def plant_invalid_result(record) -> None:
    """Replace the first found counterfactual by its own (rejected) query."""
    for cap in record.searches:
        for i, r in enumerate(cap.results):
            if r.found and not r.query_was_valid:
                r.x_cf = cap.queries[i].copy()
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    rl = import_program(args.root)
    wl = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    workdir = args.result.parent / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    patches = tracer_mod.Patches()
    probe = probe_mod.Probe(rl)
    probe.install(patches)

    # Set-ups are interleaved with the units, so that `setup_s` and `wall_s`
    # sample the machine over the same seconds.
    setups: list[float] = []

    def set_up(budget_s: float):
        spent = 0.0
        for _ in range(MAX_SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            fresh = wl.setup(rl, args.seed, scale, workdir)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]
            if spent >= budget_s:
                break
        probe.reset()
        return fresh

    speedometer = Speedometer()
    units, walls, references = [], [], []
    started = time.perf_counter()
    while True:
        inputs = set_up(SETUP_SLICE_S)
        output, record, wall = run_unit(wl, rl, inputs, probe, speedometer)
        walls.append(wall)
        references.append(speedometer.mean_s())
        units.append(evaluate(wl, rl, inputs, output, record, args, workdir))
        if time.perf_counter() - started >= args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        set_up(0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "machine": machine_facts(),
              "setup_reps_s": setups, "unit_walls_s": walls,
              "unit_reference_loop_s": references}

    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install(rl)
        probe.tracer = tracer
        with tracer.span("bench.setup"):
            inputs = wl.setup(rl, args.seed, scale, workdir)
        with tracer.span("bench.unit"):
            output, record, traced_wall = run_unit(wl, rl, inputs, probe)
        tracer.uninstall()
        probe.tracer = None
        units.append(evaluate(wl, rl, inputs, output, record, args, workdir))
        per_layer, detail = metrics.layer_metrics(tracer, record, traced_wall,
                                                  statistics.median(walls))
        tracer.save(args.result.with_suffix(".spans.npz"))
        result["traced_wall_s"] = traced_wall
        result["per_layer"] = per_layer
        result["trace_detail"] = detail

    latencies = [t for u in units[:len(walls)] for t in u["latencies"]]
    lat = metrics.latency_summary(latencies)
    digests = sorted({u["digest"] for u in units})
    problems = [p for u in units for p in u["problems"]]
    if len(digests) > 1:
        problems.append(f"units of one run disagree: digests {digests}")
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    result.update({
        "units": units,
        "digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latency": lat,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "wall_kref": statistics.median(w / r for w, r in zip(walls, references)) / 1e3,
            "audit_s": (statistics.median(u["audit_s"] for u in units[:len(walls)])
                        if wl.has_audit else None),
            "explain_p50_s": lat["p50"],
            "explain_p90_s": lat["p90"],
            "peak_rss_mb": peak_rss_mb,
            "fail_frac": failed / attempted if attempted else None,
        },
    })
    patches.undo()
    shutil.rmtree(workdir, ignore_errors=True)
    args.result.write_text(json.dumps(result, indent=1, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
