"""The three workloads: how each builds its inputs from the seed, what one
timed unit of work does, and the digest of its output.

- desk-attack: the CLI `attack --deterministic` path, run in process, on the
  acceptance suite's desk data and net (2x1000 rows, 32x32) with 150 phase-1
  steps, a one-evaluation phase 2 on a 48-row subsample, and the attached
  audit with LOF on.  The write path: it trains parameters.  The search is
  bound by per-call overhead; Jacobians are a small share.
- explain-mix: a fixed desk-scale baseline (2x250 rows) audited for each of
  the four objectives, then a closed loop of one client making single-query
  `find_counterfactual` calls over a fixed set of negatives.  The read path:
  search only, no Jacobian.
- full-scale-step: one phase-2 evaluation on a small subsample of a seeded
  two-cluster, 99-feature CSV loaded through `data.load_csv`, with a 4x200
  model from a short seeded training.  The search is bound by FLOPs; the
  dense 99 x 140,801 Jacobians take most of the memory and about a third of
  the time.

The desk workloads search with 300 optimizer steps per escalation attempt:
at these sizes that needs the same attempts as the default 1000 in a third of
the time.  The full-scale search keeps 1000, which it needs to find every
counterfactual.  At the acceptance suite's 600 phase-1 steps some desk
searches exhaust the escalation schedule; with 150 none did on seeds 1-79.

The seed is the only input a run varies.  desk-attack and full-scale-step
take it as the phase-2 subsample seed, explain-mix as the dice initializer
seed and the order of its single queries.  Dataset and model seeds are fixed:
the desk workloads keep the acceptance suite's, and at full scale a seeded
dataset and training changed the model's confidence, and so the number of
escalation attempts and the run time, several-fold from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DESK_DATASET_SEED = 7
DESK_MODEL_SEED = 1
BASELINE_STEPS = 50
FULL_FEATURES = 99
FULL_DATA_SEED = 0


@dataclass(frozen=True)
class Scale:
    desk_n_per_cluster: int
    desk_hidden: tuple[int, ...]
    desk_search_steps: int       # optimizer steps per escalation attempt
    phase1_steps: int
    phase2_steps: int
    subsample: int
    explain_n_per_cluster: int
    explain_singles: int
    full_rows: int
    full_hidden: tuple[int, ...]
    full_search_steps: int
    full_train_steps: int
    full_subsample: int
    full_separation: float       # cluster-centre offset per feature, in sd


SCALES = {
    # A unit takes about 3 s (desk-attack), 8 s (explain-mix) and 17 s
    # (full-scale-step) on one core, so a 30 s run measures two or more.
    "full": Scale(desk_n_per_cluster=1000, desk_hidden=(32, 32), desk_search_steps=300,
                  phase1_steps=150, phase2_steps=0, subsample=48,
                  explain_n_per_cluster=250, explain_singles=10,
                  full_rows=1000, full_hidden=(200, 200, 200, 200), full_search_steps=1000,
                  full_train_steps=20, full_subsample=6, full_separation=0.33),
    # for the benchmark's own tests: every code path, a few seconds a workload
    "tiny": Scale(desk_n_per_cluster=40, desk_hidden=(8, 8), desk_search_steps=60,
                  phase1_steps=20, phase2_steps=1, subsample=6,
                  explain_n_per_cluster=40, explain_singles=3,
                  full_rows=100, full_hidden=(16, 16), full_search_steps=60,
                  full_train_steps=3, full_subsample=2, full_separation=0.42),
}


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class DeskAttack:
    name = "desk-attack"
    has_audit = True

    def setup(self, rl, seed: int, scale: Scale, workdir: Path) -> dict:
        config = {
            "dataset": {"kind": "synthetic", "n_per_cluster": scale.desk_n_per_cluster,
                        "seed": DESK_DATASET_SEED},
            "model": {"hidden": list(scale.desk_hidden), "seed": DESK_MODEL_SEED},
            "explainer": {"kind": "wachter", "initializer": "origin",
                          "steps": scale.desk_search_steps, "lr": 0.01},
            "training": {"phase1_steps": scale.phase1_steps,
                         "phase2_steps": scale.phase2_steps, "seed": seed,
                         "subsample": scale.subsample, "bce_weight": 2.0,
                         "counterfactual_weight": 1.0, "delta_size_weight": 0.25},
            "audit": {"tau": 1.0, "lof": True},
        }
        path = workdir / "desk-attack.json"
        path.write_text(json.dumps(config, indent=2))
        # Pre-flight: the CLI's own parser and validation accept the file, and
        # the dataset it names has both labels in both groups.
        parsed = rl.cli.load_config(path)
        rl.cli.validate_config(parsed)
        ds = rl.cli.build_dataset(parsed)
        cells = set(zip(ds.train_labels.tolist(), ds.protected[ds.train_idx].tolist()))
        if len(cells) < 4:
            raise RuntimeError(f"desk dataset has only label/group cells {sorted(cells)}")
        return {"config": path, "out": workdir / "desk-attack-out"}

    def reset(self, inputs: dict) -> None:
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def run(self, rl, inputs: dict, probe) -> dict:
        code = rl.cli.main(["attack", "--config", str(inputs["config"]),
                            "--out", str(inputs["out"]), "--deterministic"])
        return {"exit_code": code}

    def digest(self, rl, inputs: dict, output: dict, workdir: Path) -> str:
        report = inputs["out"] / "report.csv"
        if not report.exists():
            return f"no report.csv (exit code {output['exit_code']})"
        return _sha256([report.read_bytes()])

    def problems(self, output: dict, aborted: int) -> list[str]:
        if output["exit_code"] != 0 and not aborted:
            return [f"attack exited with code {output['exit_code']}"]
        return []


class ExplainMix:
    name = "explain-mix"
    has_audit = True

    def setup(self, rl, seed: int, scale: Scale, workdir: Path) -> dict:
        ds = rl.data.make_synthetic(scale.explain_n_per_cluster, seed=DESK_DATASET_SEED)
        baseline = rl.model.train_baseline(ds, steps=BASELINE_STEPS, seed=DESK_MODEL_SEED,
                                           hidden=scale.desk_hidden).model
        test = ds.test_idx
        negatives = test[np.asarray(baseline.forward(ds.features[test])) <= 0.5]
        singles = negatives[:scale.explain_singles]
        order = np.random.default_rng(seed).permutation(singles.size)
        return {
            "dataset": ds, "model": baseline,
            "singles": ds.features[singles[order]],
            "budget": rl.explainers.SearchBudget(steps=scale.desk_search_steps),
            "dice_init": rl.explainers.Initializer("random-uniform", seed=seed),
        }

    def reset(self, inputs: dict) -> None:
        pass

    def run(self, rl, inputs: dict, probe) -> dict:
        ex = rl.explainers
        ds, net, budget = inputs["dataset"], inputs["model"], inputs["budget"]
        audits = {}
        for kind in ex.OBJECTIVE_KINDS:
            init = inputs["dice_init"] if kind == "dice" else ex.Initializer()
            audits[kind] = rl.audit.run_audit(net, ds, ex.CfObjective(kind),
                                              initializer=init, budget=budget,
                                              lof=True, return_details=True)
        wachter = ex.CfObjective("wachter")
        singles, latencies = [], []
        for x in inputs["singles"]:
            excluded = probe.record.excluded_s
            t0 = time.perf_counter()
            singles.append(ex.find_counterfactual(net, x, wachter, ds, budget=budget))
            latencies.append(time.perf_counter() - t0 - (probe.record.excluded_s - excluded))
        return {"audits": audits, "singles": singles, "latencies": latencies}

    def digest(self, rl, inputs: dict, output: dict, workdir: Path) -> str:
        tables = [(f"{kind}-{cond}", results)
                  for kind, details in output["audits"].items()
                  for cond, results in details.results.items()]
        tables.append(("single-wachter", output["singles"]))
        chunks = []
        for label, results in tables:
            path = workdir / f"results-{label}.csv"
            rl.explainers.results_to_csv(results, path)
            chunks.append(path.read_bytes())
        return _sha256(chunks)

    def problems(self, output: dict, aborted: int) -> list[str]:
        return []


class FullScaleStep:
    name = "full-scale-step"
    has_audit = False

    def setup(self, rl, seed: int, scale: Scale, workdir: Path) -> dict:
        path = workdir / "two-cluster.csv"
        write_two_cluster_csv(path, FULL_DATA_SEED, scale.full_rows, scale.full_separation)
        schema = rl.data.CsvSchema(label="label", protected_column="group")
        ds = rl.data.load_csv(path, schema, seed=FULL_DATA_SEED)
        stage = rl.adversary.phase1_fit(ds, rl.adversary.Phase1Config(
            steps=scale.full_train_steps, seed=FULL_DATA_SEED, hidden=scale.full_hidden))
        config = rl.adversary.Phase2Config(
            objective=rl.explainers.CfObjective("wachter"), steps=0,
            subsample=scale.full_subsample, seed=seed,
            budget=rl.explainers.SearchBudget(steps=scale.full_search_steps))
        return {"dataset": ds, "model": stage.model, "delta": stage.delta, "config": config}

    def reset(self, inputs: dict) -> None:
        pass

    def run(self, rl, inputs: dict, probe) -> dict:
        try:
            art = rl.adversary.phase2_fit(inputs["model"], inputs["delta"],
                                          inputs["dataset"], inputs["config"])
        except rl.adversary.Phase2Aborted as exc:
            return {"steps": None, "aborted": str(exc)}
        return {"steps": [vars(s) for s in art.phase2_steps], "aborted": None}

    def digest(self, rl, inputs: dict, output: dict, workdir: Path) -> str:
        record = output["steps"] if output["aborted"] is None else output["aborted"]
        return _sha256([json.dumps(record, allow_nan=True).encode()])

    def problems(self, output: dict, aborted: int) -> list[str]:
        return []


def write_two_cluster_csv(path: Path, seed: int, rows: int, separation: float) -> None:
    """98 Gaussian features whose means sit at -separation / +separation by
    class, a 0/1 `group` column independent of the label, and the label."""
    rng = np.random.default_rng([seed, FULL_FEATURES])
    label = rng.integers(0, 2, rows)
    shift = np.where(label == 1, separation, -separation)[:, None]
    feats = rng.standard_normal((rows, FULL_FEATURES - 1)) + shift
    group = rng.integers(0, 2, rows)
    header = [f"f{j}" for j in range(FULL_FEATURES - 1)] + ["group", "label"]
    lines = [",".join(header)]
    for i in range(rows):
        lines.append(",".join(map(repr, feats[i].tolist())) + f",{group[i]},{label[i]}")
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (DeskAttack(), ExplainMix(), FullScaleStep())}
