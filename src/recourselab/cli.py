"""Configuration-driven experiment runner.

Subcommands: train-baseline, attack, audit, sweep, explain.  A single JSON
config file describes the dataset, model, explainer, training, audit, and
optional sweep; flags only pick the subcommand, config path, output
directory, and determinism mode.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, adversary, audit as audit_mod, data, explainers, model as model_mod

OUTPUT_ENV_VAR = "RECOURSELAB_OUT"

SWEEP_CSV_HEADER = ("cell", "axis", "value", "status", "disparity", "cost_reduction",
                    "accuracy", "delta_l1", "not_found", "error")


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


# -- config schema ---------------------------------------------------------------


@dataclass
class DatasetConfig:
    kind: str = "synthetic"
    seed: int = 0
    n_per_cluster: int = 1000
    path: str | None = None
    label: str | None = None
    features: list[str] | None = None
    protected_column: str | None = None
    protected_op: str = ">"
    protected_threshold: float = 0.5
    label_rule: str = "binary"


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [200, 200, 200, 200])
    seed: int = 1


@dataclass
class ExplainerConfig:
    kind: str = "wachter"
    lam: float = 1.0
    lam1: float = 10.0
    lam2: float = 1.0
    beta: float = 1.0
    k: int = 4
    initializer: str = "origin"
    init_seed: int = 0
    steps: int = 1000
    lr: float = 0.01
    mask_size: int | None = None
    mask_seed: int = 0


@dataclass
class TrainingConfig:
    baseline_steps: int = 50
    phase1_steps: int = 10_000
    phase2_steps: int = 15
    lr: float = 0.01
    seed: int = 2
    subsample: int = 256
    bce_weight: float = 1.0
    counterfactual_weight: float = 1.0
    delta_size_weight: float = 1.0
    np_cost_weight: float = 1.0
    disparity_weight: float = 1.0


@dataclass
class AuditSection:
    tau: float = 1.0
    lof: bool = True


@dataclass
class SweepSection:
    axis: str = "initializer"
    values: list = field(default_factory=list)
    artifact: str | None = None


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    explainer: ExplainerConfig = field(default_factory=ExplainerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    audit: AuditSection = field(default_factory=AuditSection)
    explain_index: int | None = None
    sweep: SweepSection | None = None


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "explainer": ExplainerConfig,
    "training": TrainingConfig,
    "audit": AuditSection,
    "sweep": SweepSection,
}


def _build_section(cls, blob: dict, prefix: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(blob) - set(fields)
    if unknown:
        raise ConfigError(f"{prefix}.{sorted(unknown)[0]}: unknown key")
    kwargs = {}
    for name, value in blob.items():
        spec = fields[name]
        kwargs[name] = _coerce(value, spec.type, f"{prefix}.{name}")
    return cls(**kwargs)


def _coerce(value, annotation: str, where: str):
    # annotations arrive as strings (from __future__ semantics of dataclasses)
    if value is None:
        if "None" in annotation:
            return None
        raise ConfigError(f"{where}: may not be null")
    if annotation.startswith("int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer")
        return value
    if annotation.startswith("float"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number")
        return float(value)
    if annotation.startswith("bool"):
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true/false")
        return value
    if annotation.startswith("str"):
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string")
        return value
    if annotation.startswith("list[int]"):
        if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{where}: expected a list of integers")
        return list(value)
    if annotation.startswith("list[str]"):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where}: expected a list of strings")
        return list(value)
    if annotation.startswith("list"):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list")
        return list(value)
    return value


def parse_config(blob: dict) -> ExperimentConfig:
    if not isinstance(blob, dict):
        raise ConfigError("config root: expected an object")
    unknown = set(blob) - (set(_SECTIONS) | {"explain_index"})
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in blob:
            if not isinstance(blob[name], dict):
                raise ConfigError(f"{name}: expected an object")
            kwargs[name] = _build_section(cls, blob[name], name)
    if "explain_index" in blob:
        kwargs["explain_index"] = _coerce(blob["explain_index"], "int | None", "explain_index")
    config = ExperimentConfig(**kwargs)
    validate_config(config)
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        blob = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(blob)


def validate_config(config: ExperimentConfig) -> None:
    ds = config.dataset
    if ds.kind not in ("synthetic", "csv"):
        raise ConfigError(f"dataset.kind: unknown kind {ds.kind!r}")
    if ds.kind == "csv":
        if not ds.path:
            raise ConfigError("dataset.path: required for csv datasets")
        if not Path(ds.path).exists():
            raise ConfigError(f"dataset.path: no such file {ds.path!r}")
        if not ds.label:
            raise ConfigError("dataset.label: required for csv datasets")
        if not ds.protected_column:
            raise ConfigError("dataset.protected_column: required for csv datasets")
    if ds.kind == "synthetic" and ds.n_per_cluster < 10:
        raise ConfigError("dataset.n_per_cluster: must be at least 10")
    if any(h < 1 for h in config.model.hidden):
        raise ConfigError("model.hidden: layer widths must be positive")
    ex = config.explainer
    if ex.kind not in explainers.OBJECTIVE_KINDS:
        raise ConfigError(f"explainer.kind: unknown kind {ex.kind!r}")
    if ex.initializer not in explainers.INITIALIZER_KINDS:
        raise ConfigError(f"explainer.initializer: unknown kind {ex.initializer!r}")
    if ex.steps < 1 or ex.lr <= 0:
        raise ConfigError("explainer.steps/lr: must be positive")
    lam1_floor = explainers.SearchBudget().lam1_floor
    if ex.kind == "dice" and ex.lam1 < lam1_floor:
        raise ConfigError(f"explainer.lam1: dice escalation divides lam1 by 10 down to "
                          f"{lam1_floor:g}, so it must be at least that")
    if ex.mask_size is not None and ex.mask_size < 1:
        raise ConfigError("explainer.mask_size: must be positive when set")
    tr = config.training
    if min(tr.baseline_steps, tr.phase1_steps, tr.phase2_steps) < 0:
        raise ConfigError("training steps: must be non-negative")
    if config.sweep is not None:
        if config.sweep.axis not in ("initializer", "mask-size", "width"):
            raise ConfigError(f"sweep.axis: unknown axis {config.sweep.axis!r}")
        if config.sweep.artifact and not Path(config.sweep.artifact).exists():
            raise ConfigError(f"sweep.artifact: no such directory {config.sweep.artifact!r}")


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- config materialization --------------------------------------------------------


def build_dataset(config: ExperimentConfig) -> data.Dataset:
    ds = config.dataset
    if ds.kind == "synthetic":
        return data.make_synthetic(ds.n_per_cluster, seed=ds.seed)
    schema = data.CsvSchema(
        label=ds.label, protected_column=ds.protected_column,
        protected_op=ds.protected_op, protected_threshold=ds.protected_threshold,
        features=ds.features, label_rule=ds.label_rule)
    return data.load_csv(ds.path, schema, seed=ds.seed)


def build_feature_mask(config: ExperimentConfig, d: int) -> tuple[bool, ...] | None:
    ex = config.explainer
    if ex.mask_size is None or ex.mask_size >= d:
        return None
    rng = np.random.default_rng(ex.mask_seed)
    mutable = np.zeros(d, dtype=bool)
    mutable[rng.choice(d, size=ex.mask_size, replace=False)] = True
    return tuple(bool(v) for v in mutable)


def build_objective(config: ExperimentConfig, d: int) -> explainers.CfObjective:
    ex = config.explainer
    return explainers.CfObjective(
        kind=ex.kind, lam=ex.lam, lam1=ex.lam1, lam2=ex.lam2, beta=ex.beta,
        k=ex.k, feature_mask=build_feature_mask(config, d))


def build_initializer(config: ExperimentConfig) -> explainers.Initializer:
    return explainers.Initializer(kind=config.explainer.initializer,
                                  seed=config.explainer.init_seed)


def build_budget(config: ExperimentConfig) -> explainers.SearchBudget:
    return explainers.SearchBudget(steps=config.explainer.steps, lr=config.explainer.lr)


def _phase_configs(config: ExperimentConfig, d: int):
    tr = config.training
    phase1 = adversary.Phase1Config(
        steps=tr.phase1_steps, lr=tr.lr, seed=config.model.seed,
        hidden=tuple(config.model.hidden),
        bce_weight=tr.bce_weight, counterfactual_weight=tr.counterfactual_weight,
        delta_size_weight=tr.delta_size_weight,
        feature_mask=build_feature_mask(config, d))
    phase2 = adversary.Phase2Config(
        objective=build_objective(config, d), steps=tr.phase2_steps, lr=tr.lr,
        seed=tr.seed, subsample=tr.subsample,
        initializer=build_initializer(config), budget=build_budget(config),
        bce_weight=tr.bce_weight, np_cost_weight=tr.np_cost_weight,
        disparity_weight=tr.disparity_weight)
    return phase1, phase2


# -- manifests ----------------------------------------------------------------------


def write_manifest(out_dir: Path, config: ExperimentConfig, artifacts: dict,
                   metrics: dict, deterministic: bool) -> Path:
    relative = {}
    for name, target in artifacts.items():
        try:
            relative[name] = os.path.relpath(target, out_dir)
        except ValueError:
            relative[name] = str(target)
    manifest = {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "timestamp": "" if deterministic else time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": relative,
        "metrics": metrics,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, allow_nan=True))
    return path


def _report_metrics(report: audit_mod.AuditReport) -> dict:
    return {
        "disparity": report.disparity,
        "cost_reduction": report.cost_reduction,
        "accuracy": report.accuracy,
        "delta_l1": report.delta_l1,
        "fair": report.fair,
    }


# -- subcommands ----------------------------------------------------------------------


def cmd_train_baseline(config: ExperimentConfig, out_dir: Path, deterministic: bool) -> int:
    dataset = build_dataset(config)
    result = model_mod.train_baseline(
        dataset, steps=config.training.baseline_steps, seed=config.model.seed,
        hidden=config.model.hidden, lr=config.training.lr)
    acc = model_mod.accuracy(result.model, dataset.test_features, dataset.test_labels)
    checkpoint = out_dir / "baseline.npz"
    model_mod.save_model(result.model, checkpoint)
    write_manifest(out_dir, config, {"checkpoint": str(checkpoint)},
                   {"accuracy": acc, "final_loss": float(result.loss_trace[-1])
                    if result.loss_trace.size else float("nan")}, deterministic)
    print(f"baseline accuracy: {acc:.4f}")
    print(f"checkpoint: {checkpoint}")
    return 0


def cmd_attack(config: ExperimentConfig, out_dir: Path, deterministic: bool) -> int:
    dataset = build_dataset(config)
    phase1_cfg, phase2_cfg = _phase_configs(config, dataset.d)
    artifact = adversary.run_attack(dataset, phase1_cfg, phase2_cfg)
    paths = adversary.save_artifact(artifact, out_dir / "artifact")
    report = audit_mod.run_audit(
        artifact.model, dataset, build_objective(config, dataset.d),
        delta=artifact.delta, tau=config.audit.tau,
        initializer=build_initializer(config), budget=build_budget(config),
        lof=config.audit.lof)
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json())
    audit_mod.report_to_csv(report, out_dir / "report.csv")
    paths.update({"report": str(report_path), "report_csv": str(out_dir / "report.csv")})
    write_manifest(out_dir, config, paths, _report_metrics(report), deterministic)
    print(f"attack complete: cost_reduction={report.cost_reduction:.3f} "
          f"disparity={report.disparity:.4f} accuracy={report.accuracy:.4f} "
          f"delta_l1={report.delta_l1:.4f}")
    return 0


def cmd_audit(config: ExperimentConfig, out_dir: Path, deterministic: bool,
              model_path: str, delta_path: str | None) -> int:
    dataset = build_dataset(config)
    net = model_mod.load_model(model_path)
    delta = adversary.read_delta_csv(delta_path) if delta_path else None
    details = audit_mod.run_audit(
        net, dataset, build_objective(config, dataset.d), delta=delta,
        tau=config.audit.tau, initializer=build_initializer(config),
        budget=build_budget(config), lof=config.audit.lof, return_details=True)
    report = details.report
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json())
    audit_mod.report_to_csv(report, out_dir / "report.csv")
    artifacts = {"report": str(report_path), "report_csv": str(out_dir / "report.csv")}
    for name, results in details.results.items():
        path = out_dir / f"results_{name}.csv"
        explainers.results_to_csv(results, path)
        artifacts[f"results_{name}"] = str(path)
    write_manifest(out_dir, config, artifacts, _report_metrics(report), deterministic)
    print(f"audit: disparity={report.disparity:.4f} fair={report.fair} "
          f"cost_reduction={report.cost_reduction:.3f}")
    return 0


def cmd_explain(config: ExperimentConfig, out_dir: Path, deterministic: bool,
                model_path: str) -> int:
    if config.explain_index is None:
        raise ConfigError("explain_index: required for the explain command")
    dataset = build_dataset(config)
    if not (0 <= config.explain_index < dataset.n):
        raise ConfigError(f"explain_index: out of range 0..{dataset.n - 1}")
    net = model_mod.load_model(model_path)
    x = dataset.features[config.explain_index]
    result = explainers.find_counterfactual(
        net, x, build_objective(config, dataset.d), dataset,
        build_initializer(config), build_budget(config))
    payload = {
        "index": config.explain_index,
        "x": x.tolist(),
        "x_cf": None if result.x_cf is None else result.x_cf.tolist(),
        "valid": result.valid,
        "cost": result.cost,
        "iterations": result.iterations,
        "lam": result.final_lam,
        "initializer": result.initializer,
        "optimizer": result.optimizer,
    }
    print(json.dumps(payload, allow_nan=True))
    return 0


def _sweep_cell_config(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    cell = dataclasses.replace(config, sweep=None)
    if axis == "initializer":
        cell = dataclasses.replace(
            cell, explainer=dataclasses.replace(cell.explainer, initializer=value))
    elif axis == "mask-size":
        cell = dataclasses.replace(
            cell, explainer=dataclasses.replace(cell.explainer, mask_size=int(value)))
    elif axis == "width":
        width = int(value)
        hidden = [width] * len(config.model.hidden)
        cell = dataclasses.replace(cell, model=dataclasses.replace(cell.model, hidden=hidden))
    return cell


def cmd_sweep(config: ExperimentConfig, out_dir: Path, deterministic: bool) -> int:
    sweep = config.sweep or SweepSection(axis="initializer",
                                         values=[config.explainer.initializer])
    values = sweep.values or [_default_cell_value(config, sweep.axis)]
    dataset = build_dataset(config)

    shared_artifact = None
    if sweep.axis == "initializer":
        # the search initializer is an audit-time choice: train one artifact,
        # audit it once per initializer
        if sweep.artifact:
            shared_artifact = adversary.load_artifact(sweep.artifact)
        else:
            phase1_cfg, phase2_cfg = _phase_configs(config, dataset.d)
            shared_artifact = adversary.run_attack(dataset, phase1_cfg, phase2_cfg)
            adversary.save_artifact(shared_artifact, out_dir / "artifact")

    rows = []
    for i, value in enumerate(values):
        cell_dir = out_dir / "cells" / str(i)
        cell_dir.mkdir(parents=True, exist_ok=True)
        cell_cfg = _sweep_cell_config(config, sweep.axis, value)
        try:
            if sweep.axis == "initializer":
                artifact = shared_artifact
            else:
                phase1_cfg, phase2_cfg = _phase_configs(cell_cfg, dataset.d)
                artifact = adversary.run_attack(dataset, phase1_cfg, phase2_cfg)
                adversary.save_artifact(artifact, cell_dir / "artifact")
            report = audit_mod.run_audit(
                artifact.model, dataset, build_objective(cell_cfg, dataset.d),
                delta=artifact.delta, tau=cell_cfg.audit.tau,
                initializer=build_initializer(cell_cfg), budget=build_budget(cell_cfg),
                lof=cell_cfg.audit.lof)
            write_manifest(cell_dir, cell_cfg, {}, _report_metrics(report), deterministic)
            not_found = sum(report.not_found.values())
            rows.append([i, sweep.axis, value, "ok", repr(report.disparity),
                         repr(report.cost_reduction), repr(report.accuracy),
                         repr(report.delta_l1), not_found, ""])
        except Exception as exc:  # cell failures must not kill the sweep
            write_manifest(cell_dir, cell_cfg, {}, {"error": str(exc)}, deterministic)
            rows.append([i, sweep.axis, value, "error", "", "", "", "", "", str(exc)])

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        writer.writerows(rows)
    write_manifest(out_dir, config, {"sweep_csv": str(csv_path)},
                   {"cells": len(rows),
                    "failed": sum(1 for r in rows if r[3] == "error")}, deterministic)
    print(f"sweep complete: {len(rows)} cells -> {csv_path}")
    return 0 if all(r[3] == "ok" for r in rows) else 1


def _default_cell_value(config: ExperimentConfig, axis: str):
    if axis == "initializer":
        return config.explainer.initializer
    if axis == "mask-size":
        return config.explainer.mask_size or 0
    return config.model.hidden[0]


# -- entry point -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recourselab",
        description="Recourse generation, manipulation, and fairness auditing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTPUT_ENV_VAR} or ./runs)")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps for byte-reproducible outputs")

    common(sub.add_parser("train-baseline", help="train and save the unmodified model"))
    common(sub.add_parser("attack", help="run both phases and save the artifact"))
    p_audit = sub.add_parser("audit", help="audit a saved model")
    common(p_audit)
    p_audit.add_argument("--model", required=True, help="model checkpoint (.npz)")
    p_audit.add_argument("--delta", default=None, help="perturbation CSV (optional)")
    p_explain = sub.add_parser("explain", help="explain one dataset row as JSON")
    common(p_explain)
    p_explain.add_argument("--model", required=True, help="model checkpoint (.npz)")
    common(sub.add_parser("sweep", help="run the configured sweep grid"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out or os.environ.get(OUTPUT_ENV_VAR, "runs"))
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "train-baseline":
            return cmd_train_baseline(config, out_dir, args.deterministic)
        if args.command == "attack":
            return cmd_attack(config, out_dir, args.deterministic)
        if args.command == "audit":
            return cmd_audit(config, out_dir, args.deterministic, args.model, args.delta)
        if args.command == "explain":
            return cmd_explain(config, out_dir, args.deterministic, args.model)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.deterministic)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (data.DataError, data.SchemaError, FileNotFoundError, explainers.ExplainError,
            adversary.Phase2Aborted, model_mod.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
