"""Recourse generation, manipulation, and fairness auditing for tabular classifiers."""

__version__ = "0.1.0"

from .data import CsvSchema, Dataset, GroupSlice, compute_mad, load_csv, make_synthetic, split
from .model import MlpClassifier, accuracy, load_model, save_model, train_baseline
from .explainers import (
    BatchExplainResult,
    CfObjective,
    CfResult,
    Initializer,
    SearchBudget,
    batch_explain,
    dist_wachter,
    find_counterfactual,
    sensitivity_probe,
)
from .adversary import (
    AdversarialArtifact,
    JacobianEstimate,
    Phase1Config,
    Phase2Config,
    counterfactual_term_grad,
    implicit_jacobian,
    load_artifact,
    phase1_fit,
    phase2_fit,
    run_attack,
    save_artifact,
)
from .audit import (
    AuditReport,
    cost_reduction,
    disparity,
    local_outlier_factor,
    outlier_percentage,
    run_audit,
    true_positive_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
