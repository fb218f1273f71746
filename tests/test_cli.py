import json
import os

import numpy as np
import pytest

import recourselab.cli as cli
from recourselab import explainers, model as model_mod
from recourselab.cli import ConfigError, config_hash, load_config, main, parse_config


def tiny_config(**overrides):
    blob = {
        "dataset": {"kind": "synthetic", "n_per_cluster": 40, "seed": 3},
        "model": {"hidden": [8, 8], "seed": 1},
        "explainer": {"kind": "wachter", "steps": 120, "init_seed": 0},
        "training": {"baseline_steps": 60, "phase1_steps": 150, "phase2_steps": 1,
                     "subsample": 10, "seed": 2,
                     "bce_weight": 2.0, "counterfactual_weight": 1.0,
                     "delta_size_weight": 0.25},
        "audit": {"tau": 1.0, "lof": True},
    }
    blob.update(overrides)
    return blob


def write_config(tmp_path, blob, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


class TestConfigParsing:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"bogus": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="dataset.widgets"):
            parse_config({"dataset": {"widgets": 3}})

    def test_wrong_type_names_field(self):
        with pytest.raises(ConfigError, match="training.phase1_steps"):
            parse_config({"training": {"phase1_steps": "lots"}})

    def test_missing_csv_path_names_field(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config({"dataset": {"kind": "csv", "label": "y",
                                      "protected_column": "a"}})

    def test_nonexistent_csv_path(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config({"dataset": {"kind": "csv", "path": str(tmp_path / "no.csv"),
                                      "label": "y", "protected_column": "a"}})

    def test_bad_explainer_kind(self):
        with pytest.raises(ConfigError, match="explainer.kind"):
            parse_config({"explainer": {"kind": "magic"}})

    def test_dice_lam1_below_floor_names_field(self):
        floor = explainers.SearchBudget().lam1_floor
        with pytest.raises(ConfigError, match="explainer.lam1"):
            parse_config({"explainer": {"kind": "dice", "lam1": floor / 10}})
        assert parse_config({"explainer": {"kind": "dice", "lam1": floor}}).explainer.lam1 == floor
        # lam1 only weighs the dice objective
        parse_config({"explainer": {"kind": "wachter", "lam1": floor / 10}})

    def test_defaults_mirror_reference_protocol(self):
        config = parse_config({})
        assert config.model.hidden == [200, 200, 200, 200]
        assert config.training.phase1_steps == 10_000
        assert config.training.phase2_steps == 15
        assert config.training.baseline_steps == 50
        assert config.explainer.steps == 1000
        assert config.explainer.lr == 0.01

    def test_config_file_round_trip(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        config = load_config(path)
        assert config.dataset.n_per_cluster == 40


class TestConfigHash:
    def test_key_order_irrelevant(self):
        a = parse_config({"model": {"hidden": [4], "seed": 1},
                          "dataset": {"kind": "synthetic"}})
        b = parse_config({"dataset": {"kind": "synthetic"},
                          "model": {"seed": 1, "hidden": [4]}})
        assert config_hash(a) == config_hash(b)

    def test_any_field_changes_hash(self):
        base = parse_config(tiny_config())
        changed = parse_config(tiny_config())
        changed.training.seed += 1
        assert config_hash(base) != config_hash(changed)

    def test_sweep_section_in_hash(self):
        a = parse_config(tiny_config())
        b = parse_config(tiny_config(sweep={"axis": "initializer", "values": ["origin"]}))
        assert config_hash(a) != config_hash(b)


class TestTrainBaselineCommand:
    def test_writes_checkpoint_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "run"
        assert main(["train-baseline", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed
        assert (out / "baseline.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["accuracy"] >= 0.9
        assert manifest["config_hash"]

    def test_missing_config_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dataset": {"kind": "csv", "label": "y",
                                                  "protected_column": "a"}})
        code = main(["train-baseline", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dataset.path" in capsys.readouterr().err

    def test_deterministic_manifests(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train-baseline", "--config", cfg, "--out", str(out),
                         "--deterministic"]) == 0
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1]


class TestAuditCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "base"
        assert main(["train-baseline", "--config", cfg, "--out", str(out)]) == 0
        return cfg, str(out / "baseline.npz")

    def test_plain_audit_reduction_one(self, tmp_path, checkpoint, capsys):
        cfg, model_path = checkpoint
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg, "--model", model_path,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cost_reduction"] == 1.0
        assert (out / "results_protected.csv").exists()

    def test_nonexistent_checkpoint_nonzero_exit(self, tmp_path, checkpoint, capsys):
        cfg, _ = checkpoint
        code = main(["audit", "--config", cfg, "--model", str(tmp_path / "gone.npz"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "gone.npz" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, checkpoint, monkeypatch):
        cfg, model_path = checkpoint
        env_out = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTPUT_ENV_VAR, str(env_out))
        monkeypatch.chdir(tmp_path)
        assert main(["audit", "--config", cfg, "--model", model_path]) == 0
        assert (env_out / "report.json").exists()


class TestExplainCommand:
    def test_json_to_stdout(self, tmp_path, capsys):
        blob = tiny_config()
        blob["explain_index"] = 0
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "base"
        assert main(["train-baseline", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["explain", "--config", cfg, "--model",
                     str(out / "baseline.npz"), "--out", str(tmp_path / "e")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"] == 0
        assert set(payload) >= {"x", "x_cf", "valid", "cost", "iterations",
                                "lam", "initializer", "optimizer"}

    def test_explain_error_is_error_exit_1(self, tmp_path, capsys):
        # a model that accepts no training point leaves prototypes no pool
        blob = tiny_config(explain_index=0)
        blob["explainer"]["kind"] = "prototypes"
        cfg = write_config(tmp_path, blob)
        d = cli.build_dataset(load_config(cfg)).d
        net = model_mod.MlpClassifier([d, 1], seed=0)
        net.set_flat(np.concatenate([np.zeros(d), [-5.0]]))
        model_path = tmp_path / "rejects_all.npz"
        model_mod.save_model(net, model_path)
        code = main(["explain", "--config", cfg, "--model", str(model_path),
                     "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positively predicted" in err
        assert "Traceback" not in err

    def test_missing_index_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "base"
        assert main(["train-baseline", "--config", cfg, "--out", str(out)]) == 0
        code = main(["explain", "--config", cfg, "--model",
                     str(out / "baseline.npz"), "--out", str(tmp_path / "e")])
        assert code == 2


class TestAttackCommand:
    def test_attack_writes_artifact_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "attack"
        assert main(["attack", "--config", cfg, "--out", str(out)]) == 0
        for name in ("artifact/model.npz", "artifact/delta.csv",
                     "artifact/telemetry.json", "report.json", "report.csv",
                     "manifest.json"):
            assert (out / name).exists(), name
        telemetry = json.loads((out / "artifact" / "telemetry.json").read_text())
        assert set(telemetry) == {"phase1", "phase2"}

    def test_zero_step_attack_reduction_one(self, tmp_path):
        blob = tiny_config()
        blob["training"].update(phase1_steps=0, phase2_steps=0)
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "attack0"
        assert main(["attack", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["delta_l1"] == 0.0
        assert report["cost_reduction"] == pytest.approx(1.0)


class TestSweepCommand:
    def test_empty_sweep_single_cell(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_CSV_HEADER)
        assert len(lines) == 2

    def test_initializer_sweep_reuses_artifact(self, tmp_path):
        blob = tiny_config(sweep={"axis": "initializer",
                                  "values": ["origin", "gaussian-jitter"]})
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "sweep2"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "artifact" / "model.npz").exists()
        assert (out / "cells" / "0" / "manifest.json").exists()

    def test_width_sweep_trains_per_cell(self, tmp_path):
        blob = tiny_config(sweep={"axis": "width", "values": [4, 8]})
        blob["training"].update(phase1_steps=60, phase2_steps=0)
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "sweep3"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "cells" / "1" / "artifact" / "model.npz").exists()

    def test_deterministic_sweep_csv(self, tmp_path):
        blob = tiny_config(sweep={"axis": "initializer", "values": ["origin"]})
        cfg = write_config(tmp_path, blob)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--deterministic"]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCrossCommandConsistency:
    def test_audit_of_saved_artifact_matches_attack_report(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        attack_out = tmp_path / "attack"
        assert main(["attack", "--config", cfg, "--out", str(attack_out)]) == 0
        audit_out = tmp_path / "re_audit"
        assert main(["audit", "--config", cfg,
                     "--model", str(attack_out / "artifact" / "model.npz"),
                     "--delta", str(attack_out / "artifact" / "delta.csv"),
                     "--out", str(audit_out)]) == 0
        attack_manifest = json.loads((attack_out / "manifest.json").read_text())
        audit_report = json.loads((audit_out / "report.json").read_text())
        for key in ("disparity", "cost_reduction", "accuracy", "delta_l1"):
            assert audit_report[key] == attack_manifest["metrics"][key]

    def test_mask_size_sweep(self, tmp_path):
        # mask_seed 1 keeps the horizontal feature mutable, so the cell works
        blob = tiny_config(sweep={"axis": "mask-size", "values": [1]})
        blob["explainer"]["mask_seed"] = 1
        blob["training"].update(phase1_steps=60, phase2_steps=0)
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "masksweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_failed_cell_recorded_sweep_continues(self, tmp_path):
        # the complementary mask keeps only the vertical feature: the search
        # cannot reach validity and the cell must fail without killing the sweep
        blob = tiny_config(sweep={"axis": "mask-size", "values": [1]})
        blob["explainer"]["mask_seed"] = 0
        blob["training"].update(phase1_steps=60, phase2_steps=0)
        cfg = write_config(tmp_path, blob)
        out = tmp_path / "maskfail"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and ",error," in lines[1]
