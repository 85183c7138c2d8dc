import json
import math

import numpy as np
import pytest

import guiflux.rewards as rewards_mod
from guiflux import verify
from guiflux.cli import main
from guiflux.config import load_config, parse_config, render_config
from guiflux.errors import ConfigError
from guiflux.harness import run_continual
from guiflux.persistence import (
    compute_metrics,
    read_matrix,
    read_trainlog,
    write_run,
)


TINY = {
    "scenario": "domain_flux",
    "steps_per_task": 6,
    "eval_episodes": 40,
    "seeds": [0],
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {}))
        assert cfg.scenario == "domain_flux"
        assert cfg.steps_per_task == 500
        assert cfg.eval_episodes == 2000
        assert cfg.optim.beta == 0.04
        assert cfg.optim.n_samples == 4
        assert cfg.reward.alpha == 15.0 and cfg.reward.gamma == 0.5

    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ConfigError, match="stepz"):
            load_config(write_cfg(tmp_path, {"stepz": 3}))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigError, match="optim.learning_rate"):
            load_config(write_cfg(tmp_path, {"optim": {"learning_rate": 0.1}}))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_type_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="steps_per_task"):
            load_config(write_cfg(tmp_path, {"steps_per_task": "many"}))
        with pytest.raises(ConfigError, match="seeds"):
            load_config(write_cfg(tmp_path, {"seeds": []}))
        with pytest.raises(ConfigError, match="scenario"):
            load_config(write_cfg(tmp_path, {"scenario": "cloud"}))

    def test_render_round_trip(self, tmp_path):
        doc = {
            "scenario": "resolution_flux",
            "steps_per_task": 9,
            "optim": {"lr": 0.01, "beta": 0.1},
            "reward": {"alpha": 2.0, "correctness_kind": "iou"},
            "ablation": {"use_kl": False},
            "sweep": {"alpha_scale": 2.0, "scale_points": [[1, 1], [2, 1]]},
            "simulator": {"overrides": {"normal": {"noise_sigma": 0.0}}},
        }
        cfg = load_config(write_cfg(tmp_path, doc))
        assert parse_config(render_config(cfg)) == cfg
        assert json.loads(json.dumps(render_config(cfg))) == render_config(cfg)


class TestRunCommand:
    def test_creates_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run", cfg, str(out)]) == 0
        for name in ("manifest.json", "matrix.csv", "trainlog.csv", "metrics.json"):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert manifest["config"]["steps_per_task"] == 6
        assert len(manifest["fixtures"]) == 3

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"stepz": 1})
        assert main(["run", cfg, str(tmp_path / "o")]) == 2

    def test_rerun_byte_identical_matrix(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, str(a)]) == 0
        assert main(["run", cfg, str(b)]) == 0
        assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()
        assert (a / "trainlog.csv").read_bytes() == (b / "trainlog.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "s9"
        assert main(["run", cfg, str(out), "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_invalid_override_exits_2_naming_path(self, tmp_path, caplog):
        doc = {**TINY, "simulator": {"overrides": {"mobile": {"text_fraction": 1.5}}}}
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, doc), str(out)]) == 2
        assert "simulator.overrides.mobile" in caplog.text
        assert not out.exists()

    def test_text_only_task_has_missing_icon_split(self, tmp_path):
        doc = {**TINY, "simulator": {"overrides": {"mobile": {"text_fraction": 1.0}}}}
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, doc), str(out)]) == 0
        lines = (out / "matrix.csv").read_text().splitlines()
        col = lines[0].split(",").index("icon_mobile")
        assert [line.split(",")[col] for line in lines[1:]] == ["nan"] * 4
        m = read_matrix(out / "matrix.csv")
        assert np.isnan(m.icon[:, 0]).all()
        assert not np.isnan(m.text).any() and not np.isnan(m.icon[:, 1:]).any()

    def test_numerical_abort_exits_3(self, tmp_path, monkeypatch):
        from guiflux import cli as cli_mod
        from guiflux.policy import NumericalAbort

        def boom(cfg, seed=None):
            raise NumericalAbort("synthetic abort")

        monkeypatch.setattr(cli_mod.harness, "run_continual", boom)
        cfg = write_cfg(tmp_path, TINY)
        assert main(["run", cfg, str(tmp_path / "o")]) == 3


class TestPersistenceRoundTrip:
    def test_matrix_exact(self, tmp_path):
        cfg = parse_config(TINY)
        m, records, tasks = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records, tasks)
        back = read_matrix(tmp_path / "matrix.csv")
        assert np.array_equal(back.overall, m.overall)
        assert np.array_equal(back.text, m.text)
        assert np.array_equal(back.icon, m.icon)
        assert back.task_names == m.task_names
        assert back.stage_labels == m.stage_labels

    def test_matrix_nan_round_trip(self, tmp_path):
        cfg = parse_config({**TINY, "simulator": {"overrides": {"web": {"text_fraction": 0.0}}}})
        m, records, tasks = run_continual(cfg, seed=0)
        assert np.isnan(m.text[:, 2]).all()
        write_run(tmp_path, cfg, 0, m, records, tasks)
        back = read_matrix(tmp_path / "matrix.csv")
        assert np.array_equal(back.text, m.text, equal_nan=True)
        assert np.array_equal(back.icon, m.icon)

    def test_trainlog_exact(self, tmp_path):
        cfg = parse_config(TINY)
        m, records, tasks = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records, tasks)
        back = read_trainlog(tmp_path / "trainlog.csv")
        assert back == records

    def test_trainlog_header_contract(self, tmp_path):
        cfg = parse_config(TINY)
        m, records, tasks = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records, tasks)
        header = (tmp_path / "trainlog.csv").read_text().splitlines()[0]
        assert header == "step,task,correctness,apr,arr,r_aif,kl,objective"

    def test_matrix_header_contract(self, tmp_path):
        cfg = parse_config(TINY)
        m, records, tasks = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records, tasks)
        header = (tmp_path / "matrix.csv").read_text().splitlines()[0]
        assert header == (
            "stage,mobile,desktop,web,"
            "text_mobile,text_desktop,text_web,"
            "icon_mobile,icon_desktop,icon_web"
        )

    def test_metrics_recomputable_from_files(self, tmp_path):
        cfg = parse_config(TINY)
        m, records, tasks = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records, tasks)
        stored = json.loads((tmp_path / "metrics.json").read_text())
        again = compute_metrics(
            read_matrix(tmp_path / "matrix.csv"), read_trainlog(tmp_path / "trainlog.csv")
        )
        assert math.isclose(stored["final_average"], again["final_average"], abs_tol=1e-12)
        for a, b in zip(stored["stage_averages"], again["stage_averages"]):
            assert math.isclose(a, b, abs_tol=1e-12)
        assert stored["forward_transfer"] == again["forward_transfer"]
        assert stored["forgetting"] == again["forgetting"]


class TestAblateCommand:
    def test_grid_outputs(self, tmp_path):
        doc = dict(TINY)
        doc.update({
            "steps_per_task": 4,
            "eval_episodes": 25,
            "seeds": [0, 1],
            "sweep": {"scale_points": [[1, 1]]},
        })
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "grid"
        assert main(["ablate", cfg, str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) - 1 == 4 * 2 * 1  # one row per cell
        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 4 * 2 * 1 * 2  # one dir per cell x seed

    def test_non_positive_scale_point_exits_2_naming_path(self, tmp_path, caplog):
        doc = {**TINY, "sweep": {"scale_points": [[1, 1], [0, 1]]}}
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 2
        assert "sweep.scale_points[1]" in caplog.text
        assert not out.exists()

    def test_summary_means_match_cell_runs(self, tmp_path):
        import csv as csv_mod

        doc = dict(TINY)
        doc.update({
            "steps_per_task": 4,
            "eval_episodes": 25,
            "seeds": [0, 1],
            "sweep": {"scale_points": [[1, 1]]},
        })
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 0
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv_mod.DictReader(f))
        for row in rows:
            finals = []
            for seed in (0, 1):
                m = read_matrix(out / f"{row['cell']}_s{seed}" / "matrix.csv")
                finals.append(m.overall[-1].mean())
            assert float(row["final_avg_mean"]) == pytest.approx(np.mean(finals), abs=1e-12)
            assert int(row["n_seeds"]) == 2

    def test_kl_off_cells_record_beta_zero(self, tmp_path):
        doc = dict(TINY)
        doc.update({
            "steps_per_task": 3,
            "eval_episodes": 20,
            "seeds": [0],
            "sweep": {"scale_points": [[1, 1]]},
        })
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 0
        for p in out.iterdir():
            if p.is_dir() and "_kl0_" in p.name:
                manifest = json.loads((p / "manifest.json").read_text())
                assert manifest["config"]["optim"]["beta"] == 0.0
                assert manifest["config"]["ablation"]["use_kl"] is False


class TestPlotCommand:
    def test_emits_three_svgs(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "run"
        assert main(["run", cfg, str(out)]) == 0
        assert main(["plot", str(out)]) == 0
        for name in ("rewards.svg", "trend.svg", "transfer.svg"):
            body = (out / name).read_text()
            assert body.startswith("<svg ") or body.startswith('<svg\n') or "<svg" in body.split("\n")[0]

    def test_scatter_point_count_matches_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "run"
        main(["run", cfg, str(out)])
        main(["plot", str(out)])
        n_rows = len((out / "trainlog.csv").read_text().splitlines()) - 1
        assert (out / "trend.svg").read_text().count("<circle") == n_rows

    def test_missing_inputs_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["plot", str(empty)]) == 2

    def test_empty_trainlog_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "run"
        main(["run", cfg, str(out)])
        (out / "trainlog.csv").write_text("step,task,correctness,apr,arr,r_aif,kl,objective\n")
        assert main(["plot", str(out)]) == 2


class TestVerifyCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 5

    def test_perturbed_center_spread_fails(self, monkeypatch, capsys):
        orig = rewards_mod.center_spread
        monkeypatch.setattr(rewards_mod, "center_spread", lambda g: 1.05 * orig(g))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  center-spread" in out

    def test_perturbed_bhattacharyya_fails(self, monkeypatch, capsys):
        orig = rewards_mod.bhattacharyya
        monkeypatch.setattr(rewards_mod, "bhattacharyya", lambda a, b: 1.1 * orig(a, b))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  bhattacharyya" in out

    def test_perturbed_region_separation_fails(self, monkeypatch, capsys):
        orig = rewards_mod.region_separation
        monkeypatch.setattr(
            rewards_mod, "region_separation",
            lambda g, k, e, lit=False: orig(g, k, e, lit) + 1e-6,
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  region-separation" in out
