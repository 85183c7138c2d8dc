import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guiflux.cli import main
from guiflux.config import load_config, parse_config, render_config
from guiflux.errors import ConfigError
from guiflux.harness import RunConfig, ablate, run_continual, scale_label
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
TWO_SEED_GRID = {
    **TINY,
    "steps_per_task": 4,
    "eval_episodes": 25,
    "seeds": [0, 1],
    "sweep": {"scale_points": [[1, 1]]},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FUZZ_DOC = {
    "scenario": "domain_flux",
    "steps_per_task": 3,
    "eval_episodes": 10,
    "seeds": [0, 2],
    "optim": {"beta": 0.04, "lr": 0.001, "n_samples": 4},
    "reward": {"alpha": 15.0, "gamma": 0.5, "correctness_kind": "iou"},
    "sweep": {"scale_points": [[1, 1], [2.0, 0.5]]},
    "simulator": {"overrides": {"mobile": {
        "noise_sigma": 0.01, "size_mean": 0.1, "matrix": [[1, 0], [0, 1]], "offset": [0.1, 0.0],
    }}},
}


def _node_paths(node, prefix=()):
    """The path of every node below `node`: sections, lists, list elements, leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _node_paths(v, prefix + (k,))


FUZZ_KEYS = sorted({p[-1] for p in _node_paths(FUZZ_DOC) if isinstance(p[-1], str)})
# Hostile atoms, and lists and objects of them nested a few levels deep,
# e.g. [true, 1] or {"alpha": [null]}; object keys are the document's own.
HOSTILE = st.recursive(
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 1, 0.5, "x", "0.5", None, True, False]),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=2)
    ),
    max_leaves=5,
)


def _leaves(node, prefix=()):
    """(path, value) of every leaf below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        if isinstance(v, (dict, list, tuple)):
            yield from _leaves(v, prefix + (k,))
        else:
            yield prefix + (k,), v


def _floats(obj):
    """Every float reachable from a (nested) config value."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats(v)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _floats(getattr(obj, name))


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

    def test_every_unknown_key_in_one_error(self):
        doc = {"stepz": 1, "optim": {"bogus": 1}, "reward": {"bogus2": 1}, "sweep": {"x": 1}}
        with pytest.raises(
            ConfigError, match=r"^unknown config keys: optim\.bogus, reward\.bogus2, stepz, sweep\.x$"
        ):
            parse_config(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, caplog):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "o"
        assert main(["run", str(path), str(out)]) == 2
        assert str(path) in caplog.text and "UTF-8" in caplog.text
        assert not out.exists()

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
            "sweep": {"scale_points": [[1, 1], [2, 1]]},
            "simulator": {"overrides": {"normal": {
                "noise_sigma": 0.0, "matrix": [[1, 0.1], [-0.1, 1]], "offset": [0.05, 0],
            }}},
        }
        cfg = load_config(write_cfg(tmp_path, doc))
        assert parse_config(render_config(cfg)) == cfg
        assert json.loads(json.dumps(render_config(cfg))) == render_config(cfg)
        # every override number is echoed as the float the run used
        assert all(type(v) is float for _, v in _leaves(render_config(cfg)["simulator"]))

    @pytest.mark.parametrize("section, key, value", [
        ("optim", "lr", 0),
        ("optim", "n_samples", 0),
        ("reward", "alpha", -1),
        ("reward", "correctness_kind", "dice"),
    ])
    def test_validation_error_names_section(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\..*\b{key}\b"):
            parse_config({section: {key: value}})

    def test_readme_config_block_matches_defaults(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Config file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        cfg = parse_config(doc)
        assert cfg == RunConfig(sim_overrides=doc["simulator"]["overrides"])

        def key_sets(d):
            return {k: set(v) if isinstance(v, dict) else None for k, v in d.items()}

        assert key_sets(doc) == key_sets(render_config(RunConfig()))

    @pytest.mark.parametrize("section, key, value", [
        ("optim", "ref_refresh", "per_step"),
        ("optim", "inner_epochs", 2),
        ("optim", "init_log_std", -1.6),
        ("optim", "init_log_std_size", -0.5),
        ("optim", "init_size", 0.2),
        ("reward", "literal_variance", True),
        ("reward", "kappa", 1.0),
        ("reward", "eps_min", 1e-8),
        ("reward", "tau", 0.1),
    ])
    def test_removed_knobs_are_unknown_keys(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"unknown config keys: {section}\.{key}$"):
            parse_config({section: {key: value}})

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_node_paths(FUZZ_DOC))), value=HOSTILE)
    @example(path=("sweep", "scale_points", 0), value=[True, 1])
    @example(path=("scenario",), value=[])
    @example(path=("simulator", "overrides", "mobile", "offset", 0), value="0.1")
    def test_fuzzed_subtree_is_rejected_or_finite(self, path, value):
        """Any one node of a valid document (a section, a list, one list
        element or a leaf) replaced by a hostile value either raises
        ConfigError or parses into a RunConfig with only finite floats. A
        document that holds a JSON boolean anywhere is never accepted, nor
        one that holds a string where the config expects no string."""
        doc = json.loads(json.dumps(FUZZ_DOC))
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
        leaves = dict(_leaves(doc))
        assert not any(type(v) is bool for v in leaves.values()), (path, value)
        strings = {p for p, v in leaves.items() if isinstance(v, str)}
        assert strings <= {("scenario",), ("reward", "correctness_kind")}, (path, value)
        assert all(math.isfinite(x) for x in _floats(cfg)), (path, value)

    def test_deeply_nested_file_exits_2_naming_it(self, tmp_path, caplog):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        out = tmp_path / "o"
        assert main(["run", str(path), str(out)]) == 2
        assert str(path) in caplog.text
        assert not out.exists()


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

    @pytest.mark.parametrize("fragment, path", [
        ({"optim": {"lr": math.nan}}, "optim.lr"),
        ({"optim": {"beta": math.inf}}, "optim.beta"),
        ({"reward": {"alpha": math.inf}}, "reward.alpha"),
        ({"simulator": {"overrides": {"mobile": {"noise_sigma": math.nan}}}},
         "simulator.overrides.mobile"),
    ])
    def test_non_finite_value_exits_2_naming_path(self, tmp_path, caplog, fragment, path):
        # json.dumps writes NaN/Infinity, which Python's json also parses
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, {**TINY, **fragment}), str(out)]) == 2
        assert path in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("override, path", [
        ({"noise_sigma": True}, "simulator.overrides.mobile.noise_sigma"),
        ({"text_fraction": False}, "simulator.overrides.mobile.text_fraction"),
        ({"matrix": [[1, 0], [0, True]]}, "simulator.overrides.mobile.matrix"),
        ({"offset": [False, 0.0]}, "simulator.overrides.mobile.offset"),
    ])
    def test_boolean_override_exits_2_naming_path(self, tmp_path, caplog, override, path):
        doc = {**TINY, "simulator": {"overrides": {"mobile": override}}}
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, doc), str(out)]) == 2
        assert path in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("override, path", [
        ({"offset": ["0.1", "0.2"]}, "simulator.overrides.mobile.offset[0]"),
        ({"matrix": [["1", "0"], ["0", "1"]]}, "simulator.overrides.mobile.matrix[0][0]"),
        ({"size_mean": None}, "simulator.overrides.mobile.size_mean"),
        ({"size_mean": "0.1"}, "simulator.overrides.mobile.size_mean"),
    ])
    def test_non_numeric_override_exits_2_naming_leaf(self, tmp_path, caplog, override, path):
        doc = {**TINY, "simulator": {"overrides": {"mobile": override}}}
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, doc), str(out)]) == 2
        assert f"{path}: expected a finite number" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("fragment, path", [
        ({"steps_per_task": -1}, "steps_per_task"),
        ({"optim": {"lr": 0}}, "optim.lr"),
        ({"reward": {"gamma": -1}}, "reward.gamma"),
        ({"simulator": {"overrides": {"phone": {"noise_sigma": 0.0}}}}, "simulator.overrides.phone"),
        *(
            ({"simulator": {"overrides": {"mobile": {field: value}}}},
             f"simulator.overrides.mobile.{field}")
            for field, value in [
                ("colour", 1.0),
                ("index", 1),
                ("noise_sigma", -1),
                ("matrix", [[1, 0], [0]]),
                ("offset", 0.5),
                ("size_mean", []),
                ("text_fraction", 1.5),
            ]
        ),
    ])
    def test_value_error_starts_with_its_path(self, tmp_path, caplog, fragment, path):
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, {**TINY, **fragment}), str(out)]) == 2
        assert caplog.records[-1].getMessage().startswith(f"{path}: ")
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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_learning_rate_exits_3(self, tmp_path, caplog):
        # the first gradient is finite; W + lr * dW is not
        doc = {**TINY, "optim": {"lr": 1e308}}
        assert main(["run", write_cfg(tmp_path, doc), str(tmp_path / "o")]) == 3
        assert "numerical abort" in caplog.text

    def test_numerical_abort_exits_3(self, tmp_path, monkeypatch):
        from guiflux import cli as cli_mod
        from guiflux.policy import NumericalAbort

        def boom(cfg, seed=None):
            raise NumericalAbort("synthetic abort")

        monkeypatch.setattr(cli_mod.harness, "run_continual", boom)
        cfg = write_cfg(tmp_path, TINY)
        assert main(["run", cfg, str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, sub", [
        ("run", ""), ("ablate", ""), ("run", "sub"), ("ablate", "sub"),
    ], ids=["run", "ablate", "run-under-file", "ablate-under-file"])
    def test_out_dir_that_is_a_file_exits_2_before_training(
        self, tmp_path, monkeypatch, caplog, command, sub
    ):
        def never(cfg, seed=None):
            raise AssertionError("trained although out_dir cannot be a directory")

        monkeypatch.setattr("guiflux.harness.run_continual", never)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main([command, write_cfg(tmp_path, TINY), str(taken / sub)]) == 2
        assert str(taken) in caplog.text


class TestPersistenceRoundTrip:
    def test_matrix_exact(self, tmp_path):
        cfg = parse_config(TINY)
        m, records = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records)
        back = read_matrix(tmp_path / "matrix.csv")
        assert np.array_equal(back.overall, m.overall)
        assert np.array_equal(back.text, m.text)
        assert np.array_equal(back.icon, m.icon)
        assert back.task_names == m.task_names
        assert back.stage_labels == m.stage_labels

    def test_matrix_nan_round_trip(self, tmp_path):
        cfg = parse_config({**TINY, "simulator": {"overrides": {"web": {"text_fraction": 0.0}}}})
        m, records = run_continual(cfg, seed=0)
        assert np.isnan(m.text[:, 2]).all()
        write_run(tmp_path, cfg, 0, m, records)
        back = read_matrix(tmp_path / "matrix.csv")
        assert np.array_equal(back.text, m.text, equal_nan=True)
        assert np.array_equal(back.icon, m.icon)

    def test_trainlog_exact(self, tmp_path):
        cfg = parse_config(TINY)
        m, records = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records)
        back = read_trainlog(tmp_path / "trainlog.csv")
        assert back == records

    def test_trainlog_header_contract(self, tmp_path):
        cfg = parse_config(TINY)
        m, records = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records)
        header = (tmp_path / "trainlog.csv").read_text().splitlines()[0]
        assert header == "step,task,correctness,apr,arr,r_aif,kl,objective"

    def test_matrix_header_contract(self, tmp_path):
        cfg = parse_config(TINY)
        m, records = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records)
        header = (tmp_path / "matrix.csv").read_text().splitlines()[0]
        assert header == (
            "stage,mobile,desktop,web,"
            "text_mobile,text_desktop,text_web,"
            "icon_mobile,icon_desktop,icon_web"
        )

    def test_metrics_recomputable_from_files(self, tmp_path):
        cfg = parse_config(TINY)
        m, records = run_continual(cfg, seed=0)
        write_run(tmp_path, cfg, 0, m, records)
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

    @pytest.mark.parametrize("reward, scale_points", [
        ({}, [[1e308, 1]]),
        ({"gamma": 10}, [[1, 1e308]]),
    ], ids=["alpha", "gamma"])
    def test_overflowing_scale_point_exits_2_naming_path(
        self, tmp_path, caplog, reward, scale_points
    ):
        doc = {**TINY, "reward": reward, "sweep": {"scale_points": scale_points}}
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 2
        assert "sweep.scale_points[0]" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("scale_points", [
        [[1, 1], [2, 1], [1, 1]],
        [[1, 1], [2, 1], [1.0000001, 1]],  # both label their cells a1_g1
    ], ids=["exact", "same_label"])
    def test_colliding_scale_points_exit_2_naming_path(self, tmp_path, caplog, scale_points):
        doc = {**TINY, "sweep": {"scale_points": scale_points}}
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 2
        assert "sweep.scale_points[2]" in caplog.text and "sweep.scale_points[0]" in caplog.text
        assert not out.exists()

    def test_duplicate_seeds_exit_2_naming_seeds(self, tmp_path, caplog):
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, {**TINY, "seeds": [0, 1, 0]}), str(out)]) == 2
        assert "seeds" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("scale_points", [[], {}])
    def test_empty_scale_points_exits_2_naming_path(self, tmp_path, caplog, scale_points):
        doc = {**TINY, "sweep": {"scale_points": scale_points}}
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 2
        assert "sweep.scale_points" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("scale_points, path", [
        ([[True, 1]], "sweep.scale_points[0]"),
        ([[1, 1], [2, True]], "sweep.scale_points[1]"),
    ])
    def test_boolean_scale_point_exits_2_naming_path(self, tmp_path, caplog, scale_points, path):
        doc = {**TINY, "sweep": {"scale_points": scale_points}}
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, doc), str(out)]) == 2
        assert path in caplog.text
        assert not out.exists()

    @pytest.fixture(scope="class")
    def two_seed_grid(self, tmp_path_factory):
        """A seeds-[0, 1] grid at scale point (1, 1): 8 cells, 16 run dirs."""
        tmp = tmp_path_factory.mktemp("two_seed_grid")
        out = tmp / "grid"
        assert main(["ablate", write_cfg(tmp, TWO_SEED_GRID), str(out)]) == 0
        return out

    def test_summary_means_match_cell_runs(self, two_seed_grid):
        with open(two_seed_grid / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        cells = ablate(parse_config(TWO_SEED_GRID))
        assert [row["cell"] for row in rows] == [c.cell_id for c in cells]
        for row in rows:
            finals = np.array([
                read_matrix(two_seed_grid / f"{row['cell']}_s{seed}" / "matrix.csv").final_average()
                for seed in (0, 1)
            ])
            assert row["final_avg_mean"] == repr(float(finals.mean()))
            assert row["final_avg_std"] == repr(float(finals.std()))
            assert int(row["n_seeds"]) == 2
            label = scale_label(float(row["alpha_scale"]), float(row["gamma_scale"]))
            assert row["cell"] == f"{row['variant']}_kl{row['use_kl']}_{label}"

    @pytest.mark.parametrize("k", [1, 5])
    def test_abort_in_run_k_keeps_the_finished_runs(
        self, two_seed_grid, tmp_path, monkeypatch, caplog, k
    ):
        from guiflux import cli as cli_mod
        from guiflux.policy import NumericalAbort

        run_continual = cli_mod.harness.run_continual
        calls = []

        def abort_kth(cfg, seed=None):
            calls.append(seed)
            if len(calls) == k:
                raise NumericalAbort("synthetic abort")
            return run_continual(cfg, seed=seed)

        monkeypatch.setattr(cli_mod.harness, "run_continual", abort_kth)
        out = tmp_path / "grid"
        assert main(["ablate", write_cfg(tmp_path, TWO_SEED_GRID), str(out)]) == 3
        assert "synthetic abort" in caplog.text
        runs = [f"{c.cell_id}_s{s}" for c in ablate(parse_config(TWO_SEED_GRID)) for s in (0, 1)]
        assert sorted(p.name for p in out.iterdir()) == sorted(runs[: k - 1])
        for run_id in runs[: k - 1]:
            for name in ("matrix.csv", "trainlog.csv"):
                assert (out / run_id / name).read_bytes() == (
                    two_seed_grid / run_id / name
                ).read_bytes(), (run_id, name)

    @pytest.fixture(scope="class")
    def small_grid(self, tmp_path_factory):
        """A seed-1 grid at scale points (1, 1) and (2, 1): 16 cell run dirs."""
        tmp = tmp_path_factory.mktemp("small_grid")
        doc = {
            **TINY,
            "steps_per_task": 3,
            "eval_episodes": 20,
            "seeds": [1],
            "sweep": {"scale_points": [[1, 1], [2, 1]]},
        }
        out = tmp / "grid"
        assert main(["ablate", write_cfg(tmp, doc), str(out)]) == 0
        cells = {p.name: p for p in out.iterdir() if p.is_dir()}
        assert len(cells) == 4 * 2 * 2
        return cells

    def test_kl_off_cells_record_beta_zero(self, small_grid):
        # a cell's variant, KL switch and scale point are recorded as its weights
        base = parse_config({})

        def recorded(run_id):
            return json.loads((small_grid[run_id] / "manifest.json").read_text())["config"]

        for run_id in small_grid:
            beta = recorded(run_id)["optim"]["beta"]
            assert beta == (0.0 if "_kl0_" in run_id else base.optim.beta)
        assert recorded("apr_only_kl1_a1_g1_s1")["reward"]["gamma"] == 0.0
        assert recorded("full_kl1_a2_g1_s1")["reward"]["alpha"] == 2 * base.reward.alpha

    def test_cell_manifest_config_reruns_byte_identical(self, small_grid, tmp_path):
        for run_id, cell in small_grid.items():
            manifest = json.loads((cell / "manifest.json").read_text())
            cfg = write_cfg(tmp_path, manifest["config"], name=f"{run_id}.json")
            out = tmp_path / run_id
            assert main(["run", cfg, str(out), "--seed", str(manifest["master_seed"])]) == 0
            for name in ("matrix.csv", "trainlog.csv"):
                assert (out / name).read_bytes() == (cell / name).read_bytes(), (run_id, name)


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

    def test_joint_run_plots_empty_transfer(self, tmp_path):
        # a joint run trains every task at stage 1: nothing is left to transfer to
        out = tmp_path / "run"
        assert main(["run", write_cfg(tmp_path, {**TINY, "scenario": "joint"}), str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["forward_transfer"] == []
        assert main(["plot", str(out)]) == 0
        body = (out / "transfer.svg").read_text()
        assert body.count("<rect") == 2  # background and frame, no bars

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

    @pytest.mark.parametrize("name,content", [
        ("trainlog.csv", "step,task,reward\n0,0,1.0\n"),
        ("trainlog.csv", "step,task,correctness,apr,arr,r_aif,kl,objective\n0,0,1.0\n"),
        ("trainlog.csv", "step,task,correctness,apr,arr,r_aif,kl,objective\n0,0,1,1,1,1,1,1,1\n"),
        ("matrix.csv", "stage,mobile,text_mobile,icon_mobile\nuntrained,x,0.5,0.5\n"),
    ], ids=["bad_header", "short_row", "long_row", "non_numeric_cell"])
    def test_damaged_input_exits_2_naming_file(self, tmp_path, caplog, name, content):
        out = tmp_path / "run"
        assert main(["run", write_cfg(tmp_path, TINY), str(out)]) == 0
        (out / name).write_text(content)
        assert main(["plot", str(out)]) == 2
        assert str(out / name) in caplog.text

    def test_unwritable_plot_exits_2_naming_file(self, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["run", write_cfg(tmp_path, TINY), str(out)]) == 0
        (out / "rewards.svg").mkdir()
        assert main(["plot", str(out)]) == 2
        assert str(out / "rewards.svg") in caplog.text
