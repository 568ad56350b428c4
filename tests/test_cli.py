import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anderson_lab.cli as cli
import anderson_lab.rng
from anderson_lab.cli import (
    COLUMNS,
    ExitStatus,
    check_expected,
    dispatch,
    scenario_from_config,
    validate,
)
from anderson_lab.experiments import ResultTable

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_config(**experiment):
    return {
        "scenario_id": "t",
        "measure": {"kind": "finite_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]], "alpha_moment": 1.0},
        "densities": {"kind": "identity"},
        "experiment": {"kind": "lyapunov", "n": 32, "energy": 3.0, **experiment},
        "sampling": {"seed": 5, "samples": 4},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_valid_config_passes():
    assert validate(base_config()) == []


def test_single_atom_without_escape_hatch():
    cfg = base_config()
    cfg["measure"]["atoms"] = [[5.0, 1.0]]
    violations = validate(cfg)
    assert any("non-trivial support" in v for v in violations)


def test_atom_weights_path_is_named():
    cfg = base_config()
    cfg["measure"]["atoms"] = [[-1.0, 0.5], [1.0, 0.4]]
    violations = validate(cfg)
    assert any(v.startswith("measure.atoms") for v in violations)


def test_pareto_moment_condition_is_checked():
    cfg = base_config()
    cfg["measure"] = {"kind": "pareto_tail", "scale": 1.0, "exponent": 0.9, "alpha_moment": 1.0}
    violations = validate(cfg)
    assert any("moment condition unsatisfiable" in v for v in violations)


def test_unknown_keys_are_rejected_everywhere():
    cfg = base_config()
    cfg["extra"] = 1
    cfg["sampling"]["turbo"] = True
    violations = validate(cfg)
    assert any(v.startswith("config.extra") for v in violations)
    assert any(v.startswith("sampling.turbo") for v in violations)


def test_seed_is_required():
    cfg = base_config()
    del cfg["sampling"]["seed"]
    assert any("sampling.seed" in v for v in validate(cfg))


def test_command_kind_mismatch_is_caught():
    violations = validate(base_config(), command_kind="census")
    assert any("command expects" in v for v in violations)


def test_grid_monotonicity():
    cfg = base_config()
    cfg["grids"] = {"n": [10, 10]}
    assert any("ascending" in v for v in validate(cfg))


def test_reweight_schedule_validation():
    cfg = base_config()
    cfg["densities"] = {"kind": "atom_reweight", "schedule": {"0": [0.9, 0.2]}}
    assert any("sum to 1" in v for v in validate(cfg))


# ---------------------------------------------------------------------------
# dispatch basics
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_1_with_usage(capsys):
    code = dispatch(["frobnicate"])
    assert code == ExitStatus.VALIDATION
    err = capsys.readouterr().err
    assert "usage:" in err


def test_unknown_flag_exits_1(capsys):
    code = dispatch(["lyapunov", "--config", "x.json", "--frobnicate"])
    assert code == ExitStatus.VALIDATION
    assert "usage:" in capsys.readouterr().err


def test_dispatches_share_one_parser_across_usage_errors(capsys, monkeypatch):
    # built on the first dispatch, and a usage error leaves it reusable
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        valid = ["lyapunov", "--config", str(CONFIG_DIR / "constant_lyapunov.json")]
        assert dispatch(valid) == ExitStatus.OK
        assert dispatch(["lyapunov", "--config", "x.json", "--frobnicate"]) == ExitStatus.VALIDATION
        assert dispatch(["frobnicate"]) == ExitStatus.VALIDATION
        assert dispatch(valid) == ExitStatus.OK
        assert "usage:" in capsys.readouterr().err
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_cli_import_builds_no_parser():
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", "import anderson_lab.cli as c; print(c._parser.cache_info().misses)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"


def test_missing_config_file_exits_1(capsys):
    code = dispatch(["lyapunov", "--config", "/nonexistent/cfg.json"])
    assert code == ExitStatus.VALIDATION
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_exits_1_before_any_draw(tmp_path, capsys, monkeypatch):
    draws = []
    original = anderson_lab.rng.RngStream.generator

    def counting(self):
        draws.append(self)
        return original(self)

    monkeypatch.setattr(anderson_lab.rng.RngStream, "generator", counting)
    cfg = base_config()
    cfg["measure"]["atoms"] = [[1.0, 0.7], [2.0, 0.7]]
    code = dispatch(["lyapunov", "--config", write_config(tmp_path, cfg)])
    assert code == ExitStatus.VALIDATION
    assert "invalid config" in capsys.readouterr().err
    assert draws == []


def test_constant_potential_closed_form_through_the_cli(capsys):
    code = dispatch(["lyapunov", "--config", str(CONFIG_DIR / "constant_lyapunov.json")])
    assert code == ExitStatus.OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header == ",".join(COLUMNS["lyapunov"])
    mean = float(row.split(",")[7])
    assert mean == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-10)


def test_conditions_subcommand_verdicts(capsys):
    code = dispatch(["conditions", "--config", str(CONFIG_DIR / "bumps_conditions.json"), "--format", "json"])
    assert code == ExitStatus.OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["mean_log_sup_verdict"] == "holds-empirically"
    assert payload["summary"]["summable_log_sup_verdict"] == "violated"


def test_headers_match_the_documented_column_sets(tmp_path, capsys):
    e_grid = [round(-0.5 + 0.1 * k, 10) for k in range(11)]
    cases = {
        "lyapunov": base_config(),
        "spectrum": {
            **base_config(),
            "experiment": {"kind": "spectrum", "box": [-20, 20]},
        },
        "edge-census": {
            **base_config(),
            "measure": {"kind": "pareto_tail", "scale": 1.0, "exponent": 1.2, "alpha_moment": 1.0},
            "experiment": {"kind": "edge_census", "p": 2.0, "r": 2.0},
            "grids": {"n": [4, 8]},
            "sampling": {"seed": 2, "samples": 50},
        },
        "conditions": {
            **base_config(),
            "experiment": {"kind": "conditions", "n_max": 64, "k_max": 8},
        },
        "lde": {
            **base_config(),
            "experiment": {"kind": "lde", "energy": 0.0, "epsilon": 0.2},
            "grids": {"n": [8, 16]},
            "sampling": {"seed": 3, "samples": 200},
        },
        "lift-check": {
            **base_config(),
            "experiment": {"kind": "lift_check", "energy": 0.0, "epsilon": 0.2},
            "grids": {"n": [8, 16]},
            "sampling": {"seed": 3, "samples": 200},
        },
        "census": {
            **base_config(),
            "experiment": {"kind": "census", "interval": [-0.5, 0.5],
                           "gamma_n": 200, "gamma_samples": 8},
            "grids": {"energy": e_grid, "n": [5, 10]},
            "sampling": {"seed": 3, "samples": 1},
        },
        "localize": {
            **base_config(),
            "experiment": {"kind": "localize", "interval": [-0.5, 0.5], "box": [-100, 99],
                           "gamma_n": 200, "gamma_samples": 8},
            "grids": {"energy": e_grid, "n": [5, 10]},
            "sampling": {"seed": 3, "samples": 1},
        },
        "craig-simon": {
            **base_config(),
            "experiment": {"kind": "craig_simon", "gamma_n": 100, "gamma_samples": 4},
            "grids": {"energy": [-1.0, 0.0, 1.0], "n": [50]},
            "sampling": {"seed": 3, "samples": 1},
        },
    }
    assert set(cases) == set(COLUMNS)
    for command, cfg in cases.items():
        code = dispatch([command, "--config", write_config(tmp_path, cfg, f"{command}.json")])
        assert code == ExitStatus.OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ",".join(COLUMNS[command])


def test_seed_override_changes_the_output(tmp_path, capsys):
    cfg = {
        **base_config(),
        "experiment": {"kind": "spectrum", "box": [-10, 10]},
    }
    path = write_config(tmp_path, cfg)
    dispatch(["spectrum", "--config", path])
    first = capsys.readouterr().out
    dispatch(["spectrum", "--config", path, "--seed", "99"])
    second = capsys.readouterr().out
    assert first != second
    dispatch(["spectrum", "--config", path, "--seed", "5"])
    assert capsys.readouterr().out == first


def test_out_directory_gets_csv_json_manifest(tmp_path, capsys):
    code = dispatch([
        "lyapunov", "--config", str(CONFIG_DIR / "constant_lyapunov.json"),
        "--out", str(tmp_path),
    ])
    assert code == ExitStatus.OK
    assert (tmp_path / "constant_lyapunov.csv").exists()
    assert (tmp_path / "constant_lyapunov.json").exists()
    manifest = json.loads((tmp_path / "constant_lyapunov.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert capsys.readouterr().out == ""  # data went to files, not stdout


@pytest.mark.parametrize("scenario_id", ["constant_lyapunov", "run.v2"])
def test_out_names_every_file_after_the_scenario(tmp_path, scenario_id):
    # a directory DIR/<id>/ does not turn DIR/<id>.csv into DIR/<id>/<kind>.csv,
    # and a dot in the id is not taken for a suffix
    cfg = json.loads((CONFIG_DIR / "constant_lyapunov.json").read_text())
    cfg["scenario_id"] = scenario_id
    out = tmp_path / "out"
    (out / scenario_id).mkdir(parents=True)
    assert dispatch(["lyapunov", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir() if p.is_file()}
    assert names == {f"{scenario_id}{ext}" for ext in (".csv", ".json", ".manifest.json")}
    assert not any((out / scenario_id).iterdir())


@pytest.mark.parametrize("scenario_id", ["../escaped", "sub/escaped", "sub\\escaped", "..", ".", ""])
def test_a_scenario_id_that_leaves_out_is_rejected(tmp_path, capsys, monkeypatch, scenario_id):
    # --out DIR joins the id to DIR, so an id with a separator or a '..'
    # part would write outside DIR, and '.' or '' would write DIR.csv beside
    # it: exit 1 at scenario_id, no draw, no file
    draws = []
    original = anderson_lab.rng.RngStream.generator

    def counting(self):
        draws.append(self)
        return original(self)

    monkeypatch.setattr(anderson_lab.rng.RngStream, "generator", counting)
    cfg = json.loads((CONFIG_DIR / "constant_lyapunov.json").read_text())
    cfg["scenario_id"] = scenario_id
    (tmp_path / "in").mkdir()
    config = write_config(tmp_path / "in", cfg)
    out = tmp_path / "run" / "out"
    code = dispatch(["lyapunov", "--config", config, "--out", str(out)])
    assert code == ExitStatus.VALIDATION
    assert "scenario_id: must be a string with no '/'" in capsys.readouterr().err
    assert draws == []
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "in", "in/cfg.json",
    ]


def test_workers_do_not_change_csv_bytes(tmp_path):
    cfg = base_config()
    cfg["experiment"] = {"kind": "lyapunov", "n": 128, "energy": 0.5}
    cfg["sampling"] = {"seed": 12, "samples": 9000}
    path = write_config(tmp_path, cfg)
    outputs = {}
    for workers in (1, 4):
        out_dir = tmp_path / f"w{workers}"
        assert dispatch(["lyapunov", "--config", path, "--workers", str(workers), "--out", str(out_dir)]) == 0
        outputs[workers] = (out_dir / "t.csv").read_bytes()
    assert outputs[1] == outputs[4]



def test_lift_check_csv_bytes_do_not_depend_on_workers(tmp_path):
    # three batches, each drawn once over [-16, 16] for the whole radius grid
    cfg = base_config()
    cfg["densities"] = {"kind": "atom_reweight", "schedule": {"0": [0.75, 0.25], "3": [0.25, 0.75]}}
    cfg["experiment"] = {"kind": "lift_check", "energy": 0.0, "epsilon": 0.2}
    cfg["grids"] = {"n": [4, 8, 16]}
    cfg["sampling"] = {"seed": 13, "samples": 9000}
    path = write_config(tmp_path, cfg)
    outputs = {}
    for workers in (1, 2, 4):
        out_dir = tmp_path / f"w{workers}"
        assert dispatch(["lift-check", "--config", path, "--workers", str(workers), "--out", str(out_dir)]) == 0
        outputs[workers] = (out_dir / "t.csv").read_bytes()
    assert outputs[1] == outputs[2] == outputs[4]

# ---------------------------------------------------------------------------
# pinned expectations
# ---------------------------------------------------------------------------

def test_assert_mode_turns_mismatch_into_exit_3(tmp_path, capsys):
    cfg = base_config()
    cfg["expected"] = {"metrics": {"mean": {"value": 0.0, "abs_tol": 1e-6}}}
    path = write_config(tmp_path, cfg)
    code = dispatch(["lyapunov", "--config", path, "--assert"])
    assert code == ExitStatus.ASSERTION
    assert "expectation failed" in capsys.readouterr().err
    # without --assert the same mismatch is only a warning
    code = dispatch(["lyapunov", "--config", path])
    assert code == ExitStatus.OK
    assert "expectation warning" in capsys.readouterr().err


def test_check_expected_rules():
    metrics = {"mean": 1.0, "count": 7}
    ok = {"metrics": {"mean": {"value": 1.0, "abs_tol": 0.1}, "count": {"min": 5, "max": 10}}}
    assert check_expected(metrics, ok) == []
    bad = {"metrics": {"count": {"max": 6}, "missing": {"min": 0}}}
    failures = check_expected(metrics, bad)
    assert len(failures) == 2


def test_a_null_pinned_metric_is_reported_as_null():
    # a census with no clear radius reports zero_from as null, not missing
    table = ResultTable("census", (), (), {"zero_from": None, "max_count": 4})
    assert table.metrics() == {"zero_from": None, "max_count": 4}
    spec = {"metrics": {
        "zero_from": {"max": 40}, "max_count": {"max": 4}, "absent": {"min": 0},
    }}
    assert check_expected(table.metrics(), spec) == [
        "zero_from: got None, expected <= 40",
        "expected metric 'absent' missing from results",
    ]
    pinned = {"metrics": {"zero_from": {"value": 40, "abs_tol": 0}}}
    assert check_expected(table.metrics(), pinned) == ["zero_from: got None, expected 40 +- 0"]


def test_scenario_from_config_wiring():
    sc = scenario_from_config(base_config())
    assert sc.kind == "lyapunov"
    assert sc.n_grid == (32,)
    assert sc.seed == 5
    assert sc.law_tag == "exact"


def test_missing_grids_fail_validation():
    cfg = base_config()
    cfg["experiment"] = {"kind": "census", "interval": [-0.5, 0.5]}
    assert any(v.startswith("grids") for v in validate(cfg))
    cfg["experiment"] = {"kind": "lde", "energy": 0.0, "epsilon": 0.1}
    assert any(v.startswith("grids.n") for v in validate(cfg))


def test_workers_env_variable_is_the_default(monkeypatch):
    monkeypatch.setenv("ANDERSON_LAB_WORKERS", "6")
    cfg = base_config()
    assert scenario_from_config(cfg).workers == 6
    cfg["sampling"]["workers"] = 2  # config beats the environment
    assert scenario_from_config(cfg).workers == 2
    # an explicit override beats both
    assert scenario_from_config(cfg, workers=3).workers == 3


_SCIPY_BLOCKED_RUN = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import numpy as np
from anderson_lab.cli import dispatch
from anderson_lab.measures import PotentialWindow
from anderson_lab.spectral import TridiagonalBox, green

code = dispatch(["localize", "--config", sys.argv[1]])
box = TridiagonalBox(PotentialWindow(-2, 2, np.array([0.5, -1.0, 0.0, 2.0, 0.3])))
green(box, 0.17, -1, 1, "direct_solve")
print(code, "scipy" in sys.modules)
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # a whole localize run and a direct-solve Green's function never import scipy
    cfg = json.loads((CONFIG_DIR / "localize_bumps.json").read_text())
    cfg["grids"]["n"] = [10, 20]
    cfg["experiment"].update(gamma_n=200, gamma_samples=20)
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_RUN, write_config(tmp_path, cfg)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def test_conditions_run_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call; the condition grid drops
    # its repeats without it
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = (
        "import sys; from anderson_lab.cli import dispatch; "
        "code = dispatch(['conditions', '--config', sys.argv[1]]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", run, str(CONFIG_DIR / "bumps_conditions.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def test_csv_digests_list_every_shipped_config_once():
    # sha256sum -c checks only the files it lists, so a config left out of
    # configs/csv.sha256 would go unchecked
    lines = (CONFIG_DIR / "csv.sha256").read_text().splitlines()
    digests = [line.split("  ") for line in lines]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d, _ in digests)
    assert [name for _, name in digests] == sorted(
        f"{path.stem}.csv" for path in CONFIG_DIR.glob("*.json")
    )
