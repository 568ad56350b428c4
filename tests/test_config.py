"""The config schema: one field table, construction as validation, and the
CLI contract that an invalid config exits 1, names the path at fault and
draws no random number."""
import contextlib
import copy
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anderson_lab.rng
from anderson_lab import cli
from anderson_lab.cli import COLUMNS, ExitStatus, dispatch, scenario_from_config, validate
from anderson_lab.experiments import EDGE_CENSUS_COLUMNS, edge_bound_census

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BERNOULLI = {"kind": "finite_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]], "alpha_moment": 1.0}
BUMPS = {"kind": "bump", "sites": {"kind": "powers_of_two"}, "weights": [0.75, 0.25]}
NARROW_GRID = {"energy": [-0.1, 0.0, 0.1], "n": [5]}
MESSAGE = re.compile(
    r"^(?:(?:config|scenario_id|measure|densities|experiment|grids|sampling|output|expected)"
    r"(?:[.\[][^:]*)?|--seed|--workers|ANDERSON_LAB_WORKERS): "
)


def smoke(kind, experiment, **sections):
    """A per-kind config small enough to run in a fraction of a second."""
    return {
        "scenario_id": f"smoke_{kind}",
        "measure": copy.deepcopy(BERNOULLI),
        "densities": {"kind": "identity"},
        "experiment": {"kind": kind, **experiment},
        "sampling": {"seed": 7, "samples": 16},
        **copy.deepcopy(sections),
    }


SMOKE = {
    "lyapunov": smoke(
        "lyapunov", {"n": 16, "energy": 0.5},
        expected={"metrics": {"mean": {"min": 0.0}, "stderr": {"value": 0.0, "abs_tol": 1.0}}},
    ),
    "lde": smoke("lde", {"energy": 0.0, "epsilon": 0.5}, grids={"n": [4, 8]}),
    "lift-check": smoke(
        "lift_check", {"energy": 0.0, "epsilon": 0.5, "statistic": "log_det"},
        densities=BUMPS, grids={"n": [4, 8]},
    ),
    "conditions": smoke(
        "conditions", {"n_max": 16, "k_max": 2},
        densities={"kind": "atom_reweight", "schedule": {"1": [0.75, 0.25]}},
    ),
    "localize": smoke(
        "localize", {"interval": [-0.1, 0.1], "box": [-100, 99], "gamma_n": 40, "gamma_samples": 4},
        grids=NARROW_GRID,
    ),
    "census": smoke(
        "census", {"interval": [-0.1, 0.1], "gamma_n": 40, "gamma_samples": 4},
        densities=BUMPS, grids=NARROW_GRID,
    ),
    "edge-census": smoke(
        "edge_census", {"p": 2.0, "r": 2.0},
        measure={"kind": "pareto_tail", "scale": 1.0, "exponent": 1.5, "alpha_moment": 1.0},
        grids={"n": [4, 8]},
    ),
    "craig-simon": smoke(
        "craig_simon", {"gamma_n": 40, "gamma_samples": 4},
        grids={"energy": [-1.0, 1.0], "n": [20]},
    ),
    "spectrum": smoke(
        "spectrum", {"box": [-10, 10]},
        measure={"kind": "uniform_interval", "lo": -1.0, "hi": 1.0, "alpha_moment": 2.0},
        output={"format": "json"},
    ),
}

#: keys that some kind reads, added where the smoke config's kind may not
EXTRA_PATHS = (
    ("config", "extra"), ("experiment", "box"), ("experiment", "gamma_n"), ("experiment", "u"),
    ("experiment", "statistic"), ("grids", "energy"), ("measure", "symmetric"),
    ("sampling", "workers"), ("expected",),
)
#: (flags, ANDERSON_LAB_WORKERS); most runs take neither
OVERRIDES = (((), None),) * 6 + (
    (("--seed", "-1"), None), (("--seed", "3"), None), (("--workers", "0"), None),
    (("--workers", "2"), None), ((), "abc"), ((), "0"), ((), "2"),
)
#: small valid values first, then wrong types, bools, null, zero, negatives
VALUES = (
    2, 1, 0.5, 1.5, 2.0, [1, 2], [0.0, 1.0], [-2, 2], "log_det", {"kind": "identity"},
    "abc", True, False, None, 0, 0.0, -1, -5, [], {}, [[1.0, 1.0]], "matrix_element",
)


def key_paths(node, prefix=()):
    """Every key and list index path in a config."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutated(config, path, value):
    cfg = copy.deepcopy(config)
    if path[0] == "config":
        cfg[path[1]] = value
        return cfg
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return cfg


@contextlib.contextmanager
def counted_draws():
    draws = []
    original = anderson_lab.rng.RngStream.generator

    def counting(self):
        draws.append(self)
        return original(self)

    with mock.patch.object(anderson_lab.rng.RngStream, "generator", counting):
        yield draws


@contextlib.contextmanager
def workers_env(value):
    saved = os.environ.pop(cli.WORKERS_ENV, None)
    if value is not None:
        os.environ[cli.WORKERS_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(cli.WORKERS_ENV, None)
        if saved is not None:
            os.environ[cli.WORKERS_ENV] = saved


def run(tmp_dir, command, config, *flags, env=None):
    """(exit code, violation messages, draw count) of one CLI run."""
    path = Path(tmp_dir) / f"{command}.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with workers_env(env), counted_draws() as draws, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([command, "--config", str(path), *flags, "--assert"])
    prefix = "invalid config: "
    lines = err.getvalue().splitlines()
    messages = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    return code, messages, len(draws)


def assert_rejected(tmp_path, command, config, where, *flags, env=None):
    code, messages, draws = run(tmp_path, command, config, *flags, env=env)
    assert code == ExitStatus.VALIDATION
    assert draws == 0
    assert messages and all(MESSAGE.match(m) for m in messages), messages
    assert any(m.startswith(f"{where}: ") for m in messages), messages
    return messages


# ---------------------------------------------------------------------------
# the contract under mutation
# ---------------------------------------------------------------------------

def test_smoke_configs_are_valid():
    assert set(SMOKE) == set(COLUMNS)
    for config in SMOKE.values():
        assert validate(config) == []


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_one_mutation_exits_0_1_or_3(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(SMOKE)))
    config = SMOKE[command]
    path = data.draw(st.sampled_from(sorted(set(key_paths(config)) | set(EXTRA_PATHS), key=repr)))
    cfg = mutated(config, path, data.draw(st.sampled_from(VALUES)))
    flags, env = data.draw(st.sampled_from(OVERRIDES))
    tmp = tmp_path_factory.mktemp("mutation")
    code, messages, draws = run(tmp, command, cfg, *flags, env=env)
    assert code in (ExitStatus.OK, ExitStatus.VALIDATION, ExitStatus.ASSERTION)
    if code == ExitStatus.VALIDATION:
        assert draws == 0
        assert messages and all(MESSAGE.match(m) for m in messages), messages
    with workers_env(env):
        violations = validate(cfg)
        try:
            scenario_from_config(cfg)
            built = True
        except ValueError:
            built = False
    assert (violations == []) == built
    if not flags and env is None and violations:
        assert code == ExitStatus.VALIDATION


# ---------------------------------------------------------------------------
# one regression per mended case
# ---------------------------------------------------------------------------

SMALL_CENSUS = smoke(
    "census", {"interval": [-0.5, 0.5], "gamma_n": 40, "gamma_samples": 4},
    grids={"energy": [round(-0.5 + 0.1 * k, 10) for k in range(11)], "n": [5]},
)
SMALL_LOCALIZE = smoke(
    "localize", {"interval": [-0.5, 0.5], "box": [-100, 99], "gamma_n": 40, "gamma_samples": 4},
    grids=SMALL_CENSUS["grids"],
)


@pytest.mark.parametrize("key, value", [("gamma_n", "abc"), ("gamma_samples", 0), ("gamma_n", -5)])
def test_rate_estimate_sizes_are_checked(tmp_path, key, value):
    messages = assert_rejected(
        tmp_path, "census", mutated(SMALL_CENSUS, ("experiment", key), value), f"experiment.{key}"
    )
    assert messages == [f"experiment.{key}: must be an integer >= 1"]


def test_edge_census_alpha_must_be_positive(tmp_path):
    cfg = mutated(SMOKE["edge-census"], ("experiment", "alpha"), -1)
    assert_rejected(tmp_path, "edge-census", cfg, "experiment.alpha")


def test_rate_power_rejects_true(tmp_path):
    cfg = mutated(SMOKE["lde"], ("experiment", "rate_power"), True)
    assert_rejected(tmp_path, "lde", cfg, "experiment.rate_power")


def test_key_the_kind_never_reads_is_rejected(tmp_path):
    cfg = mutated(SMOKE["lde"], ("experiment", "box"), [0, 10])
    messages = assert_rejected(tmp_path, "lde", cfg, "experiment.box")
    assert "unknown key for kind 'lde'" in messages[0]


@pytest.mark.parametrize("flags, env, where", [
    (("--seed", "-1"), None, "--seed"),
    ((), "abc", "ANDERSON_LAB_WORKERS"),
    (("--workers", "0"), None, "--workers"),
    (("--workers", "-2"), None, "--workers"),
    ((), "0", "ANDERSON_LAB_WORKERS"),
])
def test_overrides_go_through_the_field_checks(tmp_path, flags, env, where):
    assert_rejected(tmp_path, "lyapunov", SMOKE["lyapunov"], where, *flags, env=env)


@pytest.mark.parametrize(
    "scenario_id", ["odd,id", "new\nline", 'say"hi', "tab\there", "nul\x00", "del\x7f", "c1\x85"]
)
def test_a_scenario_id_that_would_split_a_csv_cell_is_rejected(tmp_path, scenario_id):
    # every CSV row carries the id as one unquoted cell
    cfg = mutated(SMOKE["spectrum"], ("config", "scenario_id"), scenario_id)
    assert_rejected(tmp_path, "spectrum", cfg, "scenario_id")


def test_a_config_stem_that_would_split_a_csv_cell_is_rejected(tmp_path):
    # with no scenario_id the file stem is the id, through the same check
    cfg = copy.deepcopy(SMOKE["spectrum"])
    del cfg["scenario_id"]
    path = tmp_path / "odd,id.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with counted_draws() as draws, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(["spectrum", "--config", str(path)])
    assert code == ExitStatus.VALIDATION
    assert draws == []
    assert "invalid config: scenario_id: must be a string with no '/'" in err.getvalue()


@pytest.mark.parametrize("scenario_id", ["naïve id", "run.v2", "a;b"])
def test_an_accepted_scenario_id_is_one_csv_cell(tmp_path, scenario_id):
    path = tmp_path / "lyapunov.json"
    path.write_text(json.dumps(mutated(SMOKE["lyapunov"], ("config", "scenario_id"), scenario_id)))
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(out):
        assert dispatch(["lyapunov", "--config", str(path)]) == ExitStatus.OK
    header, *rows = out.getvalue().splitlines()
    assert rows and all(row.split(",")[0] == scenario_id for row in rows)
    assert {len(row.split(",")) for row in rows} == {len(header.split(","))}


def test_workers_environment_is_read_only_when_nothing_else_gives_workers(tmp_path):
    cfg = mutated(SMOKE["lyapunov"], ("sampling", "workers"), 1)
    assert run(tmp_path, "lyapunov", cfg, env="abc")[0] == ExitStatus.OK
    flagged = run(tmp_path, "lyapunov", SMOKE["lyapunov"], "--workers", "1", env="abc")
    assert flagged[0] == ExitStatus.OK


def test_matrix_element_statistic_runs_from_the_cli(tmp_path):
    cfg = mutated(SMOKE["lde"], ("experiment", "statistic"), "matrix_element")
    cfg["experiment"].update(u=[1.0, 0.0], v=[0.0, 1.0])
    code, _, draws = run(tmp_path, "lde", cfg)
    assert code == ExitStatus.OK and draws > 0
    sc = scenario_from_config(cfg)
    assert (sc.u, sc.v) == ((1.0, 0.0), (0.0, 1.0))
    lift = mutated(SMOKE["lift-check"], ("experiment", "statistic"), "matrix_element")
    lift["experiment"].update(u=[0.6, 0.8], v=[1.0, 0.0])
    assert run(tmp_path, "lift-check", lift)[0] == ExitStatus.OK


@pytest.mark.parametrize("experiment, where", [
    ({"statistic": "matrix_element"}, "experiment.u"),
    ({"statistic": "matrix_element", "u": [1.0, 0.0]}, "experiment.v"),
    ({"statistic": "matrix_element", "u": [1.0, 1.0], "v": [0.0, 1.0]}, "experiment.u"),
    ({"statistic": "matrix_element", "u": [1.0, 0.0], "v": [0.0, 1.0 + 1e-9]}, "experiment.v"),
    ({"u": [1.0, 0.0], "v": [0.0, 1.0]}, "experiment.u"),
    ({"statistic": "matrix_element", "u": [1.0, 0.0, 0.0], "v": [0.0, 1.0]}, "experiment.u"),
])
def test_matrix_element_needs_unit_u_and_v_exactly(tmp_path, experiment, where):
    cfg = copy.deepcopy(SMOKE["lde"])
    cfg["experiment"].update(experiment)
    assert_rejected(tmp_path, "lde", cfg, where)


@pytest.mark.parametrize("spec, where", [
    ({"min": "abc"}, "expected.metrics.mean.min"),
    ({"value": 0.5, "abs_tol": "x"}, "expected.metrics.mean.abs_tol"),
    ({"value": 0.5}, "expected.metrics.mean"),
    ({"max": 1, "typo": 2}, "expected.metrics.mean.typo"),
])
def test_expected_metrics_are_type_checked(tmp_path, spec, where):
    cfg = mutated(SMOKE["lyapunov"], ("expected", "metrics"), {"mean": spec})
    assert_rejected(tmp_path, "lyapunov", cfg, where)


@pytest.mark.parametrize(
    "command, config", [("census", SMALL_CENSUS), ("localize", SMALL_LOCALIZE)]
)
def test_energy_grid_coverage_is_a_validation_error(tmp_path, command, config):
    short = mutated(config, ("grids", "energy"), config["grids"]["energy"][1:])
    assert "cover" in assert_rejected(tmp_path, command, short, "grids.energy")[0]
    sparse = mutated(config, ("grids", "energy"), [-0.5, -0.3, 0.0, 0.3, 0.5])
    assert "spacing" in assert_rejected(tmp_path, command, sparse, "grids.energy")[0]


def test_small_localization_box_is_a_validation_error(tmp_path):
    cfg = mutated(SMALL_LOCALIZE, ("experiment", "box"), [-50, 50])
    assert "dimension" in assert_rejected(tmp_path, "localize", cfg, "experiment.box")[0]


def test_craig_simon_radius_one_is_a_validation_error(tmp_path):
    cfg = mutated(SMOKE["craig-simon"], ("grids", "n"), [1, 2])
    assert_rejected(tmp_path, "craig-simon", cfg, "grids.n[0]")


def test_a_schedule_site_given_twice_is_rejected(tmp_path):
    schedule = {"5": [0.5, 0.5], "05": [0.25, 0.75]}  # both keys parse to site 5
    cfg = mutated(SMOKE["conditions"], ("densities", "schedule"), schedule)
    messages = assert_rejected(tmp_path, "conditions", cfg, "densities.schedule.05")
    assert messages == ["densities.schedule.05: site 5 is given more than once"]


def test_constructor_errors_name_the_argument():
    cfg = copy.deepcopy(SMOKE["lyapunov"])
    cfg["measure"]["alpha_moment"] = 0.0
    assert validate(cfg) == ["measure.alpha_moment: alpha_moment must be positive"]
    cfg = copy.deepcopy(SMOKE["spectrum"])
    cfg["experiment"]["box"] = [3, 2]
    assert validate(cfg) == ["experiment.box: box requires lo <= hi"]
    cfg = copy.deepcopy(SMOKE["lyapunov"])
    cfg["measure"] = {"kind": "uniform_interval", "lo": 0.0, "hi": 1.0, "alpha_moment": 1.0}
    cfg["densities"] = {"kind": "atom_reweight", "schedule": {"0": [0.5, 0.5]}}
    assert validate(cfg) == ["densities: atom reweighting requires an atomic base measure"]


# ---------------------------------------------------------------------------
# one definition of each column set and key list
# ---------------------------------------------------------------------------

def test_edge_census_columns_are_defined_once():
    assert COLUMNS["edge-census"] is EDGE_CENSUS_COLUMNS
    sc = scenario_from_config(SMOKE["edge-census"])
    assert edge_bound_census(sc, 2.0, 2.0).to_table().columns == EDGE_CENSUS_COLUMNS


def table_keys():
    """Section name -> keys, read off the field table."""
    found = {"config": set(cli.CONFIG)}

    def visit(name, check):
        if isinstance(check, cli.Section):
            found[name] = set(check.fields) | ({"kind"} if check.kinds else set())
            for kind, (_, fields) in (check.kinds or {}).items():
                found[f"{name} {kind}"] = set(fields)
                for key, (inner, _) in fields.items():
                    visit(f"{name}.{key}", inner)
            for key, (inner, _) in check.fields.items():
                visit(f"{name}.{key}", inner)
        elif hasattr(check, "item"):
            visit(f"{name}.<name>", check.item)

    for key, (check, _) in cli.CONFIG.items():
        if key != "grids":  # grid keys are documented with each experiment kind
            visit(key, check)
    for kind, command in cli.COMMANDS.items():
        found[f"experiment {kind}"] |= {f"grids.{key}" for key in command.grids}
    return found


def doc_keys():
    """Section name -> keys, read off the tables of configs/SCHEMA.md."""
    found, section = {}, None
    for line in (CONFIG_DIR / "SCHEMA.md").read_text().splitlines():
        heading = re.match(r"#+ `([\w.<>]+)`(?: kind `(\w+)`)?$", line)
        if heading:
            section = " ".join(filter(None, heading.groups()))
            found[section] = set()
        row = re.match(r"\| `([\w.]+)` \|", line)
        if row and section:
            found[section].add(row.group(1))
    return found


def test_schema_document_lists_the_table_keys():
    assert doc_keys() == table_keys()
