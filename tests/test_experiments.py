import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from anderson_lab import experiments
from anderson_lab.experiments import (
    RATE_FLOOR,
    ResultTable,
    RunManifest,
    Scenario,
    config_digest,
    edge_bound_census,
    load_report,
    nu_inf,
    persist,
    run_localization,
    singularity_census,
)
from anderson_lab.estimators import lyapunov_closed_form
from anderson_lab.measures import (
    AtomReweight,
    BumpSchedule,
    FiniteAtoms,
    Identity,
    ParetoTail,
    PowersOfTwoSites,
)
from anderson_lab.spectral import eigenpairs

BERNOULLI = FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5)))
FREE = FiniteAtoms(atoms=((0.0, 1.0),), allow_trivial=True)
E_GRID = tuple(np.round(np.arange(-0.5, 0.51, 0.1), 10))


def scenario(**overrides):
    base = dict(
        scenario_id="test", kind="localize", base=BERNOULLI, densities=Identity(),
        seed=11, samples=1, e_grid=E_GRID, n_grid=(10, 20, 40),
        interval=(-0.5, 0.5), box=(-100, 99), gamma_n=500, gamma_samples=80,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# scenario invariants
# ---------------------------------------------------------------------------

def test_interval_orientation_is_validated():
    with pytest.raises(ValueError, match="s < t"):
        scenario(interval=(0.5, -0.5))


def test_seed_and_samples_are_validated():
    with pytest.raises(ValueError, match="seed"):
        scenario(seed=-1)
    with pytest.raises(ValueError, match="samples"):
        scenario(samples=0)


@pytest.mark.parametrize("bad, match", [
    ({"statistic": "log_mean"}, "statistic must be one of"),
    ({"rate_power": 0.3}, "rate_power must be"),
    ({"statistic": "matrix_element", "u": (1.0, 0.0)}, "v must be given exactly"),
    ({"statistic": "matrix_element", "u": (1.0, 1.0), "v": (0.0, 1.0)}, "u must be a unit"),
])
def test_scenario_takes_the_tail_curves_statistic_rule(bad, match):
    with pytest.raises(ValueError, match=match):
        scenario(kind="lde", **bad)


def test_law_tag_follows_the_densities():
    assert scenario().law_tag == "exact"
    bumps = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    assert scenario(densities=bumps).law_tag == "approximate"


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localization_box_must_be_large():
    with pytest.raises(ValueError, match="dimension"):
        run_localization(scenario(box=(-50, 50)))


def test_free_operator_all_fits_fail():
    report = run_localization(
        scenario(base=FREE, box=(-128, 127), gamma_n=400, gamma_samples=20)
    )
    assert len(report.rows) > 0
    assert report.pass_fraction == 0.0


def test_bernoulli_box_localizes():
    report = run_localization(scenario(box=(-128, 127)))
    assert len(report.rows) > 10
    assert report.pass_fraction >= 0.9
    table = report.to_table()
    assert table.columns == (
        "scenario_id", "seed", "law_tag", "box_lo", "box_hi", "j", "eigenvalue",
        "gamma_hat", "gamma_stderr", "decay_rate", "center", "pass",
    )
    # decay threshold uses the rate floor
    for row in report.rows:
        assert row.passed == (row.decay_rate >= max(0.5 * row.gamma_hat, RATE_FLOOR))


def test_paired_law_run_is_close():
    exact = run_localization(scenario(box=(-128, 127)))
    bumps = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    approx = run_localization(scenario(box=(-128, 127), densities=bumps))
    assert abs(exact.pass_fraction - approx.pass_fraction) <= 0.10


# ---------------------------------------------------------------------------
# singularity census
# ---------------------------------------------------------------------------

def test_free_operator_census_saturates():
    report = singularity_census(
        scenario(kind="census", base=FREE, n_grid=(10, 20, 40), gamma_n=400, gamma_samples=20)
    )
    assert all(c == 4 for c in report.counts.values())
    assert report.zero_from is None


def test_bernoulli_census_reaches_zero():
    grid = (10, 25, 40, 55, 70, 85, 100)
    report = singularity_census(scenario(kind="census", n_grid=grid))
    assert report.zero_from is not None
    assert report.counts[100] == 0
    rows = report.to_table().rows
    assert len(rows) == 7 * 4
    assert {r["site"] for r in rows if r["n"] == 10} == {20, 21, -20, -21}


def test_paired_census_thresholds_are_comparable():
    grid = (10, 25, 40, 55, 70, 85, 100)
    exact = singularity_census(scenario(kind="census", n_grid=grid))
    bumps = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    approx = singularity_census(scenario(kind="census", n_grid=grid, densities=bumps))
    assert exact.zero_from is not None and approx.zero_from is not None
    assert approx.zero_from <= 1.5 * exact.zero_from


def _smoke_scenario(name):
    from anderson_lab.cli import scenario_from_config

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    config = json.loads((config_dir / f"{name}.json").read_text())
    config["grids"]["n"] = [10, 25]
    config["experiment"].update(gamma_n=200, gamma_samples=20)
    return scenario_from_config(config)


def test_bump_studies_reproduce_pinned_verdicts():
    # pinned from the per-energy scalar regularity test at seed 90210, with
    # one draw serving the whole gamma grid; regenerate with
    # demos/regenerate_pins.py
    census = singularity_census(_smoke_scenario("census_bumps"))
    assert census.rows == (
        (10, 20, "singular"), (10, 21, "singular"), (10, -20, "singular"), (10, -21, "singular"),
        (25, 50, "singular"), (25, 51, "singular"), (25, -50, "singular"), (25, -51, "singular"),
    )
    assert census.skips == ()
    report = run_localization(_smoke_scenario("localize_bumps"))
    assert [r.largest_singular_n for r in report.rows] == (
        [None] * 2 + [25] * 7 + [10] * 6 + [None] + [25] * 2 + [None] * 4 + [25] + [None]
        + [25] + [None] * 14 + [25] + [None] * 9 + [25] + [None] + [10] + [None] * 3
        + [10] * 8 + [25] + [10]
    )
    assert report.skips == ()
    # decay_rate reads the eigensolver's round-off, so this fails on any drift
    digest = hashlib.sha256()
    for column in ("j", "eigenvalue", "decay_rate", "center"):
        digest.update(np.array([getattr(r, column) for r in report.rows], dtype="<f8").tobytes())
    assert digest.hexdigest() == "493cf631435d195f2d23585f41a7e4809ff71c025adf96f27db554212740adb1"


def test_localization_solves_only_the_ranks_in_the_interval(monkeypatch):
    solved = []

    def spy(box, ranks=None):
        solved.append(ranks)
        return eigenpairs(box, ranks)

    monkeypatch.setattr(experiments, "eigenpairs", spy)
    report = run_localization(_smoke_scenario("localize_bumps"))
    # j is the rank in the whole spectrum, and no rank outside [s, t] is solved
    assert len(solved) == 1
    assert [r.j for r in report.rows] == list(solved[0])


# ---------------------------------------------------------------------------
# edge-zone bound census
# ---------------------------------------------------------------------------

def test_bounded_measure_never_violates():
    sc = scenario(kind="edge_census", samples=2000, n_grid=(4, 8, 16))
    report = edge_bound_census(sc, p=2.0, r=2.0)
    # |V| <= 1 while the threshold n^(r/alpha) >= 16 for every grid n
    assert all(row["site_violations"] == 0 for row in report.rows)
    assert report.last_violation_n is None
    assert not report.persistent


def test_pareto_frequencies_match_the_exact_tail():
    par = ParetoTail(scale=1.0, exponent=1.2, symmetric=True, alpha_moment=1.0)
    sc = scenario(kind="edge_census", base=par, samples=10_000, n_grid=(8, 16, 32))
    report = edge_bound_census(sc, p=2.0, r=2.0)
    for row in report.rows:
        n_obs = row["trials"] * row["zone_sites"]
        se = math.sqrt(row["site_pred"] * (1 - row["site_pred"]) / n_obs)
        assert abs(row["site_freq"] - row["site_pred"]) <= 3.0 * se
        assert row["event_pred"] <= row["chebyshev_bound"]
    assert not report.persistent


def test_misdeclared_moment_order_is_flagged():
    par = ParetoTail(scale=1.0, exponent=1.2, symmetric=True, alpha_moment=1.0)
    sc = scenario(kind="edge_census", base=par, samples=4000, n_grid=(8, 16, 32))
    report = edge_bound_census(sc, p=2.0, r=2.0, alpha=3.0)
    assert report.persistent
    assert report.rows[-1]["event_freq"] > 0.05


def test_violations_do_not_increase_with_r():
    par = ParetoTail(scale=1.0, exponent=1.2, symmetric=True, alpha_moment=1.0)
    sc = scenario(kind="edge_census", base=par, samples=4000, n_grid=(8, 16))
    previous = None
    for r in (1.5, 2.0, 3.0):
        report = edge_bound_census(sc, p=2.0, r=r)
        total = sum(row["site_violations"] for row in report.rows)
        if previous is not None:
            assert total <= previous
        previous = total


def test_parameter_validation():
    sc = scenario(kind="edge_census", samples=10, n_grid=(4,))
    with pytest.raises(ValueError, match="r must exceed"):
        edge_bound_census(sc, p=1.0, r=1.0)
    with pytest.raises(ValueError, match="p must be"):
        edge_bound_census(sc, p=0.0, r=2.0)


@pytest.mark.parametrize("alpha", [-1.0, 0.0])
def test_edge_census_rejects_a_nonpositive_alpha_before_any_draw(monkeypatch, alpha):
    # -1 used to run with threshold n^(-r) and 0 to divide by zero
    import anderson_lab.experiments as experiments

    def spy(*args, **kwargs):
        raise AssertionError("sample_windows called before alpha was checked")

    monkeypatch.setattr(experiments, "sample_windows", spy)
    par = ParetoTail(scale=1.0, exponent=1.2, symmetric=True, alpha_moment=1.0)
    sc = scenario(kind="edge_census", base=par, samples=10, n_grid=(8, 16))
    with pytest.raises(ValueError, match="alpha must be positive"):
        edge_bound_census(sc, p=2.0, r=2.0, alpha=alpha)


# ---------------------------------------------------------------------------
# rate infimum
# ---------------------------------------------------------------------------

def test_point_mass_rate_infimum_is_the_closest_endpoint():
    delta5 = FiniteAtoms(atoms=((5.0, 1.0),), allow_trivial=True)
    grid = tuple(np.round(np.arange(-1.0, 1.01, 0.1), 10))
    sc = scenario(base=delta5, interval=(-1.0, 1.0), e_grid=grid, gamma_n=600, gamma_samples=4)
    got = nu_inf(sc)
    assert got == pytest.approx(lyapunov_closed_form(5.0, 1.0), abs=1e-9)


def test_free_operator_rate_infimum_warns():
    sc = scenario(base=FREE, gamma_n=400, gamma_samples=20)
    with pytest.warns(UserWarning, match="separated"):
        got = nu_inf(sc)
    assert abs(got) < 0.02


def test_sparse_energy_grid_is_rejected():
    sc = scenario(e_grid=(-0.5, 0.5))
    with pytest.raises(ValueError, match="spacing"):
        nu_inf(sc)


# ---------------------------------------------------------------------------
# persistence and manifests
# ---------------------------------------------------------------------------

def test_digest_is_stable_under_key_reordering():
    a = {"measure": {"kind": "finite_atoms"}, "sampling": {"seed": 1, "samples": 2}}
    b = {"sampling": {"samples": 2, "seed": 1}, "measure": {"kind": "finite_atoms"}}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"sampling": {"seed": 2}})


def test_empty_report_gives_header_only_csv(tmp_path):
    table = ResultTable("census", ("a", "b"), (), {"note": "empty"})
    manifest = RunManifest.create({"x": 1}, seed=5, workers=1)
    paths = persist(table, manifest, tmp_path / "empty")
    assert paths[0].read_text() == "a,b\n"
    assert json.loads(paths[2].read_text())["seed"] == 5


def test_persist_round_trip_is_structurally_equal(tmp_path):
    report = singularity_census(scenario(kind="census", n_grid=(10, 20)))
    table = report.to_table()
    manifest = RunManifest.create({"seed": 11}, seed=11, workers=1)
    persist(table, manifest, tmp_path / "census.v2")
    loaded = load_report(tmp_path / "census.v2")
    assert loaded == load_report(tmp_path / "census.v2.json")
    assert loaded["rows"] == table.to_json_dict()["rows"]
    assert loaded["summary"] == table.to_json_dict()["summary"]
    assert loaded["manifest"]["config_digest"] == manifest.config_digest


def test_reruns_reproduce_csv_bytes(tmp_path):
    sc = scenario(kind="census", n_grid=(10, 20))
    manifest = RunManifest.create({}, seed=11, workers=1)
    p1 = persist(singularity_census(sc).to_table(), manifest, tmp_path / "a")
    p2 = persist(singularity_census(sc).to_table(), manifest, tmp_path / "b")
    assert p1[0].read_text() == p2[0].read_text()


def test_persist_surfaces_path_errors(tmp_path):
    table = ResultTable("x", ("a",), (), {})
    manifest = RunManifest.create({}, seed=1, workers=1)
    target = tmp_path / "file"
    target.write_text("occupied")
    with pytest.raises(OSError, match="persist"):
        persist(table, manifest, target / "nested")


def test_floats_serialize_with_17_significant_digits():
    table = ResultTable("x", ("v",), ({"v": 1.0 / 3.0},), {})
    assert table.csv_text().splitlines()[1] == "0.33333333333333331"


def test_table_refuses_a_row_that_does_not_match_its_columns():
    for row in ({"a": 1}, {"a": 1, "b": 2, "c": 3}, {"b": 2, "a": 1}, {"a": 1, "c": 2}):
        with pytest.raises(ValueError, match="row 1 has keys"):
            ResultTable("x", ("a", "b"), ({"a": 0, "b": 0}, row))


def test_rows_are_zipped_from_value_tuples_in_column_order():
    table = ResultTable.from_values("x", ("a", "b"), [(1, 2.5), (3, None)], {"k": 1})
    assert table.rows == ({"a": 1, "b": 2.5}, {"a": 3, "b": None})
    assert table.csv_text() == "a,b\n1,2.5\n3,\n"
    assert table.summary == {"k": 1}
    assert ResultTable.from_values("x", ("a",), ()).summary == {}
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            ResultTable.from_values("x", ("a", "b"), [values])
