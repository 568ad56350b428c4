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
from anderson_lab.spectral import GreenLanes, RegularityLanes, eigenpairs

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

    def digest(*columns):
        # None in largest_singular_n digests as NaN
        h = hashlib.sha256()
        for column in columns:
            h.update(np.array([getattr(r, column) for r in report.rows], dtype="<f8").tobytes())
        return h.hexdigest()

    # the verdicts: an eigensolver change that moves only round-off keeps
    # them (twisted-factorization vectors for isolated eigenvalues did)
    assert digest("j", "eigenvalue", "center", "passed", "largest_singular_n") == (
        "d4e3ea3e66ce46d7c6b2244a9e2e9ee3e6926a7ea95520228ee4b953cddeefa1"
    )
    # decay_rate reads the round-off of the eigenvectors and of the
    # closed-form fit, so this fails on any drift of the eigensolver
    assert digest("decay_rate") == "157bc042c8b2b2772cf9e6fb06ccd5e0105dbc7047aa64dbcd0ba9d1baab289a"


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


def decay_fit_reference(vector, center_idx):
    """One column's decay rate by np.polyfit, as localize fitted it column by
    column before the batched fit."""
    amp = np.abs(vector)
    dist = np.abs(np.arange(len(amp)) - center_idx).astype(float)
    reach = float(np.max(dist))
    keep = (
        (dist >= max(10.0, 0.2 * reach))
        & (dist <= min(0.8 * reach, reach - 5.0))
        & (amp > 0.0)
    )
    if np.count_nonzero(keep) < 2:
        return 0.0
    slope = np.polyfit(dist[keep], np.log(amp[keep]), 1)[0]
    return float(-slope)


def check_against_reference(vectors, centers):
    rates = experiments._decay_rates(vectors, centers)
    assert rates.shape == (vectors.shape[1],)
    for i, center in enumerate(centers.tolist()):
        assert abs(rates[i] - decay_fit_reference(vectors[:, i], center)) <= 1e-12
    return rates


@pytest.mark.parametrize("name", ["localize_bumps", "localize_bernoulli"])
def test_batched_decay_fit_equals_the_per_column_fit(monkeypatch, name):
    from anderson_lab.cli import scenario_from_config

    fits = []
    batched = experiments._decay_rates

    def spy(vectors, centers):
        fits.append((vectors, centers))
        return batched(vectors, centers)

    monkeypatch.setattr(experiments, "_decay_rates", spy)
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    config = json.loads((config_dir / f"{name}.json").read_text())
    report = run_localization(scenario_from_config(config))
    monkeypatch.undo()
    [(vectors, centers)] = fits
    assert vectors.shape[1] == len(report.rows) > 10
    per_column = [int(np.argmax(np.abs(vectors[:, i]))) for i in range(len(report.rows))]
    assert [r.center - report.box[0] for r in report.rows] == per_column
    rates = check_against_reference(vectors, centers)
    assert [r.decay_rate for r in report.rows] == rates.tolist()


def test_decay_fit_edge_cases():
    sites = np.arange(200)
    decaying = np.exp(-0.3 * np.abs(sites - 90.0))
    columns = {
        "interior": (decaying, 90),
        "center at the left edge": (np.exp(-0.2 * sites), 0),
        "center at the right edge": (np.exp(-0.2 * sites[::-1]), 199),
        # exact zeros inside the fit window are left out of the fit
        "exact zeros": (np.where(sites % 7 == 0, 0.0, decaying), 90),
        "one kept site": (np.where(sites == 150, 1e-8, 0.0) + (sites == 90), 90),
        "no kept site": ((sites == 90).astype(float), 90),
    }
    vectors = np.column_stack([v for v, _ in columns.values()])
    centers = np.array([c for _, c in columns.values()])
    assert np.array_equal(np.argmax(vectors, axis=0), centers)
    rates = dict(zip(columns, check_against_reference(vectors, centers).tolist()))
    assert rates["interior"] == pytest.approx(0.3, rel=1e-12)
    assert rates["center at the left edge"] == pytest.approx(0.2, rel=1e-12)
    assert rates["center at the right edge"] == pytest.approx(0.2, rel=1e-12)
    assert rates["one kept site"] == rates["no kept site"] == 0.0
    # kept sites all at one distance give no slope either
    mirror = np.where(np.abs(sites - 100) == 40, 1e-5, 0.0) + (sites == 100)
    assert experiments._decay_rates(mirror[:, None], np.array([100])).tolist() == [0.0]


def crafted_lanes(codes):
    """Regularity lanes from codes: 0 regular, 1 singular, 2 resonant."""
    codes = np.asarray(codes)
    ones = np.ones((2, *codes.shape))
    return RegularityLanes(GreenLanes(ones, -ones, codes == 2), codes == 0)


def census_reference(tested, n_grid, e_grid):
    """Census rows, skips and counts by the per-(site, energy) scan that
    stops at the first singular energy; ``tested[n]`` is ``(E, S)`` codes."""
    rows, skips, counts = [], [], {}
    for n in n_grid:
        sites = (2 * n, 2 * n + 1, -2 * n, -(2 * n + 1))
        codes = tested[n].T
        count = 0
        for i, site in enumerate(sites):
            singular = False
            for k, e in enumerate(e_grid):
                if codes[i, k] == 2:
                    skips.append((int(n), site, e))
                elif codes[i, k] == 1:
                    singular = True
                    break
            rows.append((int(n), site, "singular" if singular else "regular"))
            count += singular
        counts[int(n)] = count
    return tuple(rows), tuple(skips), counts


def test_census_verdicts_equal_the_per_energy_scan(monkeypatch):
    sc = scenario(kind="census", n_grid=(10, 20, 40), gamma_n=40, gamma_samples=4)
    energies = len(sc.e_grid)
    rng = np.random.default_rng(5)
    # columns are the sites 2n, 2n+1, -2n, -(2n+1); rows are the energies
    first = np.zeros((energies, 4), dtype=int)
    first[:, 0] = [2, 2, 1, 2] + [0] * (energies - 4)  # resonant before and after a singular one
    first[:, 1] = [1, 2, 2] + [0] * (energies - 3)  # singular first, resonant after
    first[:, 2] = 2  # all resonant
    first[:, 3] = 0  # all regular
    second = rng.choice(3, (energies, 4), p=(0.5, 0.2, 0.3))
    tested = {10: first, 20: second, 40: np.zeros_like(first)}

    def fake(window, sites, radius, rate, energy):
        assert np.shape(rate) == np.shape(energy) == (energies, 1)
        assert tuple(sites) == (2 * radius, 2 * radius + 1, -2 * radius, -(2 * radius + 1))
        return crafted_lanes(tested[radius])

    monkeypatch.setattr(experiments, "classify_regularity", fake)
    report = singularity_census(sc)
    rows, skips, counts = census_reference(tested, sc.n_grid, sc.e_grid)
    assert report.rows == rows
    assert report.skips == skips
    assert report.counts == counts
    assert report.zero_from == 40
    e = sc.e_grid
    assert report.skips[:3] == ((10, 20, e[0]), (10, 20, e[1]), (10, -20, e[0]))
    assert report.rows[:4] == (
        (10, 20, "singular"), (10, 21, "singular"), (10, -20, "regular"), (10, -21, "regular"),
    )


def test_localization_verdicts_equal_the_per_row_scan(monkeypatch):
    sc = scenario(gamma_n=40, gamma_samples=4)
    rng = np.random.default_rng(6)
    tested = {}

    def fake(window, sites, radius, rate, energy):
        rows = len(rate)
        assert np.shape(rate) == np.shape(energy) == (rows, 1)
        assert tuple(sites) == (2 * radius, 2 * radius + 1)
        codes = rng.choice(3, (rows, 2), p=(0.5, 0.3, 0.2))
        # row 0: resonant at the first radius, singular after; row 1: singular
        # at the first radius, resonant after; row 2 all resonant; row 3 all regular
        first = radius == sc.n_grid[0]
        codes[0] = (2, 2) if first else (1, 0)
        codes[1] = (1, 1) if first else (2, 0)
        codes[2], codes[3] = (2, 2), (0, 0)
        tested[radius] = codes
        return crafted_lanes(codes)

    monkeypatch.setattr(experiments, "classify_regularity", fake)
    report = run_localization(sc)
    assert len(report.rows) > 4
    largest, skips = [], []
    for i, row in enumerate(report.rows):
        singular = None
        for n in sc.n_grid:
            for k, site in enumerate((2 * n, 2 * n + 1)):
                if tested[n][i, k] == 2:
                    skips.append((row.j, int(n), site))
                elif tested[n][i, k] == 1:
                    singular = max(singular or 0, int(n))
        largest.append(singular)
    assert [r.largest_singular_n for r in report.rows] == largest
    assert report.skips == tuple(skips)
    assert largest[:4] == [max(sc.n_grid), sc.n_grid[0], None, None]
    summary = report.to_table().summary
    assert summary["resonant_skips"] == len(skips)
    assert summary["largest_singular_n"] == max(n for n in largest if n is not None)


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
