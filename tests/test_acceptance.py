"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and also enforces the claim with asserts, including the wall-clock
budget.  Heavy Monte Carlo sizes match the shipped scenario configs; pinned
seeds live in configs/.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

from anderson_lab.cli import dispatch, scenario_from_config
from anderson_lab.estimators import (
    craig_simon_scan,
    lift_check,
    lyapunov_mc,
)
from anderson_lab.experiments import gamma_grid, run_localization, singularity_census, edge_bound_census
from anderson_lab.measures import (
    AtomReweight,
    FiniteAtoms,
    ProductLaw,
    log_density_products,
    sample_window,
    sample_windows,
)
from anderson_lab.rng import RngStream
from anderson_lab.spectral import ResonantEnergyError, TridiagonalBox, green
from anderson_lab.transfer import block_identity_check, product

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BERNOULLI = FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5)))


def load_scenario(name):
    return scenario_from_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def budget(num, name, started, limit):
    elapsed = time.monotonic() - started
    report(num, f"{name} runtime", elapsed < limit, f"({elapsed:.1f}s < {limit}s)")


def test_criterion_01_unit_determinant_invariant():
    started = time.monotonic()
    rng = np.random.default_rng(20_01)
    worst = 0.0
    for i in range(1000):
        n = int(np.exp(rng.uniform(0.0, math.log(10_000))))
        if i % 2 == 0:
            window = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        else:
            window = rng.uniform(-1.0, 1.0, n)
        energy = rng.uniform(-3.0, 3.0)
        if i % 2 == 1:
            energy = complex(energy, rng.uniform(0.1, 1.0))
        drift = product(energy, window).det_drift()
        worst = max(worst, drift / (1e-8 + 1e-12 * n))
        assert drift <= 1e-8 + 1e-12 * n
    report(1, "unit determinant across scaled products", worst <= 1.0,
           f"(worst drift ratio {worst:.2e})")
    budget(1, "unit determinant", started, 30.0)


def test_criterion_02_block_identity():
    started = time.monotonic()
    rng = np.random.default_rng(20_02)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 1001))
        if i % 2 == 0:
            window = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        else:
            window = rng.uniform(-1.0, 1.0, n)
        energy = float(rng.uniform(-3.0, 3.0))
        disc = block_identity_check(energy, window)
        worst = max(worst, disc)
        assert disc <= 1e-8
    report(2, "product entries match the determinant block", worst <= 1e-8,
           f"(worst log discrepancy {worst:.2e})")
    budget(2, "block identity", started, 30.0)


def test_criterion_03_green_function_routes_agree():
    started = time.monotonic()
    rng = np.random.default_rng(20_03)
    done = 0
    worst = 0.0
    while done < 1000:
        n = int(rng.integers(1, 13))
        lo = int(rng.integers(-20, 20))
        values = rng.uniform(-2.0, 2.0, n)
        from anderson_lab.measures import PotentialWindow

        box = TridiagonalBox(PotentialWindow(lo, lo + n - 1, values))
        energy = float(rng.uniform(-4.0, 4.0))
        x = int(rng.integers(lo, lo + n))
        y = int(rng.integers(lo, lo + n))
        try:
            a = green(box, energy, x, y, "det_ratio")
        except ResonantEnergyError:
            continue
        b = green(box, energy, x, y, "direct_solve")
        assert a.sign == b.sign
        diff = abs(a.log_mag - b.log_mag)
        worst = max(worst, diff)
        assert diff <= 1e-8
        done += 1
    report(3, "determinant-ratio vs direct-solve Green values", worst <= 1e-8,
           f"(worst log diff {worst:.2e})")
    budget(3, "Green equivalence", started, 10.0)


def test_criterion_04_closed_form_growth_rate():
    started = time.monotonic()
    law = ProductLaw.exact(FiniteAtoms(atoms=((0.0, 1.0),), allow_trivial=True))
    worst = 0.0
    for gap in (2.5, 3.0, 5.0):
        est = lyapunov_mc(law, gap, 128, 4, RngStream(0))
        want = math.log((gap + math.sqrt(gap * gap - 4.0)) / 2.0)
        assert est.stderr == 0.0
        worst = max(worst, abs(est.mean - want))
        assert abs(est.mean - want) <= 1e-10
    report(4, "constant-potential rate equals the closed form", worst <= 1e-10,
           f"(worst |diff| {worst:.2e})")
    budget(4, "closed-form rate", started, 1.0)


def test_criterion_05_change_of_measure_identity():
    started = time.monotonic()
    beta = {0: (0.75, 0.25), 1: (0.25, 0.75), 2: (0.6, 0.4)}
    seq = AtomReweight(BERNOULLI, beta)
    law0 = ProductLaw.approximate(BERNOULLI, seq)
    law1 = ProductLaw.exact(BERNOULLI)
    events = [(-1, -1, -1), (1, -1, 1), (-1, 1, -1), (1, 1, 1), (-1, 1, 1)]
    m = 100_000
    wins1 = sample_windows(law1, 0, 2, m, RngStream(505, (1,)))
    wins0 = sample_windows(law0, 0, 2, m, RngStream(505, (2,)))
    lifted_all = np.exp(log_density_products(law0, 0, wins1))
    ok = True
    for pattern in events:
        exact = math.prod(
            beta[i][1] if v == 1 else beta[i][0] for i, v in enumerate(pattern)
        )
        chi1 = np.all(wins1 == np.asarray(pattern, dtype=float), axis=1)
        lifted = chi1 * lifted_all
        lhs = float(np.mean(lifted))
        se_lhs = float(np.std(lifted, ddof=1) / math.sqrt(m))
        chi0 = np.all(wins0 == np.asarray(pattern, dtype=float), axis=1)
        rhs = float(np.mean(chi0))
        se_rhs = math.sqrt(max(rhs * (1.0 - rhs), 1e-12) / m)
        ok &= abs(lhs - rhs) <= 3.0 * math.hypot(se_lhs, se_rhs)
        ok &= abs(lhs - exact) <= 3.0 * se_lhs
        ok &= abs(rhs - exact) <= 3.0 * se_rhs
        assert ok, f"event {pattern}: lifted {lhs:.5f}, direct {rhs:.5f}, exact {exact:.5f}"
    report(5, "lifted expectations equal reweighted probabilities", ok)
    budget(5, "change of measure", started, 10.0)


def test_criterion_06_lifting_bound_for_the_bump_scenario():
    started = time.monotonic()
    sc = load_scenario("lift_bumps")
    law1 = ProductLaw.exact(sc.base)
    ok_bound = True
    ok_rate = True
    for k, energy in enumerate((0.0, 0.5, -0.5)):
        gamma = lyapunov_mc(law1, energy, 801, 4096, RngStream(sc.seed, (9, k)), workers=2)
        rep = lift_check(
            sc.densities, sc.base, energy, 0.2 * gamma.mean, list(sc.n_grid),
            sc.samples, RngStream(sc.seed, (k,)), workers=2,
        )
        ok_bound &= len(rep.violations) == 0
        ci = 3.0 * math.hypot(rep.fit_exact.stderr, rep.fit_approx.stderr)
        ok_rate &= rep.fit_approx.eta >= rep.fit_exact.eta - rep.density_rate - ci
        assert ok_bound and ok_rate, f"energy {energy}"
    report(6, "tail bound lifts from the exact to the perturbed law", ok_bound)
    report(6, "fitted rates obey the lifted-rate inequality", ok_rate)
    budget(6, "lifting bound", started, 600.0)


def test_criterion_07_absolute_continuity_bound():
    started = time.monotonic()
    sc = load_scenario("abscont_reweight")
    bound_constant = math.exp(
        math.fsum(sc.densities.log_sup_norm(k) for k in range(-500, 501))
    )
    assert bound_constant <= 4.0
    e1 = np.array([1.0, 0.0])
    ok = True
    for k, statistic in enumerate(("log_norm", "log_det", "matrix_element")):
        vectors = {"u": e1, "v": e1} if statistic == "matrix_element" else {}
        rep = lift_check(
            sc.densities, sc.base, sc.energy, sc.epsilon, list(sc.n_grid),
            sc.samples, RngStream(sc.seed, (k,)), statistic, workers=2, **vectors,
        )
        for i in range(len(rep.n_grid)):
            p0 = rep.tails_approx[i]
            p1 = rep.tails_exact[i]
            se = math.hypot(
                math.sqrt(max(p0 * (1 - p0), 1e-12) / sc.samples),
                bound_constant * math.sqrt(max(p1 * (1 - p1), 1e-12) / sc.samples),
            )
            ok &= p0 <= bound_constant * p1 + 3.0 * se
        ok &= len(rep.violations) == 0
        assert ok, statistic
    report(7, "uniform change-of-measure constant bounds every family", ok,
           f"(C = {bound_constant:.4g})")
    budget(7, "absolute continuity", started, 300.0)


def test_criterion_08_deterministic_envelope_scan():
    started = time.monotonic()
    sc = load_scenario("craig_simon_bernoulli")
    n_max = max(sc.n_grid)
    window = sample_window(sc.law(), -n_max, 3 * n_max + 1, sc.stream().child(0))
    gammas, _ = gamma_grid(sc, sc.stream().child(1))
    scan = craig_simon_scan(window, sc.e_grid, sc.n_grid, gammas)
    report(8, "windowed growth never exceeds the rate by 0.1",
           scan.max_excess < 0.1, f"(max excess {scan.max_excess:.4f})")
    budget(8, "envelope scan", started, 120.0)


def test_criterion_09_localization_echo():
    started = time.monotonic()
    exact = run_localization(load_scenario("localize_bernoulli"))
    approx = run_localization(load_scenario("localize_bumps"))
    report(9, "exact-law eigenfunctions localize",
           exact.pass_fraction >= 0.90, f"(pass {exact.pass_fraction:.3f})")
    report(9, "perturbed-law pass fraction within 10 points",
           abs(exact.pass_fraction - approx.pass_fraction) <= 0.10,
           f"(delta {abs(exact.pass_fraction - approx.pass_fraction):.3f})")
    cen1 = singularity_census(load_scenario("census_bernoulli"))
    cen0 = singularity_census(load_scenario("census_bumps"))
    ok = (
        cen1.zero_from is not None and cen1.zero_from < 150
        and cen0.zero_from is not None and cen0.zero_from < 150
    )
    report(9, "singularity census reaches zero before n = 150", ok,
           f"(exact from {cen1.zero_from}, perturbed from {cen0.zero_from})")
    budget(9, "localization echo", started, 300.0)


def test_criterion_10_edge_zone_bound():
    started = time.monotonic()
    sc = load_scenario("edge_pareto")
    rep = edge_bound_census(sc, sc.edge_p, sc.edge_r)
    ok = True
    for row in rep.rows:
        n_obs = row["trials"] * row["zone_sites"]
        se = math.sqrt(max(row["site_pred"] * (1 - row["site_pred"]), 1e-12) / n_obs)
        ok &= abs(row["site_freq"] - row["site_pred"]) <= 3.0 * se
        ok &= row["event_freq"] <= row["chebyshev_bound"] + 3.0 * math.sqrt(
            max(row["event_freq"] * (1 - row["event_freq"]), 1e-12) / row["trials"]
        )
    report(10, "edge-zone violations match the exact tail rate", ok)
    budget(10, "edge bound", started, 120.0)


def test_criterion_11_worker_count_determinism(tmp_path):
    started = time.monotonic()
    outputs = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        code = dispatch([
            "lde", "--config", str(CONFIG_DIR / "lde_bernoulli.json"),
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        outputs[workers] = (out / "lde_bernoulli.csv").read_bytes()
    ok = outputs[1] == outputs[4] == outputs[8]
    report(11, "CSV bytes identical across worker counts {1,4,8}", ok)
    budget(11, "determinism", started, 60.0)
