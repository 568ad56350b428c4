import cmath
import math

import numpy as np
import pytest

import anderson_lab.estimators as estimators
from anderson_lab.estimators import (
    BATCH_SIZE,
    BURN_IN,
    _merge_moments,
    _moments,
    _statistic_logs,
    _tail_counts,
    DeviationClass,
    craig_simon_scan,
    deviation_classify,
    lde_curve,
    lift_check,
    lyapunov_closed_form,
    lyapunov_mc,
    submean_check,
    tail_estimate,
)
from anderson_lab.measures import (
    AtomReweight,
    BumpSchedule,
    FiniteAtoms,
    Identity,
    PowersOfTwoSites,
    PotentialWindow,
    ProductLaw,
    sample_window,
    sample_windows,
)
from anderson_lab.rng import RngStream
from anderson_lab.transfer import matrix_batch

BERNOULLI = FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5)))
BERNOULLI_LAW = ProductLaw.exact(BERNOULLI)


def constant_law(c):
    return ProductLaw.exact(FiniteAtoms(atoms=((c, 1.0),), allow_trivial=True))


# reference for gamma at E = 0 from a 1e7-step single trajectory
# (seed 123457, burn-in 64, blocked stderr over 100 stretches of 1e5 sites;
# regenerate with demos/regenerate_pins.py)
GAMMA_LONG = 0.12404451388284268
GAMMA_LONG_SE = 0.00010946760767120649


# ---------------------------------------------------------------------------
# Lyapunov estimates
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert lyapunov_closed_form(0.0, 3.0) == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert lyapunov_closed_form(0.0, 2.0) == 0.0
    assert lyapunov_closed_form(0.0, -2.5) == lyapunov_closed_form(0.0, 2.5)
    assert lyapunov_closed_form(1.0, 0.5) == 0.0


def test_closed_form_complex_against_eigenvalue_oracle():
    for z in (2j, 0.5 + 0.5j, -1.0 + 2.0j):
        lams = np.linalg.eigvals(np.array([[z, -1.0], [1.0, 0.0]]))
        want = math.log(float(np.max(np.abs(lams))))
        assert lyapunov_closed_form(0.0, z) == pytest.approx(want, abs=1e-12)


def test_point_mass_estimate_equals_closed_form():
    for gap in (2.5, 3.0, 5.0):
        est = lyapunov_mc(constant_law(0.0), gap, 128, 4, RngStream(0))
        assert est.stderr == 0.0
        assert abs(est.mean - lyapunov_closed_form(0.0, gap)) < 1e-10


def test_free_operator_rate_is_zero():
    est = lyapunov_mc(constant_law(0.0), 0.0, 256, 4, RngStream(0))
    assert est.mean == 0.0


def test_bernoulli_estimate_matches_long_trajectory_reference():
    est = lyapunov_mc(BERNOULLI_LAW, 0.0, 10_000, 200, RngStream(42))
    combined = math.hypot(est.stderr, GAMMA_LONG_SE)
    assert abs(est.mean - GAMMA_LONG) <= 3.0 * combined


def test_doubling_n_is_consistent_up_to_subadditivity_slack():
    for energy in (0.0, 0.7):
        a = lyapunov_mc(BERNOULLI_LAW, energy, 500, 400, RngStream(50))
        b = lyapunov_mc(BERNOULLI_LAW, energy, 1000, 400, RngStream(51))
        slack = 3.0 * math.hypot(a.stderr, b.stderr) + 2.0 * math.log(2.0) / 500
        assert abs(a.mean - b.mean) <= slack


def test_worker_count_does_not_change_the_result():
    a = lyapunov_mc(BERNOULLI_LAW, 0.5, 300, 9000, RngStream(7), workers=1)
    for workers in (2, 4):
        b = lyapunov_mc(BERNOULLI_LAW, 0.5, 300, 9000, RngStream(7), workers=workers)
        assert a.mean == b.mean
        assert a.stderr == b.stderr


def test_batch_moments_merge_without_cancellation():
    # values near 1e8 with unit noise: the one-pass sum of squares minus
    # n * mean^2 loses every digit of the variance, merged batch moments keep it
    rng = np.random.default_rng(27)
    values = 1e8 + rng.standard_normal(3 * BATCH_SIZE + 123)
    parts = [_moments(values[i : i + BATCH_SIZE]) for i in range(0, len(values), BATCH_SIZE)]
    count, mean, m2 = _merge_moments(parts)
    assert count == len(values)
    assert mean == pytest.approx(np.mean(values), rel=1e-15)
    assert m2 / (count - 1) == pytest.approx(np.var(values, ddof=1), rel=1e-9)
    one_pass = (np.sum(values**2) - count * np.mean(values) ** 2) / (count - 1)
    assert abs(one_pass - np.var(values, ddof=1)) > 1e-3


def test_per_sample_logs_are_retained_on_request():
    est = lyapunov_mc(BERNOULLI_LAW, 0.0, 64, 100, RngStream(8), keep_samples=True)
    assert est.per_sample.shape == (100,)
    assert float(np.mean(est.per_sample)) == pytest.approx(est.mean)


def test_energy_array_equals_scalar_calls_on_the_same_stream():
    # two batches (4096 and 300 windows), so the energies go one per kernel
    # call in the first and all together in the second
    energies = np.array([-1.0, 0.0, 0.5 + 0.2j, 2.9])
    samples = BATCH_SIZE + 300
    est = lyapunov_mc(BERNOULLI_LAW, energies, 100, samples, RngStream(31), keep_samples=True)
    assert est.mean.shape == est.stderr.shape == (4,)
    assert est.per_sample.shape == (4, samples)
    for i, e in enumerate(energies.tolist()):
        one = lyapunov_mc(BERNOULLI_LAW, e, 100, samples, RngStream(31), keep_samples=True)
        assert est.mean[i] == pytest.approx(one.mean, rel=1e-12, abs=1e-12)
        assert est.stderr[i] == pytest.approx(one.stderr, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(est.per_sample[i], one.per_sample, rtol=1e-12, atol=1e-12)


def test_energy_array_is_identical_across_worker_counts():
    energies = np.linspace(-1.0, 1.0, 5)
    runs = [
        lyapunov_mc(BERNOULLI_LAW, energies, 64, 2 * BATCH_SIZE + 50, RngStream(32),
                    workers=workers, keep_samples=True)
        for workers in (1, 2, 4)
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(other.mean, runs[0].mean)
        np.testing.assert_array_equal(other.stderr, runs[0].stderr)
        np.testing.assert_array_equal(other.per_sample, runs[0].per_sample)


def test_energy_groups_stay_within_batch_size_lanes(monkeypatch):
    seen = []

    def spy(energy, windows, checkpoints):
        lanes = np.broadcast_shapes(np.shape(energy), windows.shape[:-1])
        seen.append(math.prod(lanes))
        return np.zeros((len(checkpoints),) + lanes)

    monkeypatch.setattr(estimators, "vector_growth_logs", spy)
    lyapunov_mc(BERNOULLI_LAW, np.linspace(-2.0, 2.0, 41), 8, 4096, RngStream(33))
    assert max(seen) <= BATCH_SIZE
    assert sum(seen) == 41 * 4096


def test_non_finite_estimate_names_its_energy(monkeypatch):
    kernel = estimators.vector_growth_logs

    def broken(energy, windows, checkpoints):
        logs = kernel(energy, windows, checkpoints)
        logs[1][np.ravel(energy) == 0.5] = np.nan
        return logs

    monkeypatch.setattr(estimators, "vector_growth_logs", broken)
    with pytest.raises(ArithmeticError, match=r"at energy 0\.5$"):
        lyapunov_mc(BERNOULLI_LAW, np.array([-0.5, 0.0, 0.5, 1.0]), 16, 20, RngStream(34))


# ---------------------------------------------------------------------------
# tail curves
# ---------------------------------------------------------------------------

def test_point_mass_curve_reports_the_zero_count_flag():
    curve = lde_curve(
        constant_law(0.0), 3.0, 0.05, [16, 32, 64], 500, RngStream(9),
        gamma=lyapunov_closed_form(0.0, 3.0), gamma_stderr=0.0,
    )
    assert np.all(curve.counts == 0)
    assert curve.fit.flag == "lower_bound"
    assert curve.fit.eta == pytest.approx(math.log(500) / 64)


def test_non_finite_statistic_is_an_error(monkeypatch):
    # a window holding an inf makes matrix_batch return NaN, which would
    # otherwise count as "no deviation"
    import anderson_lab.estimators as estimators

    real = estimators.sample_windows

    def with_inf(law, lo, hi, count, stream):
        wins = real(law, lo, hi, count, stream)
        wins[3, 0] = math.inf
        return wins

    monkeypatch.setattr(estimators, "sample_windows", with_inf)
    with pytest.raises(ValueError, match=r"energy 0\.0, radius 16: 1 of 100 lanes"):
        with np.errstate(invalid="ignore"):
            lde_curve(
                BERNOULLI_LAW, 0.0, 0.1, [16, 32], 100, RngStream(9),
                gamma=0.3, gamma_stderr=0.0,
            )


def test_non_finite_statistic_names_the_largest_radius_of_a_lift_batch(monkeypatch):
    # an inf at site -n_max lies only in the window of the largest radius
    import anderson_lab.estimators as estimators

    real = estimators.sample_windows

    def with_inf(law, lo, hi, count, stream):
        wins = real(law, lo, hi, count, stream)
        if lo < 0:  # the tail-count draws, not the gamma estimate's
            wins[3, 0] = math.inf
        return wins

    monkeypatch.setattr(estimators, "sample_windows", with_inf)
    with pytest.raises(ValueError, match=r"energy 0\.0, radius 32: 1 of 100 lanes"):
        with np.errstate(invalid="ignore"):
            lift_check(Identity(), BERNOULLI, 0.0, 0.1, [8, 16, 32], 100, RngStream(9))


@pytest.mark.parametrize("centered", [False, True])
def test_nested_counts_equal_direct_counts_per_radius(centered):
    # one batch, one draw over the largest radius: the count at each radius
    # equals the count from a matrix_batch call on that radius's own window
    law = ProductLaw.approximate(
        BERNOULLI, BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    )
    grid = np.array([1, 5, 17, 40])
    samples, stream, e1 = 1500, RngStream(23), np.array([1.0, 0.0])
    wins = sample_windows(law, -40 if centered else 1, 40, samples, stream.child(0))
    for stat, gamma, eps in (("log_norm", 0.1, 0.08), ("log_det", 0.1, 0.08),
                             ("matrix_element", 0.1, 0.15)):
        counts = _tail_counts(law, 0.3, centered, eps, gamma, grid, samples, stream,
                              stat, e1, e1, 1)
        direct = []
        for n in grid:
            sub = wins[:, 40 - n : 40 + n + 1] if centered else wins[:, :n]
            with np.errstate(divide="ignore"):
                logs = _statistic_logs(stat, matrix_batch(0.3, sub), e1, e1)
            direct.append(int(np.count_nonzero(np.abs(logs / sub.shape[1] - gamma) > eps)))
        assert counts.tolist() == direct, stat
        assert 0 < counts.sum() < samples * len(grid)


def test_exact_zero_log_det_counts_as_a_deviation():
    # V == 0 at E = 0: the determinant of an odd-length window is exactly 0
    curve = lde_curve(
        constant_law(0.0), 0.0, 0.05, [15, 31], 50, RngStream(9), "log_det",
        gamma=0.0, gamma_stderr=0.0,
    )
    assert list(curve.counts) == [50, 50]


def test_impossible_deviation_has_zero_counts():
    # eps above gamma + the per-step log-norm bound: no window can deviate
    gamma = lyapunov_mc(BERNOULLI_LAW, 0.0, 256, 64, RngStream(10))
    eps = gamma.mean + math.log(3.0) + 1.0
    curve = lde_curve(
        BERNOULLI_LAW, 0.0, eps, [16, 32], 2000, RngStream(11),
        gamma=gamma.mean, gamma_stderr=0.0,
    )
    assert np.all(curve.counts == 0)


def test_bernoulli_rate_is_positive_with_confident_fit():
    gamma = lyapunov_mc(BERNOULLI_LAW, 0.0, 4000, 500, RngStream(12))
    curve = lde_curve(
        BERNOULLI_LAW, 0.0, 0.2 * gamma.mean, [25, 50, 100, 200, 400], 20_000,
        RngStream(13), gamma=gamma.mean, gamma_stderr=gamma.stderr,
    )
    assert curve.fit.flag is None
    assert curve.fit.eta - 3.0 * curve.fit.stderr > 0.0
    # tail probabilities decrease along the grid
    assert np.all(np.diff(curve.counts) < 0)


def test_swamped_epsilon_is_rejected():
    with pytest.raises(ValueError, match="swamped"):
        lde_curve(
            BERNOULLI_LAW, 0.0, 0.001, [16], 100, RngStream(14),
            gamma=0.12, gamma_stderr=0.01,
        )


def test_statistics_take_the_same_reference():
    gamma = lyapunov_mc(BERNOULLI_LAW, 0.0, 1000, 200, RngStream(15))
    e1 = np.array([1.0, 0.0])
    for stat in ("log_norm", "log_det", "matrix_element"):
        vectors = {"u": e1, "v": e1} if stat == "matrix_element" else {}
        curve = lde_curve(
            BERNOULLI_LAW, 0.0, 0.15, [32, 64], 2000, RngStream(16), stat,
            gamma=gamma.mean, gamma_stderr=gamma.stderr, **vectors,
        )
        assert np.all(curve.counts <= curve.samples)


def test_stretched_exponential_rate_power():
    gamma = lyapunov_mc(BERNOULLI_LAW, 0.0, 1000, 200, RngStream(17))
    curve = lde_curve(
        BERNOULLI_LAW, 0.0, 0.2 * gamma.mean, [25, 50, 100, 200], 5000,
        RngStream(18), gamma=gamma.mean, gamma_stderr=gamma.stderr, rate_power=0.5,
    )
    assert curve.rate_power == 0.5
    assert math.isfinite(curve.fit.eta)
    with pytest.raises(ValueError):
        lde_curve(
            BERNOULLI_LAW, 0.0, 0.1, [16], 100, RngStream(19),
            gamma=0.12, gamma_stderr=0.0, rate_power=0.3,
        )


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"statistic": "log_mean"}, "unknown statistic"),
        ({"statistic": "matrix_element", "v": np.array([1.0, 0.0])}, "needs unit vectors"),
        ({"statistic": "matrix_element", "u": np.array([1.0, 0.0])}, "needs unit vectors"),
        ({"statistic": "matrix_element", "u": np.array([1.0, 1.0]), "v": np.array([0.0, 1.0])},
         "u must be a unit vector"),
        ({"rate_power": 0.3}, "rate_power"),
        ({"u": np.array([1.0, 0.0])}, "exactly when statistic is 'matrix_element'"),
        ({"statistic": "log_det", "u": np.array([1.0, 0.0]), "v": np.array([0.0, 1.0])},
         "exactly when statistic is 'matrix_element'"),
    ],
)
def test_tail_curves_check_their_arguments_before_any_draw(monkeypatch, bad, match):
    draws = []

    def spy(*args):
        draws.append(args)
        raise AssertionError("sample_windows called before the arguments were checked")

    monkeypatch.setattr(estimators, "sample_windows", spy)
    kwargs = {"statistic": "log_norm", **bad}
    with pytest.raises(ValueError, match=match):
        lde_curve(BERNOULLI_LAW, 0.0, 0.1, [8, 16], 100, RngStream(40), **kwargs)
    with pytest.raises(ValueError, match=match):
        lift_check(Identity(), BERNOULLI, 0.0, 0.1, [8, 16], 100, RngStream(40), **kwargs)
    assert draws == []


# ---------------------------------------------------------------------------
# lifting bound
# ---------------------------------------------------------------------------

def test_identity_densities_never_violate_the_bound():
    report = lift_check(
        Identity(), BERNOULLI, 0.0, 0.03, [16, 32, 64], 4000, RngStream(20)
    )
    assert report.violations == ()
    assert np.all(report.log_bound == 0.0)
    # same law on both sides: tails agree within a few combined errors
    for i in range(3):
        p0 = report.tails_approx[i]
        p1 = report.tails_exact[i]
        se = math.sqrt((p0 * (1 - p0) + p1 * (1 - p1)) / report.samples)
        assert abs(p0 - p1) <= 4.0 * se + 1e-12


def test_finite_reweight_bound_is_the_constant_product():
    seq = AtomReweight(BERNOULLI, {0: (0.75, 0.25), 3: (0.25, 0.75)})
    report = lift_check(seq, BERNOULLI, 0.0, 0.03, [8, 16, 32], 4000, RngStream(21))
    assert report.violations == ()
    assert np.allclose(report.log_bound, 2 * math.log(1.5))


def test_bump_schedule_density_rate_vanishes():
    seq = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    report = lift_check(seq, BERNOULLI, 0.0, 0.025, [25, 50, 100, 200], 20_000, RngStream(22))
    assert report.violations == ()
    # the per-site rate of the product bound decays like log(n)/n
    assert report.density_rate < 2 * math.log(1.5) * (math.log2(200) + 1) / 200
    assert report.fit_approx.eta >= report.fit_exact.eta - report.density_rate - 3.0 * (
        report.fit_exact.stderr + report.fit_approx.stderr
    )


# ---------------------------------------------------------------------------
# deviation sets
# ---------------------------------------------------------------------------

def test_constant_potential_long_window_is_typical():
    window = PotentialWindow(0, 59, np.zeros(60))
    gamma = lyapunov_closed_form(0.0, 3.0)
    got = deviation_classify(window, (0, 59), 3.0, 0.1, gamma)
    assert got is DeviationClass.NEITHER


def test_single_site_overshoot():
    window = PotentialWindow(0, 0, np.array([4.0]))
    # log|V - E| = log 4; any gamma + eps below that overshoots
    got = deviation_classify(window, (0, 0), 0.0, 0.1, 0.5)
    assert got is DeviationClass.OVERSHOOT


def test_single_site_exact_zero_undershoots():
    window = PotentialWindow(0, 0, np.array([3.0]))
    got = deviation_classify(window, (0, 0), 3.0, 0.1, 0.5)
    assert got is DeviationClass.UNDERSHOOT


def test_classification_is_monotone_in_epsilon():
    rng = np.random.default_rng(23)
    window = PotentialWindow(0, 39, np.where(rng.random(40) < 0.5, -1.0, 1.0))
    gamma = 0.124
    for energy in (0.0, 0.5, 1.5):
        previous = None
        for eps in (0.01, 0.05, 0.1, 0.5, 1.0):
            got = deviation_classify(window, (0, 39), energy, eps, gamma)
            if previous is DeviationClass.NEITHER:
                assert got is DeviationClass.NEITHER
            previous = got


# ---------------------------------------------------------------------------
# deterministic scans
# ---------------------------------------------------------------------------

def test_constant_potential_scan_has_tiny_excess():
    n_max = 400
    window = PotentialWindow(-n_max, 3 * n_max + 1, np.zeros(4 * n_max + 2))
    e_grid = [2.5, 3.0, 4.0]
    gamma = [lyapunov_closed_form(0.0, e) for e in e_grid]
    scan = craig_simon_scan(window, e_grid, [100, 200, 400], gamma)
    assert scan.max_excess < 0.02
    assert set(scan.family_max()) == {
        "forward", "backward_inverse", "shifted_forward", "shifted_inverse"
    }


def test_free_operator_inside_band_stays_bounded():
    n_max = 1000
    window = PotentialWindow(-n_max, 3 * n_max + 1, np.zeros(4 * n_max + 2))
    e_grid = [-1.5, -0.7, 0.3, 1.1]
    scan = craig_simon_scan(window, e_grid, [250, 500, 1000], [0.0] * 4)
    assert scan.max_excess < 0.05


def test_scan_requires_aligned_gamma():
    window = PotentialWindow(-8, 25, np.zeros(34))
    with pytest.raises(ValueError, match="align"):
        craig_simon_scan(window, [0.0, 1.0], [8], [0.0])


def test_scan_window_must_cover_the_families():
    # the shifted inverse family at n = 4 reaches site 12
    window = PotentialWindow(-4, 10, np.zeros(15))
    with pytest.raises(ValueError, match=r"must contain sites \[-4, 12\]"):
        craig_simon_scan(window, [0.0], [4], [0.0])


def test_scan_rejects_radius_one():
    # the shifted inverse family spans sites [2n+2, 3n], empty at n = 1
    window = PotentialWindow(-8, 25, np.zeros(34))
    with pytest.raises(ValueError, match=r"n_grid entries must be >= 2"):
        craig_simon_scan(window, [0.0], [1, 8], [0.0])


# ---------------------------------------------------------------------------
# submean diagnostic
# ---------------------------------------------------------------------------

def test_harmonic_region_circle_average_matches_quadrature():
    # constant potential: the rate is harmonic off the band, so the m-point
    # average equals the center value and the dense quadrature average
    law = constant_law(0.0)
    res = submean_check(law, 4.0 + 0.0j, 0.5, 32, 512, 2, RngStream(24))
    thetas = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    quad = np.mean(
        [lyapunov_closed_form(0.0, 4.0 + 0.5 * cmath.exp(1j * t)) for t in thetas]
    )
    center = lyapunov_closed_form(0.0, 4.0)
    assert res.difference == pytest.approx(quad - center, abs=1e-3)
    assert abs(res.difference) < 1e-3


def test_bernoulli_submean_inequality():
    res = submean_check(BERNOULLI_LAW, 0.0 + 0.0j, 0.3, 8, 1500, 48, RngStream(25))
    assert res.difference >= -3.0 * res.stderr


def test_submean_input_validation():
    with pytest.raises(ValueError):
        submean_check(BERNOULLI_LAW, 0.0, -1.0, 8, 10, 2, RngStream(26))
    with pytest.raises(ValueError):
        submean_check(BERNOULLI_LAW, 0.0, 0.5, 4, 10, 2, RngStream(26))


# ---------------------------------------------------------------------------
# tail estimates
# ---------------------------------------------------------------------------

def test_tail_estimate_normal_and_wilson_regimes():
    p, se = tail_estimate(5000, 10_000)
    assert p == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 10_000))
    p0, se0 = tail_estimate(0, 10_000)
    assert p0 > 0.0  # Wilson keeps zero counts usable
    assert se0 > 0.0
    p1, _ = tail_estimate(3, 10_000)
    assert p1 > 3 / 10_000
