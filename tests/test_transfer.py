import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import anderson_lab.transfer as transfer
from anderson_lab.estimators import _statistic_logs
from anderson_lab.transfer import (
    ScaledMatrix,
    SignedLog,
    block_identity_check,
    centered_batch,
    det_recurrence,
    interval_det,
    log_det_abs_batch,
    log_norm_batch,
    matrix_batch,
    matrix_element,
    one_step,
    product,
    vector_growth_logs,
)

E1 = np.array([1.0, 0.0])


def bernoulli_window(rng, n):
    return np.where(rng.random(n) < 0.5, -1.0, 1.0)


# ---------------------------------------------------------------------------
# signed-log scalars
# ---------------------------------------------------------------------------

def test_signed_log_zero_marker_is_consistent():
    z = SignedLog.zero()
    assert z.is_zero() and z.value() == 0.0
    with pytest.raises(ValueError):
        SignedLog(0.0, 1.0)
    with pytest.raises(ValueError):
        SignedLog(1.0, -math.inf)


def test_signed_log_round_trip_and_arithmetic():
    a = SignedLog.from_value(-12.5)
    assert a.sign == -1.0 and a.value() == pytest.approx(-12.5)
    b = SignedLog.from_value(0.25)
    assert (a * b).value() == pytest.approx(-3.125)
    assert (a / b).value() == pytest.approx(-50.0)
    c = SignedLog.from_value(1j)
    assert abs(c.sign - 1j) < 1e-15 and c.log_mag == 0.0


# ---------------------------------------------------------------------------
# one-step factors and products
# ---------------------------------------------------------------------------

def test_one_step_entries_are_exact():
    s = one_step(0.0, 0.0)
    assert np.array_equal(s.dense(), np.array([[0.0, -1.0], [1.0, 0.0]]))
    s = one_step(3.0, 1.0)
    assert np.array_equal(s.dense(), np.array([[2.0, -1.0], [1.0, 0.0]]))
    assert s.det().value() == pytest.approx(1.0)
    s = one_step(1j, 0.0)
    assert s.entries[0, 0] == 1j
    assert abs(s.det().value() - 1.0) < 1e-15


def test_zero_matrix_is_rejected():
    with pytest.raises(ValueError):
        ScaledMatrix(np.zeros((2, 2)), 0.0)


def test_free_product_of_length_four_is_identity():
    s = product(0.0, np.zeros(4))
    assert np.allclose(s.dense(), np.eye(2), atol=1e-15)
    assert s.log_scale == 0.0


def test_constant_potential_growth_matches_top_eigenvalue():
    n = 4000
    s = product(3.0, np.zeros(n))
    rate = s.log_norm() / n
    assert rate == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-3)


def test_product_matches_naive_matmul_on_short_windows():
    rng = np.random.default_rng(100)
    for _ in range(50):
        n = int(rng.integers(1, 31))
        window = bernoulli_window(rng, n)
        energy = float(rng.uniform(-2.5, 2.5))
        s = product(energy, window)
        naive = np.eye(2)
        for v in window:
            naive = np.array([[energy - v, -1.0], [1.0, 0.0]]) @ naive
        assert np.allclose(s.dense(), naive, rtol=1e-8)


def test_product_requires_nonempty_window():
    with pytest.raises(ValueError):
        product(0.0, np.array([]))


def test_unit_determinant_drift_stays_tiny():
    rng = np.random.default_rng(101)
    for n in (10, 1000, 100_000):
        s = product(0.8, bernoulli_window(rng, n))
        assert s.det_drift() <= 1e-8 + 1e-12 * n


def test_complex_energy_conjugation_equivariance():
    rng = np.random.default_rng(102)
    window = bernoulli_window(rng, 200)
    z = 0.3 + 0.7j
    s = product(z, window)
    s_bar = product(z.conjugate(), window)
    assert np.allclose(s_bar.entries, s.entries.conjugate(), rtol=1e-12)
    assert s_bar.log_scale == s.log_scale


def test_real_inputs_give_real_entries():
    s = product(1.5, np.array([1.0, -1.0, 1.0]))
    assert not np.iscomplexobj(s.entries)


def test_cocycle_property():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(4, 400))
        cut = int(rng.integers(1, n))
        window = bernoulli_window(rng, n)
        energy = float(rng.uniform(-2, 2))
        whole = product(energy, window)
        left = product(energy, window[:cut])
        right = product(energy, window[cut:])
        combined = right @ left
        with np.errstate(divide="ignore"):
            log_whole = np.log(np.abs(whole.entries)) + whole.log_scale
            log_comb = np.log(np.abs(combined.entries)) + combined.log_scale
        both_finite = np.isfinite(log_whole) & np.isfinite(log_comb)
        assert np.all(np.abs(log_whole[both_finite] - log_comb[both_finite]) < 1e-9 * n)


# ---------------------------------------------------------------------------
# determinant recurrence
# ---------------------------------------------------------------------------

def test_single_site_determinant():
    dets = det_recurrence(0.0, np.array([2.0]))
    assert dets[0].sign == 1.0
    assert dets[0].log_mag == pytest.approx(math.log(2.0))


def test_two_free_sites_give_minus_one():
    dets = det_recurrence(0.0, np.zeros(2))
    assert dets[-1].sign == -1.0
    assert dets[-1].log_mag == pytest.approx(0.0, abs=1e-15)


def test_exact_zero_marks_with_minus_inf():
    dets = det_recurrence(5.0, np.array([5.0]))
    assert dets[0].is_zero() and dets[0].log_mag == -math.inf


def test_recurrence_matches_dense_determinant():
    rng = np.random.default_rng(104)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        window = rng.uniform(-2, 2, n)
        energy = float(rng.uniform(-3, 3))
        dets = det_recurrence(energy, window)
        m = np.diag(window - energy)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = 1.0
        sign, logdet = np.linalg.slogdet(m)
        assert dets[-1].sign == sign
        assert dets[-1].log_mag == pytest.approx(logdet, abs=1e-8)


def test_recurrence_scales_past_float_range():
    # 1e5 strongly hyperbolic sites: |det| overflows any double
    dets = det_recurrence(0.0, np.full(100_000, 5.0))
    assert dets[-1].log_mag > 1e5
    assert math.isfinite(dets[-1].log_mag)


def test_empty_interval_convention():
    assert interval_det(1.0, np.array([])).value() == 1.0
    sign, log_mag = interval_det(np.array([1.0, 2.0]), np.array([]))
    assert list(sign) == [1.0, 1.0] and list(log_mag) == [0.0, 0.0]


def _reference_recurrence(energy, values):
    """The scalar loop: every step in plain floats, guard inline, and the
    pair scaled by an exact power of two whenever its peak leaves
    ``[2**-16, 2**16]`` (room for one step past a site at 1e300).  Returns
    the prefix determinants in the canonical form (log of the frexp fraction
    plus exponent and shift times ln 2, with the kernel's log function) and
    the number of guarded steps whose double-double value differs from the
    plain one."""
    prev, prev2, shift, out, differs = 1.0, 0.0, 0, [], 0
    for v in values:
        d = float(v) - energy
        t1 = d * prev
        p = t1 - prev2
        if abs(p) < transfer.CANCELLATION_GUARD * max(abs(t1), abs(prev2)):
            hi, lo = transfer._two_prod(d, prev)
            s, err = transfer._two_sum(hi, -prev2)
            q = s + (err + lo)
            differs += q != p
            p = q
        prev2, prev = prev, p
        peak = max(abs(prev), abs(prev2))
        if not 2.0**-16 <= peak <= 2.0**16:
            exponent = math.frexp(peak)[1]
            prev, prev2 = math.ldexp(prev, -exponent), math.ldexp(prev2, -exponent)
            shift += exponent
        if prev == 0:
            out.append(SignedLog.zero())
            continue
        fraction, exponent = math.frexp(abs(prev))
        log_mag = np.log(fraction) + (exponent + shift) * math.log(2.0)
        out.append(SignedLog(math.copysign(1.0, prev), float(log_mag)))
    return out, differs


def test_recurrence_lanes_are_bit_identical_to_the_scalar_loop():
    rng = np.random.default_rng(110)
    differs = 0
    for trial in range(40):
        m = int(rng.integers(1, 300))
        kind = trial % 4
        if kind == 0:
            values = rng.uniform(-2.0, 2.0, m)
        elif kind == 1:
            values = bernoulli_window(rng, m)
        elif kind == 2:  # rescales every few sites
            values = rng.uniform(-2.0, 2.0, m) * 10.0 ** rng.integers(0, 120, m)
        else:
            values = rng.integers(-3, 4, m).astype(float)
        energies = [0.0, 0.5, float(rng.uniform(-3.0, 3.0))]
        if kind in (0, 3):  # eigenvalues: the last steps cancel with round-off
            h = np.diag(values) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
            energies += list(np.linalg.eigvalsh(h)[:: max(1, m // 4)])
        sign, log_mag = det_recurrence(np.array(energies), values)
        for i, energy in enumerate(energies):
            want, n = _reference_recurrence(float(energy), values)
            differs += n
            assert [d.sign for d in want] == list(sign[:, i])
            assert [d.log_mag for d in want] == list(log_mag[:, i])
            got = det_recurrence(float(energy), values)
            assert [(d.sign, d.log_mag) for d in got] == [(d.sign, d.log_mag) for d in want]
    assert differs > 0  # the guard recompute changed some steps


def test_recurrence_lanes_match_one_lane_calls(monkeypatch):
    # site-major columns: an exact zero at step 1 (E equals the single-site
    # V), a cancellation at step 2 ([1, 1] at E = 0), growth past the 1e150
    # rescale, and a plain lane
    window = np.array([
        [5.0, 1.0, 1e100, 0.3],
        [2.0, 1.0, 1e100, -1.2],
        [-1.0, 0.5, 1e100, 2.2],
    ])
    energies = np.array([5.0, 0.0, 0.0, 0.7])
    guarded = []
    two_prod = transfer._two_prod

    def counting_two_prod(a, b):
        guarded.append(np.size(a))
        return two_prod(a, b)

    monkeypatch.setattr(transfer, "_two_prod", counting_two_prod)
    sign, log_mag = det_recurrence(energies, window)
    assert guarded == [1]  # only the [1, 1] lane, only at step 2
    assert sign.shape == log_mag.shape == (3, 4)
    assert sign[0, 0] == 0.0 and log_mag[0, 0] == -math.inf
    assert log_mag[-1, 2] == pytest.approx(300 * math.log(10.0), rel=1e-14)
    for i, energy in enumerate(energies):
        one_lane = det_recurrence(float(energy), window[:, i])
        assert list(sign[:, i]) == [d.sign for d in one_lane]
        assert list(log_mag[:, i]) == [d.log_mag for d in one_lane]
    # reading chosen steps gives the same values
    sign2, log2 = det_recurrence(energies, window, (3, 1))
    assert np.array_equal(sign2, sign[[0, 2]]) and np.array_equal(log2, log_mag[[0, 2]])
    last = interval_det(energies, window)
    assert np.array_equal(last[0], sign[-1]) and np.array_equal(last[1], log_mag[-1])


def test_recurrence_rejects_empty_steps():
    with pytest.raises(ValueError, match="steps must lie"):
        det_recurrence(0.0, np.array([1.0, 2.0]), [])


def test_recurrence_rejects_non_finite_potentials():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any arithmetic sees them
        with pytest.raises(ValueError, match=r"window\[0\] is nan"):
            det_recurrence(0.0, [math.nan, 2.0])
        with pytest.raises(ValueError, match=r"window\[2, 1\] is -inf"):
            det_recurrence(np.zeros(2), np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -math.inf]]))
        with pytest.raises(ValueError, match=r"window\[1\] is inf"):
            interval_det(0.5, [1.0, math.inf])


def test_recurrence_one_site_blocks_stay_finite_and_exact(monkeypatch):
    # one site at 1e300 passes the headroom alone, so it is a block of its
    # own, starting from a pair scaled into [1, 2)
    assert math.log2(1e300 + 1.0) > transfer._HEADROOM
    rng = np.random.default_rng(118)
    values = rng.uniform(-2.0, 2.0, 300)
    huge = rng.random(300) < 0.3
    huge[100:110] = True  # a run of them
    values[huge] = rng.choice([-1e300, 1e300], int(huge.sum()))
    energies = [0.0, 0.5, float(rng.uniform(-3.0, 3.0))]
    blocks = []
    rescale = transfer._rescale

    def counting_rescale(pair, shift):
        blocks.append(1)
        rescale(pair, shift)

    monkeypatch.setattr(transfer, "_rescale", counting_rescale)
    sign, log_mag = det_recurrence(np.array(energies), values)
    assert len(blocks) >= huge.sum()
    assert np.all(sign != 0) and np.all(np.isfinite(log_mag))
    assert log_mag[-1, 0] > 300 * math.log(10.0) * huge.sum() - 300
    for i, energy in enumerate(energies):
        want, _ = _reference_recurrence(energy, values)
        assert [d.sign for d in want] == list(sign[:, i])
        assert [d.log_mag for d in want] == list(log_mag[:, i])
        got = det_recurrence(energy, values)
        assert [(d.sign, d.log_mag) for d in got] == [(d.sign, d.log_mag) for d in want]


def test_guard_reads_one_scale_after_a_mid_block_rescale(monkeypatch):
    # one block holds a site at 1e200 (a rescale before it, mid-block), then a
    # site whose plain step cancels and whose value the guard changes, then
    # another 1e200 site right after it: the guard must read the rows of that
    # site at one scale, so no rescale may fall inside the stretch it checks
    rng = np.random.default_rng(120)
    values = rng.uniform(-2.0, 2.0, 60)
    values[20] = values[31] = 1e200
    prev, prev2 = 1.0, 0.0
    for v in values[:30]:  # the plain float recurrence at E = 0: P_30, P_29
        prev, prev2 = v * prev - prev2, prev
    values[30] = prev2 / prev  # so P_31 = V_30 P_30 - P_29 cancels
    assert len(values) <= transfer._BLOCK
    want, differs = _reference_recurrence(0.0, values)
    assert differs == 1
    events = []
    rescale, two_prod = transfer._rescale, transfer._two_prod

    def logging_rescale(pair, shift):
        events.append("rescale")
        rescale(pair, shift)

    def logging_two_prod(a, b):
        events.append("two_prod")
        return two_prod(a, b)

    monkeypatch.setattr(transfer, "_rescale", logging_rescale)
    monkeypatch.setattr(transfer, "_two_prod", logging_two_prod)
    (got,) = det_recurrence(0.0, values, (len(values),))
    assert (got.sign, got.log_mag) == (want[-1].sign, want[-1].log_mag)
    # both ran inside the one block, the mid-block rescale before the guard
    assert "two_prod" in events
    assert "rescale" in events[: events.index("two_prod")]


def _exact_prefix_dets(energy, values):
    """Prefix determinants of the recurrence in exact rational arithmetic."""
    p, p_prev, out = Fraction(1), Fraction(0), []
    for v in values:
        p, p_prev = (Fraction(v) - Fraction(energy)) * p - p_prev, p
        out.append(p)
    return out


def _exact_product(energy, values):
    """The interval product in exact rational arithmetic, as four entries in
    row order: each site's factor ``[[E - V, -1], [1, 0]]`` goes on the left."""
    top, bottom = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    for v in values:
        d = Fraction(energy) - Fraction(v)
        top, bottom = [d * top[0] - bottom[0], d * top[1] - bottom[1]], top
    return top + bottom


def test_products_match_an_exact_rational_oracle():
    # the product entries checked against exact arithmetic, not against the
    # determinants, which come from the same kernel; dyadic windows this short
    # keep every kernel step exact, so checkpoints (scaled by 2**shift) match
    # bit for bit, and the normalized product within its final rounding
    rng = np.random.default_rng(119)
    cases = [(0.0, [0.0] * n) for n in (1, 2, 3, 4)]  # quarter turns: exact zeros
    cases += [(0.0, [1.0, 1.0]), (0.5, [0.5, -0.75, 0.5]), (-1.25, [-1.25])]
    for _ in range(60):
        n = int(rng.integers(1, 9))
        energy = float(rng.choice([0.0, 0.5, -1.25, 2.0]))
        cases.append((energy, (rng.integers(-12, 13, n) / 4).tolist()))
    zeros = 0
    for energy, values in cases:
        want = _exact_product(energy, values)
        s = product(energy, values)
        for got, exact in zip(s.entries.ravel().tolist(), want):
            if exact == 0:
                assert got == 0.0
                zeros += 1
                continue
            assert math.copysign(1.0, got) == (1.0 if exact > 0 else -1.0)
            log_got = math.log(abs(got)) + s.log_scale
            assert log_got == pytest.approx(math.log(abs(exact)), abs=1e-13)
        marks = range(len(values) + 1)
        *entries, log_scale = matrix_batch(energy, np.array([values]), marks)
        for k in marks:
            shift = Fraction(2) ** round(log_scale[k, 0] / math.log(2.0))
            got = [Fraction(float(e[k, 0])) * shift for e in entries]
            assert got == _exact_product(energy, values[:k])
    assert zeros >= 10


def test_guard_splits_huge_operands_exactly():
    # 134217729 * a overflows for |a| above about 1.34e300; the split of a
    # pre-scaled operand keeps the product error-free
    for a, b in ((1.5e300, 1.0 / 1.5e300), (-1.7e308, 0.75), (2.0**1000 + 3.0, -1.0 + 2.0**-40),
                 (3.0, 1.1e305), (1.2e300, 1.0 / 1.2e300)):
        p, err = transfer._two_prod(a, b)
        assert Fraction(p) + Fraction(err) == Fraction(a) * Fraction(b), (a, b)
    for big in (1.2e300, 1.5e300, 1e307):
        values = [1.0 / big, big, 1.0]
        got = det_recurrence(0.0, values)
        for d, want in zip(got, _exact_prefix_dets(0.0, values)):
            assert d.sign == (1.0 if want > 0 else -1.0)
            assert math.isclose(d.log_mag, math.log(abs(want)), rel_tol=1e-14), big


def test_kernels_name_the_magnitude_limit():
    below = np.nextafter(2.0**1023, 0.0)
    for huge in (below, -below):
        values = np.array([huge, huge, 1.0])
        _, log_mag = det_recurrence(np.zeros(1), values)
        assert np.all(np.isfinite(log_mag))
        assert np.all(np.isfinite(matrix_batch(0.0, values[None, :])[4]))
        assert np.all(np.isfinite(vector_growth_logs(0.0, values[None, :], (1, 2, 3))))
    for at in (2.0**1023, 1.7e308, -np.finfo(float).max):
        values = np.array([0.5, 1.0, at, 1.0])
        calls = (
            lambda: det_recurrence(0.0, values),
            lambda: det_recurrence(np.zeros(2), np.stack([np.ones(4), values], axis=1)),
            lambda: matrix_batch(0.0, np.stack([np.ones(4), values])),
            lambda: vector_growth_logs(0.0, values[None, :], (4,)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"below 2\*\*1023 .*site 2 of the window"):
                call()
    # |V - E| past the limit from a finite V and a finite energy
    with pytest.raises(ValueError, match="site 0"), np.errstate(over="ignore"):
        matrix_batch(-1e308, [[1e308, 1.0]])
    # an infinite potential is not the kernel's to name: it flows on as before
    with np.errstate(invalid="ignore"):
        assert np.isnan(matrix_batch(0.0, [[1.0, math.inf, 1.0]])[0][0])


def test_overflowing_energy_difference_raises_before_any_warning():
    # E - V overflows from a finite energy and potential: the kernels name the
    # site in their ValueError, with no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="site 0"):
            matrix_batch(-1e308, [[1e308, 1.0]])
        with pytest.raises(ValueError, match="site 1"):
            vector_growth_logs(-8.9e307, np.array([[0.0, 1.7e308, 1.0]]), (3,))


# ---------------------------------------------------------------------------
# matrix elements and the block identity
# ---------------------------------------------------------------------------

def test_matrix_element_zero_and_value():
    s = one_step(0.0, 0.0)
    assert matrix_element(E1, s, E1).is_zero()
    s = one_step(0.0, 5.0)
    elem = matrix_element(E1, s, E1)
    assert elem.sign == -1.0
    assert elem.log_mag == pytest.approx(math.log(5.0))


def test_matrix_element_requires_unit_vectors():
    with pytest.raises(ValueError, match="unit"):
        matrix_element(np.array([2.0, 0.0]), one_step(0.0, 0.0), E1)


def test_corner_element_equals_interval_determinant():
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        window = bernoulli_window(rng, n)
        energy = float(rng.uniform(-2, 2))
        s = product(energy, window)
        elem = matrix_element(E1, s, E1)
        det = det_recurrence(energy, window)[-1]
        assert elem.log_mag == pytest.approx(det.log_mag, abs=1e-8)


def test_block_identity_free_length_two():
    assert block_identity_check(0.0, np.zeros(2)) <= 1e-10


def test_block_identity_constant_potential_against_recurrence_oracle():
    # closed-form oracle: p_k = 5 p_{k-1} - p_{k-2} iterated in exact integers
    p_prev, p = 1, 5
    seq = [p]
    for _ in range(9):
        p_prev, p = p, 5 * p - p_prev
        seq.append(p)
    s = product(0.0, np.full(10, 5.0))
    top_left = s.log_scale + math.log(abs(s.entries[0, 0]))
    assert top_left == pytest.approx(math.log(seq[-1]), abs=1e-8)
    assert block_identity_check(0.0, np.full(10, 5.0)) <= 1e-8


def _all_prefix_block_identity(energy, values):
    """The check as it was, reading the four determinants off every-prefix runs."""
    s = product(energy, values)
    full = det_recurrence(energy, values)
    inner = det_recurrence(energy, values[1:])
    dets = [full[-1], inner[-1], full[-2], inner[-2] if len(inner) >= 2 else SignedLog.one()]
    with np.errstate(divide="ignore"):
        entry_logs = (s.log_scale + np.log(np.abs(s.entries).ravel())).tolist()
    worst = 0.0
    for got, want in zip(entry_logs, dets):
        if got == -math.inf and want.log_mag == -math.inf:
            continue
        if got == -math.inf or want.log_mag == -math.inf:
            return math.inf
        worst = max(worst, abs(got - want.log_mag))
    return worst


def test_block_identity_reads_two_prefixes_bit_for_bit():
    rng = np.random.default_rng(77)
    cases = [(0.0, np.zeros(n)) for n in (2, 3, 4, 5)]  # exact zeros, length-1 inner
    for n in (2, 3, 17, 300, 1000):
        cases.append((float(rng.uniform(-3.0, 3.0)), bernoulli_window(rng, n)))
        cases.append((float(rng.uniform(-3.0, 3.0)), rng.uniform(-1.0, 1.0, n)))
        cases.append((0.0, 1e120 * rng.uniform(-1.0, 1.0, n)))
    for energy, values in cases:
        assert block_identity_check(energy, values) == _all_prefix_block_identity(energy, values)


def test_block_identity_long_random_window():
    rng = np.random.default_rng(106)
    window = bernoulli_window(rng, 1000)
    assert block_identity_check(0.37, window) <= 1e-6


# ---------------------------------------------------------------------------
# batched drivers agree with the scalar paths
# ---------------------------------------------------------------------------

def test_matrix_batch_matches_scalar_product():
    rng = np.random.default_rng(107)
    windows = np.where(rng.random((8, 300)) < 0.5, -1.0, 1.0)
    energy = 0.4
    s00, s01, s10, s11, ls = matrix_batch(energy, windows)
    norms = log_norm_batch(s00, s01, s10, s11, ls)
    det_logs = log_det_abs_batch(s00, s01, s10, s11, ls)
    for i in range(8):
        s = product(energy, windows[i])
        assert norms[i] == pytest.approx(s.log_norm(), abs=1e-10)
        det = det_recurrence(energy, windows[i])[-1]
        assert det_logs[i] == pytest.approx(det.log_mag, abs=1e-8)


def test_matrix_batch_energy_per_row():
    window = np.array([1.0, -1.0, 1.0, 1.0])
    energies = np.array([0.0, 0.5, 2.0])
    tiled = np.tile(window, (3, 1))
    s00, _, _, _, ls = matrix_batch(energies, tiled)
    for i, e in enumerate(energies):
        s = product(float(e), window)
        assert ls[i] + math.log(abs(s00[i])) == pytest.approx(
            s.log_scale + math.log(abs(s.entries[0, 0])), abs=1e-12
        )


def test_vector_growth_checkpoints():
    # constant hyperbolic potential: growth between checkpoints is exactly
    # the top eigenvalue rate once the transient is burned off
    window = np.zeros((1, 300))
    logs = vector_growth_logs(3.0, window, (100, 300))
    rate = (logs[1, 0] - logs[0, 0]) / 200
    assert rate == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-12)
    # free elliptic orbit: no growth at all
    logs = vector_growth_logs(0.0, window, (0, 300))
    assert logs[1, 0] - logs[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_renormalized_entries_peak_at_one():
    rng = np.random.default_rng(108)
    for _ in range(10):
        n = int(rng.integers(1, 500))
        s = product(float(rng.uniform(-3, 3)), bernoulli_window(rng, n))
        peak = float(np.max(np.abs(s.entries)))
        assert 0.5 <= peak <= 1.0
        assert peak == pytest.approx(1.0, abs=1e-15)


def test_matrix_batch_complex_energy_matches_scalar():
    rng = np.random.default_rng(109)
    windows = np.where(rng.random((4, 80)) < 0.5, -1.0, 1.0)
    z = 0.4 + 0.6j
    s00, s01, s10, s11, ls = matrix_batch(z, windows)
    norms = log_norm_batch(s00, s01, s10, s11, ls)
    for i in range(4):
        s = product(z, windows[i])
        assert norms[i] == pytest.approx(s.log_norm(), abs=1e-10)
        assert s00[i] == pytest.approx(s.entries[0, 0], rel=1e-12)


# ---------------------------------------------------------------------------
# the rescaled kernel against the per-site loops it replaced
# ---------------------------------------------------------------------------

def _reference_matrix_batch(energy, windows):
    """The per-site loop: normalize by the peak entry after every site."""
    count, n_sites = windows.shape
    e = np.asarray(energy)
    dtype = complex if np.iscomplexobj(e) and np.any(e.imag != 0) else float
    e = e.astype(dtype)
    s00, s01 = np.ones(count, dtype=dtype), np.zeros(count, dtype=dtype)
    s10, s11 = np.zeros(count, dtype=dtype), np.ones(count, dtype=dtype)
    log_scale = np.zeros(count)
    for k in range(n_sites):
        d = e - windows[:, k]
        s00, s01, s10, s11 = d * s00 - s10, d * s01 - s11, s00, s01
        peak = np.maximum.reduce([np.abs(s00), np.abs(s01), np.abs(s10), np.abs(s11)])
        s00, s01, s10, s11 = s00 / peak, s01 / peak, s10 / peak, s11 / peak
        log_scale = log_scale + np.log(peak)
    return s00, s01, s10, s11, log_scale


def _reference_vector_growth_logs(energy, windows, checkpoints):
    """The per-site loop: normalize the vector after every site."""
    count, n_sites = windows.shape
    dtype = complex if isinstance(energy, complex) and energy.imag != 0 else float
    x, y, acc = np.ones(count, dtype=dtype), np.zeros(count, dtype=dtype), np.zeros(count)
    recorded = {0: acc.copy()}
    for k in range(n_sites):
        x, y = (energy - windows[:, k]) * x - y, x
        peak = np.maximum(np.abs(x), np.abs(y))
        x, y, acc = x / peak, y / peak, acc + np.log(peak)
        recorded[k + 1] = acc + 0.5 * np.log(np.abs(x) ** 2 + np.abs(y) ** 2)
    return np.array([recorded[c] for c in checkpoints])


def _kernel_windows(kind, rng, count, n):
    if kind == "bernoulli":
        return bernoulli_window(rng, (count, n))
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, (count, n))
    # symmetric Pareto tail with exponent 1.5, plus sites at +-1e200
    values = (rng.pareto(1.5, (count, n)) + 1.0) * np.where(rng.random((count, n)) < 0.5, -1, 1)
    huge = rng.random((count, n)) < 0.02
    values[huge] = np.where(rng.random(np.count_nonzero(huge)) < 0.5, -1e200, 1e200)
    return values


UNIT_U = np.array([0.6, 0.8])
UNIT_V = np.array([1.0, 1.0]) / math.sqrt(2.0)


@pytest.mark.parametrize("kind", ["bernoulli", "uniform", "pareto"])
def test_rescaled_kernel_matches_the_per_site_loops(kind):
    # logs agree to 1e-12 (absolutely too: a log difference is the relative
    # error of the norm itself), every value is finite except the -inf of an
    # exact zero, and no numpy warning
    rng = np.random.default_rng(111)
    for n in (1, 2, 63, 64, 65, 300, 1500):
        for energy in (0.0, 0.37, 2.9, 0.4 + 0.6j, -1.5 + 1e-3j):
            windows = _kernel_windows(kind, rng, 13, n)
            marks = (n, 0, n // 2, min(n, 64))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = matrix_batch(energy, windows)
                stats = {s: _statistic_logs(s, batch, UNIT_U, UNIT_V) for s in
                         ("log_norm", "log_det", "matrix_element")}
                logs = vector_growth_logs(energy, windows, marks)
            want = _reference_matrix_batch(energy, windows)
            with np.errstate(divide="ignore"):
                for name, got in stats.items():
                    # Bernoulli windows at E = 0 have exact zeros, marked -inf
                    finite = np.isfinite(got) | ((got == -np.inf) & (kind == "bernoulli"))
                    assert np.all(finite), (name, n, energy)
                    ref = _statistic_logs(name, want, UNIT_U, UNIT_V)
                    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            assert np.all(np.isfinite(logs)) and np.all(logs[1] == 0.0)
            ref = _reference_vector_growth_logs(energy, windows, marks)
            np.testing.assert_allclose(logs, ref, rtol=1e-12, atol=1e-12)
            # normalized entries: the largest magnitude of each product is 1
            peak = np.maximum.reduce([np.abs(s) for s in batch[:4]])
            np.testing.assert_allclose(peak, 1.0, rtol=0.0, atol=1e-15)


def test_rescaled_kernel_energy_per_lane_across_tiles():
    # more lanes than one transpose tile, one energy per lane
    rng = np.random.default_rng(112)
    windows = rng.uniform(-2.0, 2.0, (1100, 90))
    energies = np.linspace(-3.0, 3.0, 1100)
    got = matrix_batch(energies, windows)
    want = _reference_matrix_batch(energies, windows)
    np.testing.assert_allclose(log_norm_batch(*got), log_norm_batch(*want), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)


STATS = ("log_norm", "log_det", "matrix_element")


def test_energy_axis_broadcasts_against_the_window_rows():
    # (E, 1) energies against (S, m) windows give E x S lanes, equal to an
    # explicit call on tiled windows with one energy per row
    rng = np.random.default_rng(115)
    energies = np.array([0.0, 0.37, 2.9, 0.4 + 0.6j, -1.5 + 1e-3j])
    windows = np.concatenate([_kernel_windows(k, rng, 4, 150) for k in ("bernoulli", "pareto")])
    windows[0, 10], windows[5, 100], windows[6, 149] = 1e200, -1e200, 1e200
    tiled = np.tile(windows, (len(energies), 1))
    per_row = np.repeat(energies, len(windows))
    marks = (150, 0, 1, 64, 65, 77)
    lanes = (len(energies), len(windows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for checkpoints, lead in ((None, ()), (marks, (len(marks),))):
            got = matrix_batch(energies[:, None], windows, checkpoints)
            want = matrix_batch(per_row, tiled, checkpoints)
            assert all(a.shape == lead + lanes for a in got)
            for stat in STATS:
                with np.errstate(divide="ignore"):
                    g = _statistic_logs(stat, got, UNIT_U, UNIT_V)
                    w = _statistic_logs(stat, want, UNIT_U, UNIT_V).reshape(g.shape)
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
        logs = vector_growth_logs(energies[:, None], windows, marks)
        ref = vector_growth_logs(per_row, tiled, marks)
    assert logs.shape == (len(marks),) + lanes
    np.testing.assert_allclose(logs, ref.reshape(logs.shape), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpointed products and centered windows from two half passes
# ---------------------------------------------------------------------------


def test_matrix_batch_checkpoints_read_every_prefix():
    rng = np.random.default_rng(113)
    for kind in ("bernoulli", "uniform", "pareto"):
        for energy in (0.0, 0.37, 0.4 + 0.6j):
            windows = _kernel_windows(kind, rng, 17, 150)
            marks = (150, 0, 1, 64, 65, 77)
            batch = matrix_batch(energy, windows, marks)
            assert all(a.shape == (len(marks), 17) for a in batch)
            peak = np.maximum.reduce([np.abs(s) for s in batch[:4]])
            assert np.all((peak >= 1.0) & (peak < 2.0))
            np.testing.assert_array_equal(batch[0][1], 1.0)  # checkpoint 0: identity
            np.testing.assert_array_equal(batch[1][1], 0.0)
            np.testing.assert_array_equal(batch[4][1], 0.0)
            for j, mark in enumerate(marks[2:], start=2):
                direct = matrix_batch(energy, windows[:, :mark])
                for stat in STATS:
                    with np.errstate(divide="ignore"):
                        got = _statistic_logs(stat, tuple(a[j] for a in batch), UNIT_U, UNIT_V)
                        want = _statistic_logs(stat, direct, UNIT_U, UNIT_V)
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError, match="checkpoints"):
        matrix_batch(0.0, np.zeros((2, 5)), (6,))


def _split_log_condition(energy, windows, stat_logs):
    """Per lane, ``log max_k |S_[a,k]| |S_[k+1,b]| / |statistic|`` over every
    split of each window (the empty product counts as the identity): an error
    ``eps`` in any partial product moves the statistic's log by up to
    ``eps`` times this condition number."""
    length = windows.shape[1]
    marks = range(length + 1)
    prefix = log_norm_batch(*matrix_batch(energy, windows, marks))
    # suffixes from prefixes of the reversed sites: S_[k+1,b] = J P^t J
    suffix = log_norm_batch(*matrix_batch(energy, windows[:, ::-1], marks))[::-1]
    return np.max(prefix + suffix, axis=0) - stat_logs


@pytest.mark.parametrize("kind", ["bernoulli", "uniform", "pareto"])
def test_centered_products_match_the_full_window(kind):
    # R_n J P_n^t J against one matrix_batch pass over [-n, n]: within 1e-10
    # in the log where no split of the window is ill conditioned, and within
    # a few rounding units times the split condition number everywhere
    rng = np.random.default_rng(114)
    conditioned = total = 0
    for m, radii in ((1, (1,)), (150, (1, 2, 7, 64, 65, 150))):
        for energy in (0.0, 0.37, 2.9, 0.4 + 0.6j, -1.5 + 1e-3j):
            windows = _kernel_windows(kind, rng, 48, 2 * m + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                composed = centered_batch(energy, windows, radii)
            assert all(a.shape == (len(radii), 48) for a in composed)
            for j, n in enumerate(radii):
                sub = windows[:, m - n : m + n + 1]
                direct = matrix_batch(energy, sub)
                for stat in STATS:
                    with np.errstate(divide="ignore"):
                        got = _statistic_logs(stat, tuple(a[j] for a in composed), UNIT_U, UNIT_V)
                        want = _statistic_logs(stat, direct, UNIT_U, UNIT_V)
                        # an exact zero stays -inf, and -inf only marks one
                        np.testing.assert_array_equal(got == -np.inf, want == -np.inf)
                        zero = want == -np.inf
                        cond = _split_log_condition(energy, sub, want)
                    assert np.all(np.isfinite(got[~zero])), (stat, n, energy)
                    diff = np.abs(got[~zero] - want[~zero])
                    tol = 1e-10 + 1e-14 * np.exp(np.minimum(cond[~zero], 700.0))
                    assert np.all(diff <= tol), (stat, n, energy, diff.max())
                    calm = cond[~zero] < math.log(1e4)
                    assert np.all(diff[calm] <= 1e-10), (stat, n, energy)
                    conditioned += int(np.count_nonzero(calm))
                    total += int(np.count_nonzero(~zero))
    # the loose bound must not be what carries the test
    assert conditioned >= 0.95 * total


def test_centered_exact_zero_stays_minus_inf():
    # V == 0 at E = 0: every odd-length window has determinant exactly 0
    windows = np.zeros((3, 2 * 40 + 1))
    composed = centered_batch(0.0, windows, (1, 2, 7, 40))
    with np.errstate(divide="ignore"):
        logs = _statistic_logs("log_det", composed, UNIT_U, UNIT_V)
    assert np.all(logs == -np.inf)
    # each factor is the quarter turn [[0, -1], [1, 0]], so S is a rotation
    np.testing.assert_allclose(log_norm_batch(*composed), 0.0, atol=1e-15)
    with pytest.raises(ValueError, match="odd length"):
        centered_batch(0.0, np.zeros((2, 4)), (1,))
