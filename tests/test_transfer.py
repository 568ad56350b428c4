import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import anderson_lab.transfer as transfer
from anderson_lab.estimators import _statistic_logs
from anderson_lab.transfer import (
    AtomWindows,
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


def test_energy_column_against_window_columns_equals_one_lane_calls():
    # (E, 1) energies against an (m, S) window give (k, E, S) prefix arrays
    window = np.array([
        [5.0, 1.0, 1e100, 0.3],
        [2.0, 1.0, 1e100, -1.2],
        [-1.0, 0.5, 1e100, 2.2],
    ])
    energies = np.array([[5.0], [0.0], [0.7]])
    sign, log_mag = det_recurrence(energies, window)
    assert sign.shape == log_mag.shape == (3, 3, 4)
    assert sign[0, 0, 0] == 0.0  # E = V at the single site
    for e, energy in enumerate(energies[:, 0]):
        for s in range(4):
            one_lane = det_recurrence(float(energy), window[:, s])
            assert list(sign[:, e, s]) == [d.sign for d in one_lane]
            assert list(log_mag[:, e, s]) == [d.log_mag for d in one_lane]
    last = interval_det(energies, window)
    assert np.array_equal(last[0], sign[-1]) and np.array_equal(last[1], log_mag[-1])
    empty = interval_det(energies, window[:0])
    assert np.array_equal(empty[0], np.ones((3, 4))) and np.array_equal(empty[1], np.zeros((3, 4)))


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


def test_matrix_element_is_the_bilinear_form_of_the_tail_statistic():
    # <u, S v> does not conjugate u: a complex u gives log|s00|, not a zero
    rng = np.random.default_rng(106)
    windows = rng.uniform(-2.0, 2.0, (3, 40))
    vectors = [
        (np.array([1j, 0.0]), E1),
        (np.array([0.6, 0.8j]), np.array([0.8, -0.6])),
        (np.array([0.6, 0.8]), np.array([1.0, 0.0])),
    ]
    for energy in (0.3, 0.3 + 0.2j):
        batch = matrix_batch(energy, windows)
        for u, v in vectors:
            want = _statistic_logs("matrix_element", batch, u, v)
            for i in range(len(windows)):
                entries = np.array([[batch[0][i], batch[1][i]], [batch[2][i], batch[3][i]]])
                got = matrix_element(u, ScaledMatrix(entries, float(batch[4][i])), v)
                assert got.log_mag == pytest.approx(want[i], rel=1e-13)
    s = product(0.3, windows[0])
    elem = matrix_element(np.array([1j, 0.0]), s, E1)
    assert elem.sign == pytest.approx(1j * np.sign(s.entries[0, 0]))
    assert elem.log_mag == pytest.approx(s.log_scale + math.log(abs(s.entries[0, 0])), rel=1e-15)


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


def test_wide_calls_take_shorter_blocks_and_the_same_bits():
    # 2x2 products over more than 2048 lanes pass _BLOCK_BYTES at 64 sites
    # per block, so the kernel takes 32: only the rescale points move, by
    # exact powers of two, so every lane equals its narrow call bit for bit
    rng = np.random.default_rng(117)
    windows = _kernel_windows("pareto", rng, 2100, 150)
    assert transfer._BLOCK_BYTES // (2 * 2100 * 8) < transfer._BLOCK
    assert transfer._BLOCK_BYTES // (2 * 700 * 8) >= transfer._BLOCK
    marks = (0, 1, 31, 32, 33, 64, 100, 150)
    for energy in (0.37, 0.4 + 0.6j):
        wide = matrix_batch(energy, windows, marks)
        for a in range(0, 2100, 700):
            narrow = matrix_batch(energy, windows[a : a + 700], marks)
            for got, want in zip(wide, narrow):
                np.testing.assert_array_equal(got[:, a : a + 700], want)


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


def _centered_agreement(energy, windows, radii, composed):
    """Check composed centered products against one matrix_batch pass over
    each ``[-n, n]``: within 1e-10 in the log where no split of the window
    is ill conditioned, and within a few rounding units times the split
    condition number everywhere.  Returns the conditioned and the total
    lane counts."""
    m = windows.shape[1] // 2
    conditioned = total = 0
    assert all(a.shape == (len(radii), len(windows)) for a in composed)
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
    return conditioned, total


@pytest.mark.parametrize("kind", ["bernoulli", "uniform", "pareto"])
def test_centered_products_match_the_full_window(kind):
    # R_n J P_n^t J against one matrix_batch pass over [-n, n]
    rng = np.random.default_rng(114)
    conditioned = total = 0
    for m, radii in ((1, (1,)), (150, (1, 2, 7, 64, 65, 150))):
        for energy in (0.0, 0.37, 2.9, 0.4 + 0.6j, -1.5 + 1e-3j):
            windows = _kernel_windows(kind, rng, 48, 2 * m + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                composed = centered_batch(energy, windows, radii)
            c, t = _centered_agreement(energy, windows, radii, composed)
            conditioned, total = conditioned + c, total + t
    # the loose bound must not be what carries the test
    assert conditioned >= 0.95 * total


@pytest.mark.parametrize("kind", ["bernoulli", "uniform", "pareto"])
def test_coupled_products_match_the_full_window_per_law(kind):
    # both laws of a coupled draw as lift_check reads them: one call on the
    # base block, then one on the same block after the redrawn columns are
    # written into it, each against matrix_batch over [-n, n] of its own
    # windows; the sites include both ends, adjacent pairs, site 0, and
    # sites past the largest radius
    rng = np.random.default_rng(115)
    conditioned = total = 0
    for m, radii, sites in (
        (1, (0, 1), (-1, 0, 1)),
        (150, (1, 2, 7, 64, 65, 120), (-150, -64, -3, -2, 0, 1, 2, 8, 64, 65, 119, 120, 140)),
    ):
        for energy in (0.0, 0.37, 2.9, 0.4 + 0.6j):
            windows = _kernel_windows(kind, rng, 48, 2 * m + 1)
            columns = _kernel_windows(kind, rng, 48, len(sites))
            base = windows.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                exact = centered_batch(energy, windows, radii)
                windows[:, [m + k for k in sites]] = columns
                approx = centered_batch(energy, windows, radii)
            for wins, composed in ((base, exact), (windows, approx)):
                c, t = _centered_agreement(energy, wins, radii, composed)
                conditioned, total = conditioned + c, total + t
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


def test_coupled_exact_zero_stays_minus_inf():
    # as above, with sites -2, 0 and 2 redrawn to 0.5 and written into the
    # block after the first law's call, as lift_check writes them.  At odd n
    # the n + 1 odd sites of [-n, n] have no diagonal entry and couple only
    # to the n even ones, so the redrawn determinant still vanishes exactly
    # and stays -inf through the composition; at even n it does not vanish
    windows = np.zeros((3, 2 * 40 + 1))
    radii = (1, 2, 7, 40)
    exact = centered_batch(0.0, windows, radii)
    windows[:, [38, 40, 42]] = 0.5
    approx = centered_batch(0.0, windows, radii)
    with np.errstate(divide="ignore"):
        logs = [_statistic_logs("log_det", law, UNIT_U, UNIT_V) for law in (exact, approx)]
    odd = np.array(radii) % 2 == 1
    assert np.all(logs[0] == -np.inf)
    assert np.all(logs[1][odd] == -np.inf) and np.all(np.isfinite(logs[1][~odd]))
    np.testing.assert_allclose(log_norm_batch(*exact), 0.0, atol=1e-15)


def test_centered_magnitude_error_names_the_lattice_site():
    # each half is its own kernel pass, yet the error names the site of the
    # window over [-m, m], on either half and at the centre, for values and
    # for atom windows alike
    for site in (-3, 0, 4):
        values = np.ones((2, 21))
        values[1, 10 + site] = 1.7e308
        atoms = AtomWindows((values > 1.0).astype(np.uint8), np.array([1.0, 1.7e308]))
        for windows in (values, atoms):
            with pytest.raises(ValueError, match=rf"\): site {site} of the window has V = 1\.7e\+308"):
                centered_batch(0.37, windows, (2, 5, 10))


# ---------------------------------------------------------------------------
# the table step of two-valued batches against the one-site step
# ---------------------------------------------------------------------------

TABLE_ENERGIES = (0.0, 0.37, 2.9, 0.4 + 0.6j)


def _one_site(call, energy, windows, *args, **kwargs):
    """``call`` on ``windows`` plus one row holding two more values, which
    sends the whole batch down the one-site step; that row's lane dropped."""
    third = np.concatenate([windows, np.resize([0.123, 0.456], (1, windows.shape[1]))])
    out = call(energy, third, *args, **kwargs)
    return tuple(a[..., :-1] for a in out) if isinstance(out, tuple) else out[..., :-1]


def _counting_tables(monkeypatch):
    built = []
    block_table = transfer._block_table

    def counting(e, values):
        built.append(tuple(values))
        return block_table(e, values)

    monkeypatch.setattr(transfer, "_block_table", counting)
    return built


def test_table_step_matches_the_one_site_step(monkeypatch):
    # two-valued and one-valued batches, marks off the 8-site grid
    rng = np.random.default_rng(118)
    built = _counting_tables(monkeypatch)
    marks = (0, 1, 5, 8, 13, 64, 77, 150, 300, 301)
    for windows in (bernoulli_window(rng, (30, 301)), np.full((5, 301), 0.5)):
        for energy in TABLE_ENERGIES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                built.clear()
                got = matrix_batch(energy, windows, marks)
                logs = vector_growth_logs(energy, windows, marks)
                assert len(built) == 2 and len(set(built[0])) == len(np.unique(windows))
                want = _one_site(matrix_batch, energy, windows, marks)
                ref = _one_site(vector_growth_logs, energy, windows, marks)
                assert len(built) == 2  # the third value took the one-site step
            for stat in STATS:
                with np.errstate(divide="ignore"):
                    g = _statistic_logs(stat, got, UNIT_U, UNIT_V)
                    w = _statistic_logs(stat, want, UNIT_U, UNIT_V)
                np.testing.assert_array_equal(g == -np.inf, w == -np.inf)
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(logs, ref, rtol=1e-12, atol=1e-12)


def test_table_step_reads_marks_off_the_block_grid(monkeypatch):
    # a mark on or off the 8-site grid holds the product over the sites
    # before it, bit for bit a pass that ends there, and agrees with the
    # one-site step; mark 0 reads the identity
    rng = np.random.default_rng(119)
    built = _counting_tables(monkeypatch)
    windows = bernoulli_window(rng, (9, 300))
    marks = [0, 2, 3, 10, 11, 21, 22, 29, 30, 37, 99, 100, 150, 204, 205, 213, 299, 300]
    for energy in TABLE_ENERGIES:
        built.clear()
        pairs, shifts = transfer._propagate(energy, windows, 2, marks)
        assert len(built) == 1
        ref = _one_site(transfer._propagate, energy, windows, 2, marks)
        for p, s in ((pairs, shifts), ref):
            transfer._rescale(p, s)
        np.testing.assert_allclose(pairs * np.exp2(shifts - ref[1]), ref[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pairs[:, :, 0], np.eye(2)[:, :, None] * np.ones(9))
        for i, k in enumerate(marks[1:], start=1):
            want = matrix_batch(energy, windows[:, :k], (k,))
            (s00, s01), (s10, s11) = pairs[:, :, i]
            for got, w in zip((s00, s01, s10, s11), want):
                np.testing.assert_array_equal(got, w[0])
            np.testing.assert_array_equal(shifts[i] * math.log(2.0), want[4][0])


def test_table_step_energy_lanes_equal_per_energy_calls():
    rng = np.random.default_rng(120)
    windows = bernoulli_window(rng, (11, 203))
    energies = np.array(TABLE_ENERGIES)
    marks = (0, 8, 13, 100, 203)
    lanes = matrix_batch(energies[:, None], windows, marks)
    logs = vector_growth_logs(energies[:, None], windows, marks)
    for i, energy in enumerate(energies):
        for got, want in zip(lanes, matrix_batch(energy, windows, marks)):
            np.testing.assert_array_equal(got[:, i], want)
        np.testing.assert_array_equal(logs[:, i], vector_growth_logs(energy, windows, marks))


def test_checkpoint_reads_equal_direct_calls_on_two_valued_windows():
    # the running rows never depend on where the marks fall, so the read at
    # k is the pass that ends at k, bit for bit
    rng = np.random.default_rng(121)
    windows = bernoulli_window(rng, (13, 150))
    marks = (1, 7, 8, 9, 64, 65, 77, 150)
    for energy in TABLE_ENERGIES:
        batch = matrix_batch(energy, windows, marks)
        logs = vector_growth_logs(energy, windows, marks)
        for j, k in enumerate(marks):
            direct = matrix_batch(energy, windows[:, :k], (k,))
            for got, want in zip(batch, direct):
                np.testing.assert_array_equal(got[j], want[0])
            np.testing.assert_array_equal(logs[j], vector_growth_logs(energy, windows[:, :k], (k,))[0])


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_table_step_bytes_are_pinned():
    # digests of the table step while it gathered each lane's four product
    # entries as four scalars: the row gather must keep every bit, on the
    # per-energy offsets of (E, 1) lanes, on one energy (complex here) and
    # on reads off the 8-site grid.  Regenerate with demos/regenerate_pins.py
    rng = np.random.default_rng(220)
    windows = AtomWindows(rng.integers(0, 2, (17, 301)).astype(np.uint8), np.array([0.25, -2.5]))
    marks = (0, 5, 8, 77, 150, 301)
    energies = np.linspace(-2.4, 2.4, 13)[:, None]
    logs = vector_growth_logs(energies, windows, marks)
    assert _sha256(logs) == "ea06d69a7ab8028b4a2b06a1a62348aa3176fe61708cdb5802d59d9c6ae4b490"
    logs = vector_growth_logs(0.4 + 0.6j, windows, marks)
    assert _sha256(logs) == "58a115671eb1fa08abcbe492ae3030bbc83eaf2df386e7d1234ce1b0efd6c8ed"
    values = np.where(rng.random((9, 203)) < 0.5, -1.0, 1.0)
    checkpoints = (1, 13, 99, 203)
    batch = matrix_batch(0.37, values, checkpoints) + matrix_batch(energies[::4], values, checkpoints)
    assert _sha256(*batch) == "48f7e61676dc7c83d45046399a60b8bda909e65f6ce622ccf38bb7050e2bfc83"


def test_table_step_leaves_steps_past_the_headroom_to_the_one_site_step(monkeypatch):
    # 8 log2(1e20 + 1) > _HEADROOM - 1: one table step could overflow the
    # rows, so the batch takes the one-site step; at 1e18 it fits, and the
    # rows rescale before almost every step
    rng = np.random.default_rng(122)
    built = _counting_tables(monkeypatch)
    for atom, steps in ((1e20, 0), (1e18, 1)):
        windows = atom * bernoulli_window(rng, (6, 120))
        built.clear()
        got = matrix_batch(0.37, windows, (5, 64, 120))
        assert len(built) == steps
        want = _one_site(matrix_batch, 0.37, windows, (5, 64, 120))
        for g, w in zip(got, want):
            if steps:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
            else:
                np.testing.assert_array_equal(g, w)
    # a site past MAGNITUDE_LIMIT is still named
    windows = np.ones((3, 40))
    windows[1, 13] = 2.0**1023
    with pytest.raises(ValueError, match=r"MAGNITUDE_LIMIT\): site 13 of the window"):
        matrix_batch(0.0, windows)
    # an infinite potential is not a value of the table
    windows[1, 13] = math.inf
    built.clear()
    with np.errstate(invalid="ignore"):
        matrix_batch(0.0, windows)
    assert built == []


# ---------------------------------------------------------------------------
# atom windows: a two-atom law's draws as atom indices, against their values
# ---------------------------------------------------------------------------

CODE_ENERGIES = (0.0, 0.37, 0.4 + 0.6j)
ATOM_PAIRS = (np.array([-1.0, 1.0]), np.array([0.25, -2.5]))


def _no_float_codes(monkeypatch):
    """Atom windows must reach the table step without the float compares."""
    def refused(*args):
        raise AssertionError("_atom_windows compared atom windows")

    real = transfer._atom_windows
    monkeypatch.setattr(
        transfer, "_atom_windows",
        lambda windows, length: refused() if isinstance(windows, AtomWindows) else real(windows, length),
    )


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_atom_windows_equal_their_values_bit_for_bit(monkeypatch):
    _no_float_codes(monkeypatch)
    built = _counting_tables(monkeypatch)
    rng = np.random.default_rng(123)
    marks = (0, 1, 5, 8, 13, 64, 77, 150, 300, 301)
    energies = np.array(CODE_ENERGIES)[:, None]
    for atoms in ATOM_PAIRS:
        windows = AtomWindows(rng.integers(0, 2, (30, 301)).astype(np.uint8), atoms)
        values = windows.values
        for energy in CODE_ENERGIES:
            built.clear()
            _assert_same_bits(matrix_batch(energy, windows, marks), matrix_batch(energy, values, marks))
            _assert_same_bits(matrix_batch(energy, windows), matrix_batch(energy, values))
            assert len(built) == 4  # every call took the table step
        got = vector_growth_logs(energies, windows, marks)
        assert got.shape == (len(marks), len(CODE_ENERGIES), 30)
        np.testing.assert_array_equal(got, vector_growth_logs(energies, values, marks))


def test_coupled_atom_windows_equal_their_values_bit_for_bit(monkeypatch):
    # centered products of atom windows, before and after redrawn columns
    # off the 8-site grid on both halves are written into their codes
    _no_float_codes(monkeypatch)
    rng = np.random.default_rng(124)
    sites = (-77, -29, -3, 0, 5, 13, 21, 100)
    radii = (0, 3, 9, 50, 150)
    for atoms in ATOM_PAIRS:
        windows = AtomWindows(rng.integers(0, 2, (17, 301)).astype(np.uint8), atoms)
        columns = rng.integers(0, 2, (17, len(sites))).astype(np.uint8)
        for law in range(2):
            if law:
                windows.codes[:, [150 + k for k in sites]] = columns
            for energy in CODE_ENERGIES:
                _assert_same_bits(
                    centered_batch(energy, windows, radii), centered_batch(energy, windows.values, radii)
                )


def test_a_two_atom_batch_holding_one_value_gives_the_bits_of_its_values(monkeypatch):
    # the codes read the one atom the batch holds, as the float compares
    # read the one value, also when the other atom is past the headroom:
    # both take the same step and pick the same products
    _no_float_codes(monkeypatch)
    marks = (3, 8, 64, 101, 160)
    for atoms, atom in ((ATOM_PAIRS[1], 0), (ATOM_PAIRS[1], 1), (np.array([0.25, 1e20]), 0)):
        windows = AtomWindows(np.full((6, 160), atom, dtype=np.uint8), atoms)
        values = windows.values
        assert len(np.unique(values)) == 1
        assert transfer._packed_codes(windows, 160)[0] == [atoms[atom]] * 2
        for energy in CODE_ENERGIES:
            _assert_same_bits(matrix_batch(energy, windows, marks), matrix_batch(energy, values, marks))
            np.testing.assert_array_equal(
                vector_growth_logs(energy, windows, marks), vector_growth_logs(energy, values, marks)
            )
            _assert_same_bits(
                centered_batch(energy, windows[:, :101], (4, 50)),
                centered_batch(energy, values[:, :101], (4, 50)),
            )


def _reference_codes(codes, length):
    """Bit ``s`` of step ``t`` is the index at site ``8 t + s``, one bit at a
    time: a ``(length // 8, rows)`` array."""
    want = np.zeros((length // 8, len(codes)), dtype=np.uint8)
    for t in range(length // 8):
        for s in range(8):
            want[t] |= codes[:, 8 * t + s].astype(np.uint8) << s
    return want


@pytest.mark.parametrize("backward", [False, True])
def test_packed_codes_equal_the_float_codes(backward):
    # the codes of atom windows, read forward or backward, and of the float
    # windows they hold, equal the bits set one by one
    rng = np.random.default_rng(125)
    atoms = ATOM_PAIRS[0]
    codes = rng.integers(0, 2, (19, 205)).astype(np.uint8)
    windows = AtomWindows(codes[:, 203::-1] if backward else codes[:, 1:], atoms)
    for length in (204, 203, 100, 15, 7):
        floats = transfer._atom_windows(windows.values, length)
        flip = floats.atoms[0] != atoms[0]  # atom 0 of floats is the first site's value
        want = _reference_codes(windows.codes, length)
        for held in (windows, floats):
            values, packed = transfer._packed_codes(held, length)
            assert values == [held.atoms[0], held.atoms[1]]
            assert packed.shape == want.shape
            assert packed.dtype == np.uint8 and packed.flags.c_contiguous
            np.testing.assert_array_equal(packed, ~want if held is floats and flip else want)


def test_float_windows_of_two_values_take_the_table_step_of_their_atoms(monkeypatch):
    # a float batch becomes atom windows exactly when its sites up to the
    # last mark hold at most two finite values (compared as floats, so -0.0
    # is 0.0); it then gives the bits of its atom windows, and any other
    # batch the bits of the one-site step
    built = _counting_tables(monkeypatch)
    rng = np.random.default_rng(126)
    marks = (3, 8, 64, 101, 160)
    codes = rng.integers(0, 2, (7, 160)).astype(np.uint8)
    codes[0] = 0  # the first window holds one value, later ones the second
    atoms = np.array([0.0, 1.0])
    signed = np.where(rng.random(codes.shape) < 0.5, -0.0, 0.0)  # -0.0 and 0.0 mixed
    table = {
        "second value past the first window": (atoms[codes], AtomWindows(codes, atoms)),
        "-0.0 and 0.0": (np.where(codes == 1, 1.0, signed), AtomWindows(codes, atoms)),
        "backward": (atoms[codes][:, ::-1], AtomWindows(codes[:, ::-1], atoms)),
    }
    third = atoms[codes]
    third[5, 150] = 2.0  # only in a later window
    inf, nan = atoms[codes], atoms[codes]
    inf[0, 0], nan[0, 0] = math.inf, math.nan
    for energy in CODE_ENERGIES:
        for name, (values, windows) in table.items():
            built.clear()
            got = matrix_batch(energy, values, marks)
            assert len(built) == 1, name
            _assert_same_bits(got, matrix_batch(energy, windows, marks))
            np.testing.assert_array_equal(
                vector_growth_logs(energy, values, marks), vector_growth_logs(energy, windows, marks)
            )
        for values in (third, inf, nan):
            built.clear()
            with np.errstate(invalid="ignore"):
                got = matrix_batch(energy, values, marks)
                want = _one_site(matrix_batch, energy, values, marks)
            assert built == []
            _assert_same_bits(got, want)
    assert transfer._atom_windows(third, 150).atoms.tolist() == [0.0, 1.0]
    assert transfer._atom_windows(third, 151) is None
    assert transfer._atom_windows(np.full((3, 9), 0.5), 9).atoms.tolist() == [0.5]


def test_atom_windows_hold_at_most_the_table_steps_two_atoms():
    codes = np.zeros((2, 9), dtype=np.uint8)
    assert AtomWindows(codes, [0.5]).atoms.tolist() == [0.5]
    for atoms in ([0.0, 1.0, 2.0], [], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="one or two atoms"):
            AtomWindows(codes, atoms)
