import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from anderson_lab import spectral
from anderson_lab.measures import PotentialWindow
from anderson_lab.spectral import (
    CLUSTER_GAP_FACTOR,
    Correlator,
    ResonantEnergyError,
    TridiagonalBox,
    classify_regularity,
    correlator,
    eigenpairs,
    eigenvalues,
    eigenvector,
    green,
    reconstruct_interior,
    sturm_counts,
)


def box_from(values, lo=0):
    values = np.asarray(values, dtype=float)
    return TridiagonalBox(PotentialWindow(lo, lo + len(values) - 1, values))


def random_box(rng, n, lo=0, kind="uniform"):
    if kind == "bernoulli":
        vals = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        vals = rng.uniform(-2, 2, n)
    return box_from(vals, lo)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_dimension_one():
    assert eigenvalues(box_from([7.0]))[0] == pytest.approx(7.0, abs=1e-9)


def test_free_box_closed_form():
    n = 30
    got = eigenvalues(box_from(np.zeros(n)))
    want = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(got - want)) < 1e-9


def test_random_boxes_match_dense_solver():
    rng = np.random.default_rng(200)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        box = random_box(rng, n)
        got = eigenvalues(box)
        want = np.linalg.eigvalsh(box.dense())
        assert np.max(np.abs(got - want)) < 1e-8


def test_eigenvalues_are_roots_of_the_determinant():
    # cross-check against the recurrence: det(H - E) changes sign at each root
    from anderson_lab.transfer import interval_det

    rng = np.random.default_rng(201)
    box = random_box(rng, 8)
    values = eigenvalues(box)
    eps = 1e-7 * box.scale
    for lam in values:
        below = interval_det(lam - eps, box.diagonal)
        above = interval_det(lam + eps, box.diagonal)
        assert below.sign != above.sign or below.is_zero() or above.is_zero()


def test_sturm_count_equals_dimension_above_spectrum():
    rng = np.random.default_rng(202)
    box = random_box(rng, 37)
    lo, hi = box.gershgorin()
    counts = sturm_counts(box.diagonal, np.array([lo - 1.0, hi + 1.0]))
    assert counts[0] == 0
    assert counts[1] == box.dim


def _clamped_reference(diagonal, shifts):
    # the LDL^T pivots one site at a time, every pivot below the smallest
    # normal float in magnitude clamped to -tiny: the pivots, and the counts
    # of negative ones, to match bit for bit
    tiny = np.finfo(float).tiny
    q = np.full(shifts.shape, np.inf)
    pivots = []
    for v in diagonal:
        q = (v - shifts) - 1.0 / q
        np.copyto(q, -tiny, where=np.abs(q) < tiny)
        pivots.append(q)
    return np.stack(pivots)


def _sturm_cases():
    rng = np.random.default_rng(215)
    signs = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    lanes = rng.uniform(-2.0, 2.0, (40, 4))
    lanes[:, 1] = 0.0  # exact-zero pivots at shift 0 in this lane only
    columns = np.where(rng.random((31, 3)) < 0.5, -1.0, 1.0)
    energies = np.broadcast_to(np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])[:, None], (6, 3))
    return {
        # zero diagonal at shift 0: the first pivot is an exact zero
        "zero diagonal": (np.zeros(30), np.array([0.0, -0.0, 0.3, -1.0])),
        # +-1 diagonals: q hits 0 exactly at shifts 0 and +-1
        "+-1 diagonal": (signs, np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])),
        # a subnormal first pivot, positive before the clamp
        "subnormal pivot": (np.array([2.0**-1070, 1.0, -1.0, 0.5]), np.array([0.0, -(2.0**-1070), 0.2])),
        "nan and inf shifts": (rng.uniform(-2, 2, 25), np.array([np.nan, np.inf, -np.inf, 0.1])),
        "some lanes clamp": (lanes, np.array([[0.0, 0.0, 0.0, 0.0], [0.7, 0.0, -0.4, 1.1]])),
        # green's layout: (m, S) box columns against (2, E, S) shifts
        "green layout": (columns, np.stack(np.broadcast_arrays(energies, energies + 0.25))),
    }


def test_sturm_counts_match_the_clamped_recurrence_bit_for_bit(monkeypatch):
    recounted = {}

    def spy(diagonal, shifts):
        recounted[name] = shifts.size
        return clamped(diagonal, shifts)

    clamped = spectral._clamped_counts
    monkeypatch.setattr(spectral, "_clamped_counts", spy)
    for name, (diagonal, shifts) in _sturm_cases().items():
        got = sturm_counts(diagonal, shifts)
        want = np.count_nonzero(_clamped_reference(diagonal, shifts) < 0, axis=0)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert set(recounted) == {"zero diagonal", "+-1 diagonal", "subnormal pivot", "some lanes clamp", "green layout"}
    # only the lanes that met a tiny pivot are counted again: the zero
    # column at both of its shifts
    assert recounted["some lanes clamp"] == 2
    assert recounted["green layout"] < 2 * 6 * 3


def test_pivot_sweeps_match_the_clamped_recurrence_bit_for_bit():
    for name, (diagonal, shifts) in _sturm_cases().items():
        got = spectral._pivot_sweeps(np.stack([v - shifts for v in diagonal]))
        assert np.array_equal(got, _clamped_reference(diagonal, shifts), equal_nan=True), name


def test_gershgorin_contains_the_spectrum():
    rng = np.random.default_rng(203)
    for _ in range(10):
        box = random_box(rng, int(rng.integers(2, 60)), kind="bernoulli")
        values = eigenvalues(box)
        lo, hi = box.gershgorin()
        assert values[0] >= lo - 1e-9
        assert values[-1] <= hi + 1e-9


def test_interlacing_when_a_boundary_site_is_removed():
    rng = np.random.default_rng(204)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        vals = rng.uniform(-2, 2, n)
        full = eigenvalues(box_from(vals))
        trimmed = eigenvalues(box_from(vals[:-1]))
        # lambda_k(full) <= lambda_k(trimmed) <= lambda_{k+1}(full)
        tol = 1e-9 * (2 + np.max(np.abs(vals)))
        assert np.all(full[:-1] <= trimmed + tol)
        assert np.all(trimmed <= full[1:] + tol)


# ---------------------------------------------------------------------------
# eigenvectors
# ---------------------------------------------------------------------------

def test_eigenvector_dimension_one():
    pair = eigenvector(box_from([7.0]), 7.0)
    assert pair.vector[0] == pytest.approx(1.0)
    assert pair.residual < 1e-12


def test_free_box_eigenvectors_are_sine_waves():
    n = 20
    box = box_from(np.zeros(n))
    values = eigenvalues(box)
    j = np.arange(1, n + 1)
    for k in (1, 7, 20):
        lam = 2 * math.cos(k * math.pi / (n + 1))
        idx = int(np.argmin(np.abs(values - lam)))
        pair = eigenvector(box, float(values[idx]))
        want = np.sin(j * k * np.pi / (n + 1))
        want /= np.linalg.norm(want)
        if want[np.argmax(np.abs(want))] < 0:
            want = -want
        assert np.max(np.abs(pair.vector - want)) < 1e-6


def test_random_eigenvectors_match_dense_solver():
    rng = np.random.default_rng(205)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        box = random_box(rng, n)
        values, vectors = eigenpairs(box)
        _, dense_vecs = np.linalg.eigh(box.dense())
        for k in range(n):
            v = vectors[:, k]
            w = dense_vecs[:, k]
            if np.dot(v, w) < 0:
                w = -w
            assert np.max(np.abs(v - w)) < 1e-6


def test_residual_bound_holds():
    rng = np.random.default_rng(206)
    box = random_box(rng, 200, kind="bernoulli")
    values, vectors = eigenpairs(box)
    residuals = np.linalg.norm(box.dense() @ vectors - vectors * values, axis=0)
    assert np.max(residuals) <= 1e-8 * box.scale
    assert np.max(np.abs(np.linalg.norm(vectors, axis=0) - 1.0)) < 1e-12


def _spike_box():
    # two identical blocks behind a high barrier: every eigenvalue but the
    # barrier's pairs up with one of the other block within the cluster gap
    block = np.random.default_rng(209).uniform(-2, 2, 20)
    return box_from(np.concatenate([block, [1e3], block]))


def test_cluster_members_get_the_sequential_pass(monkeypatch):
    box = _spike_box()
    sequential = []

    def spy(box, value, *, orthogonalize_against=()):
        sequential.append(len(orthogonalize_against))
        return eigenvector(box, value, orthogonalize_against=orthogonalize_against)

    monkeypatch.setattr(spectral, "eigenvector", spy)
    values, vectors = eigenpairs(box)
    assert np.count_nonzero(np.diff(values) < CLUSTER_GAP_FACTOR * box.scale) == 20
    assert sequential == [1] * 20
    residuals = np.linalg.norm(box.dense() @ vectors - vectors * values, axis=0)
    assert np.max(residuals) <= 1e-8 * box.scale
    assert np.max(np.abs(vectors.T @ vectors - np.eye(box.dim))) <= 1e-12


def _clusters(values, box):
    """Which values have a neighbour within the cluster gap."""
    close = np.diff(values) < CLUSTER_GAP_FACTOR * box.scale
    return np.concatenate(([False], close)) | np.concatenate((close, [False]))


def _assert_matches_dense(box, values, vectors):
    want_values, want = np.linalg.eigh(box.dense())
    assert np.max(np.abs(values - want_values)) < 1e-8
    want *= np.sign(np.sum(want * vectors, axis=0))
    assert np.max(np.abs(vectors - want)) < 1e-6
    assert np.max(np.abs(vectors.T @ vectors - np.eye(box.dim))) <= 1e-12


def test_isolated_vectors_match_the_dense_solver():
    rng = np.random.default_rng(223)
    for kind in ("bernoulli", "uniform"):
        for n in (2, 3, 9, 40, 120):
            box = random_box(rng, n, kind=kind)
            values, vectors = eigenpairs(box)
            assert not _clusters(values, box).any()
            _assert_matches_dense(box, values, vectors)


def test_isolated_vectors_survive_exactly_zero_pivots(monkeypatch):
    # at the exact eigenvalues 0 and 1 of these free boxes the forward and
    # backward sweeps meet exactly zero pivots, which are clamped to -tiny
    tiny = np.finfo(float).tiny
    monkeypatch.setattr(spectral, "eigenvalues", lambda box, ranks: exact[ranks.start : ranks.stop])
    for n in (5, 17, 101):  # 6 divides n + 1, so 1 = 2 cos(pi / 3) is an eigenvalue
        box = box_from(np.zeros(n))
        exact = 2 * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
        exact[n // 2], exact[(2 * n - 1) // 3] = 0.0, 1.0
        for shift in (0.0, 1.0):
            rows = np.stack((box.diagonal, box.diagonal[::-1]), axis=1)[:, :, None] - shift
            assert np.any(spectral._pivot_sweeps(rows) == -tiny), (n, shift)
        values, vectors = eigenpairs(box)
        assert not _clusters(values, box).any()
        _assert_matches_dense(box, values, vectors)


def test_only_cluster_lanes_reach_inverse_iteration(monkeypatch):
    solved = []

    def spy(box, values, against=()):
        solved.append(values.copy())
        return inverse_iteration(box, values, against)

    inverse_iteration = spectral._inverse_iteration
    monkeypatch.setattr(spectral, "_inverse_iteration", spy)
    rng = np.random.default_rng(224)
    box = random_box(rng, 400, kind="bernoulli")
    values, _ = eigenpairs(box)
    assert not _clusters(values, box).any() and solved == []
    box = _spike_box()
    values, _ = eigenpairs(box)
    clustered = _clusters(values, box)
    assert np.count_nonzero(~clustered) == 1  # the barrier's eigenvalue
    # the 20 cluster heads in one batch, then each follower alone
    assert [len(v) for v in solved] == [20] + [1] * 20
    assert np.array_equal(np.sort(np.concatenate(solved)), values[clustered])


def test_a_bad_shift_still_raises_the_residual_error(monkeypatch):
    box = random_box(np.random.default_rng(225), 50)
    bisected = spectral.eigenvalues
    offset = 1e-5 * box.scale
    monkeypatch.setattr(spectral, "eigenvalues", lambda box, ranks: bisected(box, ranks) + offset)
    with pytest.raises(RuntimeError, match="twisted factorization did not converge"):
        eigenpairs(box, range(10, 20))


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_eigensolve_bytes_are_pinned():
    # the eigenpairs digests since isolated eigenvalues take their vectors
    # from twisted factorizations; the eigenvector digest since column norms
    # are summed row by row for one lane too.  localize's decay_rate is
    # ill-conditioned in the eigenvector, so a drift at round-off can flip a
    # verdict.  They hold for one BLAS build: the start vector's norm and the
    # cluster projection are dot products.  Regenerate with
    # demos/regenerate_pins.py
    rng = np.random.default_rng(218)
    values, vectors = eigenpairs(box_from(np.where(rng.random(400) < 0.5, -1.0, 1.0)))
    assert _sha256(values, vectors) == "778cc5ee4885c530e63ab5956d270272556be986bd06b758c839f55e1ebd64b2"
    box = _spike_box()
    values, vectors = eigenpairs(box)
    assert _sha256(values, vectors) == "e6ce42f02f4f39e561dfa09a3b2bcfad1bd53913a8611040e9577abc1f441d9c"
    assert values[7] - values[6] < CLUSTER_GAP_FACTOR * box.scale
    pair = eigenvector(box, float(values[7]), orthogonalize_against=(vectors[:, 6],))
    assert _sha256(pair.vector, [pair.residual]) == "e77f7b9f352464a573b640fe1273cbe6ec051e1d5357d00460f2a66e778b27b8"


def test_rank_ranges_are_slices_of_the_full_solve_bit_for_bit():
    cases = []
    for seed in (219, 220, 221, 222):
        rng = np.random.default_rng(seed)
        box = box_from(np.where(rng.random(400) < 0.5, -1.0, 1.0))
        ends = [range(0, 1), range(0, 3), range(396, 400), range(399, 400)]
        ones = [range(k, k + 1) for k in rng.integers(1, 399, 4).tolist()]
        cases.append((box, [range(180, 245), range(200, 200)] + ends + ones))
    box = _spike_box()
    values = eigenvalues(box)
    assert np.diff(values)[6] < CLUSTER_GAP_FACTOR * box.scale
    # the last two ranges end on rank 6, which heads a cluster that rank 7
    # continues; as an isolated lane, rank 6 would get another vector
    head = eigenpairs(box, range(6, 8))[1][:, 0]
    assert not np.array_equal(spectral._twisted_vectors(box, values[6:7])[:, 0], head)
    cases.append((box, [range(7, 8), range(7, 30), range(0, 41), range(41, 41), range(6, 7), range(2, 7)]))
    # three blocks: ranks 6, 7 and 8 form one cluster, so a range from rank 8
    # reaches down two ranks for the vectors it is orthogonalized against
    block = np.random.default_rng(209).uniform(-2, 2, 20)
    box = box_from(np.concatenate([block, [1e3], block, [1e3], block]))
    follows = np.diff(eigenvalues(box)) < CLUSTER_GAP_FACTOR * box.scale
    assert follows[5:8].tolist() == [False, True, True]
    cases.append((box, [range(8, 10), range(7, 8), range(6, 9)]))
    for box, ranges in cases:
        values, vectors = eigenpairs(box)
        for ranks in ranges:
            got_values, got_vectors = eigenpairs(box, ranks)
            assert got_vectors.shape == (box.dim, len(ranks))
            assert np.array_equal(got_values, values[ranks.start : ranks.stop]), ranks
            assert np.array_equal(got_vectors, vectors[:, ranks.start : ranks.stop]), ranks
            assert np.array_equal(eigenvalues(box, ranks), values[ranks.start : ranks.stop]), ranks


def test_rank_ranges_outside_the_spectrum_are_rejected():
    box = box_from([0.0, 1.0, -1.0])
    for ranks in (range(0, 4), range(-1, 2), range(0, 3, 2), range(2, 1), [0, 1]):
        with pytest.raises(ValueError, match="ranks"):
            eigenvalues(box, ranks)
        with pytest.raises(ValueError, match="ranks"):
            eigenpairs(box, ranks)


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------

def test_single_site_green_value():
    g = green(box_from([3.0]), 0.0, 0, 0)
    assert g.value() == pytest.approx(1.0 / 3.0)


def test_corner_green_is_a_plain_determinant_ratio():
    rng = np.random.default_rng(207)
    box = random_box(rng, 9, lo=-4)
    from anderson_lab.transfer import interval_det

    energy = 0.313
    g = green(box, energy, -4, -4)
    inner = interval_det(energy, box.diagonal[1:])
    full = interval_det(energy, box.diagonal)
    assert g.log_mag == pytest.approx(inner.log_mag - full.log_mag, abs=1e-10)


def test_det_ratio_agrees_with_direct_solve():
    rng = np.random.default_rng(208)
    done = 0
    while done < 300:
        n = int(rng.integers(1, 13))
        box = random_box(rng, n, lo=int(rng.integers(-6, 6)))
        energy = float(rng.uniform(-4, 4))
        x = int(rng.integers(box.lo, box.hi + 1))
        y = int(rng.integers(box.lo, box.hi + 1))
        try:
            a = green(box, energy, x, y, "det_ratio")
        except ResonantEnergyError:
            continue
        b = green(box, energy, x, y, "direct_solve")
        assert a.sign == b.sign
        assert a.log_mag == pytest.approx(b.log_mag, abs=1e-8)
        done += 1


@pytest.mark.parametrize("kind", ["uniform", "exact_zeros", "all_pivot"])
def test_direct_solve_matches_dense_solve(kind):
    # exact zeros and |V - E| < 1 everywhere drive the row swaps of the LU
    rng = np.random.default_rng({"uniform": 211, "exact_zeros": 212, "all_pivot": 213}[kind])
    offsets = {
        "uniform": lambda n: rng.uniform(-4, 4, n),
        "exact_zeros": lambda n: np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-2, 2, n)),
        "all_pivot": lambda n: rng.uniform(-1, 1, n),
    }[kind]
    done = 0
    while done < 60:
        n = int(rng.integers(1, 13))
        energy = float(rng.uniform(-3, 3))
        box = box_from(energy + offsets(n), lo=int(rng.integers(-6, 6)))
        y = int(rng.integers(n))
        box_sites = range(box.lo, box.hi + 1)
        try:
            got = [green(box, energy, x, box.lo + y, "direct_solve").value() for x in box_sites]
        except ResonantEnergyError:
            continue
        want = np.linalg.solve(box.dense() - energy * np.eye(n), np.eye(n)[:, y])
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))
        done += 1


def test_resonant_energy_is_rejected():
    # exact hit: the determinant vanishes identically
    box = box_from([3.0])
    with pytest.raises(ResonantEnergyError, match="resonant"):
        green(box, 3.0, 0, 0)
    # 0 is an exact eigenvalue of the free five-site box
    with pytest.raises(ResonantEnergyError):
        green(box_from(np.zeros(5)), 0.0, 0, 4)
    # near hit, inside the 1e-12 * scale margin
    with pytest.raises(ResonantEnergyError):
        green(box, 3.0 + 1e-13, 0, 0)


def test_green_indices_must_lie_in_the_box():
    with pytest.raises(IndexError):
        green(box_from([1.0, 2.0]), 0.0, 5, 0)


# ---------------------------------------------------------------------------
# regularity classification
# ---------------------------------------------------------------------------

def test_free_operator_is_singular():
    # E = 0 itself is an eigenvalue of every odd free box, so probe just off
    # it: the Green values stay O(1) and the site fails any decay test
    window = PotentialWindow(-10, 10, np.zeros(21))
    report = classify_regularity(window, 0, 2, 1.0, 0.3)
    assert report.verdict == "singular"
    assert not report.is_regular
    assert report.green_left.log_mag > -1.0


def test_constant_gap_potential_is_regular_at_half_rate():
    # V == 5, E = 0: the rate is log((5 + sqrt(21))/2); Green decay at half
    # that rate is comfortably satisfied for a large radius
    gamma = math.log((5 + math.sqrt(21)) / 2)
    n = 40
    window = PotentialWindow(-n - 1, n + 1, np.full(2 * n + 3, 5.0))
    report = classify_regularity(window, 0, n, 0.5 * gamma, 0.0)
    assert report.is_regular
    # and the observed Green decay rate approaches gamma itself
    assert report.green_left.log_mag / n == pytest.approx(-gamma, rel=0.05)


def test_five_site_verdict_matches_dense_inverse():
    values = np.array([2.0, -1.0, 3.0, 0.5, -2.0])
    window = PotentialWindow(-2, 2, values)
    energy = 0.25
    box = box_from(values, lo=-2)
    inv = np.linalg.inv(box.dense() - energy * np.eye(5))
    n = 2
    for rate in (0.1, 0.5, 2.0):
        report = classify_regularity(window, 0, n, rate, energy)
        want = (
            abs(inv[2, 0]) <= math.exp(-rate * n) and abs(inv[2, 4]) <= math.exp(-rate * n)
        )
        assert report.is_regular == want
        assert report.green_left.log_mag == pytest.approx(math.log(abs(inv[2, 0])), abs=1e-9)
        assert report.green_right.log_mag == pytest.approx(math.log(abs(inv[2, 4])), abs=1e-9)


def test_lane_batch_matches_one_lane_calls_and_dense_inverse():
    # one radius-5 batch over boxes [site - 5, site + 5] of a 100-site window
    rng = np.random.default_rng(213)
    values = rng.uniform(-2.0, 2.0, 100)
    values[5:16] = 0.0  # site 10: free box, 0 and 1 are exact eigenvalues
    values[25:27] = 1.0  # site 30: [1, 1] at E = 0 trips the cancellation guard
    values[45:56] = 1e80 * np.where(rng.random(11) < 0.5, -1.0, 1.0)  # rescales past 1e150
    values[65:76] = 5.0  # site 70: gapped, regular at half the rate
    window = PotentialWindow(0, 99, values)
    gap_rate = 0.5 * math.log((5 + math.sqrt(21)) / 2)
    n = 5
    lanes = [  # (site, energy, rate, resonant)
        (10, 0.0, 0.1, True),  # exact-zero determinant
        (10, 1.0 + 1e-13, 0.1, True),  # nonzero determinant, eigenvalue within 1e-12 * scale
        (10, 0.3, 0.1, False),
        (30, 0.0, 0.1, False),
        (50, 0.2, 0.1, False),
        (70, 0.0, gap_rate, False),
        (85, 0.25, 0.1, False),
        (85, -1.7, 2.0, False),
    ]
    sites, energies, rates, want_resonant = (np.array(c) for c in zip(*lanes))
    batch = classify_regularity(window, sites, n, rates, energies)
    assert list(batch.resonant) == list(want_resonant)
    assert batch.regular[5]
    for i, (site, energy, rate, resonant) in enumerate(lanes):
        if resonant:
            assert not batch.regular[i]
            with pytest.raises(ResonantEnergyError):
                classify_regularity(window, site, n, rate, energy)
            continue
        one = classify_regularity(window, site, n, rate, energy)
        assert one.is_regular == batch.regular[i]
        for k, g in enumerate((one.green_left, one.green_right)):
            assert (g.sign, g.log_mag) == (batch.green.sign[k, i], batch.green.log_mag[k, i])
        box = TridiagonalBox(window.slice(site - n, site + n))
        if site == 50:
            # diagonal dominance: G(x, y) ~ (-1)^|x-y| / prod of V over [x, y]
            for g, edge in ((one.green_left, slice(45, 51)), (one.green_right, slice(50, 56))):
                assert g.log_mag == pytest.approx(-np.sum(np.log(np.abs(values[edge]))), rel=1e-12)
            continue
        inv = np.linalg.inv(box.dense() - energy * np.eye(2 * n + 1))
        for g, entry in ((one.green_left, inv[n, 0]), (one.green_right, inv[n, 2 * n])):
            assert g.sign == np.sign(entry)
            assert g.log_mag == pytest.approx(math.log(abs(entry)), abs=1e-9)
        want = max(abs(inv[n, 0]), abs(inv[n, 2 * n])) <= math.exp(-rate * n)
        assert one.is_regular == want


def test_energy_column_against_sites_equals_the_paired_call():
    # (E, 1) energies and rates against (S,) sites give (E, S) lanes, one box
    # per site; each lane equals the paired 1-D call over the same triples
    rng = np.random.default_rng(215)
    values = rng.uniform(-2.0, 2.0, 100)
    values[5:16] = 0.0  # site 10: free box, 0 is an exact eigenvalue
    values[25:27] = 1.0  # site 30: [1, 1] at E = 0 trips the cancellation guard
    values[45:56] = 1e80 * np.where(rng.random(11) < 0.5, -1.0, 1.0)
    window = PotentialWindow(0, 99, values)
    sites = np.array([10, 30, 50, 85])
    energies = np.array([[0.0], [0.3], [1.0 + 1e-13], [-1.7]])
    rates = np.array([[0.1], [0.05], [0.1], [2.0]])
    grid = classify_regularity(window, sites, 5, rates, energies)
    assert grid.regular.shape == grid.resonant.shape == (4, 4)
    assert grid.green.sign.shape == grid.green.log_mag.shape == (2, 4, 4)
    paired = classify_regularity(
        window, np.tile(sites, 4), 5, np.repeat(rates, 4), np.repeat(energies, 4)
    )
    assert grid.resonant[0, 0] and grid.resonant[2, 0] and not grid.resonant[1].any()
    assert np.array_equal(grid.regular.ravel(), paired.regular)
    assert np.array_equal(grid.resonant.ravel(), paired.resonant)
    assert np.array_equal(grid.green.sign.reshape(2, -1), paired.green.sign)
    assert np.array_equal(grid.green.log_mag.reshape(2, -1), paired.green.log_mag, equal_nan=True)
    with pytest.raises(ValueError, match="one axis of sites"):
        classify_regularity(window, sites[None, :], 5, rates, energies)


def test_sturm_count_lanes_match_one_lane_calls():
    rng = np.random.default_rng(214)
    diagonals = rng.uniform(-2.0, 2.0, (30, 4))
    shifts = rng.uniform(-3.0, 3.0, (3, 4))
    counts = sturm_counts(diagonals, shifts)
    assert counts.shape == (3, 4)
    for i in range(4):
        assert list(counts[:, i]) == list(sturm_counts(diagonals[:, i], shifts[:, i]))


# ---------------------------------------------------------------------------
# interior reconstruction
# ---------------------------------------------------------------------------

def test_zero_boundary_data_reconstructs_zero():
    box = box_from([1.0, -1.0, 0.5, 2.0])
    assert reconstruct_interior(box, 0.3, 0.0, 0.0, 1) == 0.0


def test_reconstruction_matches_transfer_recursion():
    rng = np.random.default_rng(209)
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 11))
        values = rng.uniform(-2, 2, n + 2)  # sites -1 .. n
        energy = float(rng.uniform(-3, 3))
        # run the recursion from random data at sites -1, 0 across the window
        psi = np.empty(n + 2)
        psi[0], psi[1] = rng.uniform(-1, 1, 2)
        for k in range(1, n + 1):
            psi[k + 1] = (energy - values[k]) * psi[k] - psi[k - 1]
        box = box_from(values[1 : n + 1], lo=0)
        from anderson_lab.transfer import interval_det

        if interval_det(energy, box.diagonal).log_mag < -20:
            continue
        try:
            for x in range(n):
                got = reconstruct_interior(box, energy, psi[0], psi[n + 1], x)
                assert got == pytest.approx(psi[x + 1], rel=1e-8, abs=1e-8)
        except ResonantEnergyError:
            continue
        checked += 1


def test_reconstruction_free_exponential_solution():
    # V == 0, E = 3 off the band: psi(n) = r^n solves the recursion
    r = (3 + math.sqrt(5)) / 2
    n = 10
    box = box_from(np.zeros(n), lo=0)
    psi = r ** np.arange(-1, n + 1)
    for x in (0, 3, 9):
        got = reconstruct_interior(box, 3.0, psi[0], psi[-1], x)
        assert got == pytest.approx(psi[x + 1], rel=1e-8)


# ---------------------------------------------------------------------------
# correlator
# ---------------------------------------------------------------------------

def test_correlator_dimension_one():
    c = correlator(box_from([4.0]))
    assert c.matrix.shape == (1, 1)
    assert c.matrix[0, 0] == pytest.approx(1.0)


def test_correlator_dominates_the_time_evolution():
    rng = np.random.default_rng(210)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        box = random_box(rng, n)
        q = correlator(box).matrix
        h = box.dense()
        for t in (0.1, 1.0, 7.3, 42.0):
            u = expm(-1j * t * h)
            assert np.all(np.abs(u) <= q + 1e-12)


def test_correlator_diagonal_bound_and_symmetry():
    rng = np.random.default_rng(211)
    box = random_box(rng, 150, kind="bernoulli")
    q = correlator(box).matrix
    assert np.max(np.abs(q - q.T)) < 1e-12
    assert np.max(np.diag(q)) <= 1.0 + 1e-8


def test_free_box_correlator_has_no_decay():
    c = correlator(box_from(np.zeros(64)))
    assert abs(c.decay_rate) < 0.02


def test_localized_box_correlator_decays():
    rng = np.random.default_rng(212)
    vals = np.where(rng.random(150) < 0.5, -3.0, 3.0)
    c = correlator(box_from(vals))
    assert c.decay_rate > 0.1
