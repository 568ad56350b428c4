"""Finite truncations of the lattice operator and their spectral objects.

A window of potential values defines a symmetric tridiagonal box (diagonal =
values, off-diagonals = 1).  Eigenvalues come from bisection on Sturm
counts: the LDL^T pivots of ``T - shift`` run unclamped over blocks of
sites, two ufunc calls per site, and only lanes that met a pivot below the
smallest normal float are counted again by the clamped recurrence, so each
count is the clamped one bit for bit; one count call serves two bisection
rounds.  The eigenvector of an isolated eigenvalue comes from twisted LDL^T
factorizations of ``T - shift`` over eigenvalue lanes (Parlett & Dhillon
1997; Dhillon & Parlett 2004): a forward and a backward pivot sweep, the
twist where ``|gamma|`` is smallest, and one running product per side, once
at the bisected value and once at that vector's Rayleigh quotient.  The
members of a cluster of close eigenvalues keep inverse iteration through
one numpy LU of ``T - shift`` over eigenvalue lanes, pivoted as in LAPACK
``dgttrf`` (an exactly zero last pivot becomes ``eps * scale``) and solved
with in-place ufuncs on kept rows.  All are deterministic for fixed input
regardless of scheduling, and a lane's result does not depend on the other
lanes.  So a 0-based range of ranks, as LAPACK ``dstebz``/``dstein`` take
with ``RANGE='I'``, is solved alone and gives its slice of the full solve
bit for bit.  Green's
functions come from the determinant-ratio formula or a solve through the
same LU.  The module also provides the regularity classification of a site,
interior reconstruction from boundary data, and the eigenfunction-correlator
bound used as a dynamical-localization proxy.

Regularity is lane-batched by broadcasting, as the transfer kernel is: each
site's box is gathered once, as one potential column in the shared
coordinates ``[-radius, radius]``, and energies and rates broadcast against
the site axis (``(E, 1)`` against ``(S,)`` sites gives ``(E, S)`` lanes).
One call runs, for every lane at once, a prefix determinant recurrence over
the box (read after ``radius`` sites and at the end), one recurrence over
the sites above the center, and one 2-shift Sturm count for the resonance
test; resonant lanes are flagged instead of raising.  Each lane does exactly
the arithmetic of a scalar call, which is the same computation on one lane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import PotentialWindow
from .transfer import NEG_INF, SignedLog, det_recurrence, interval_det

EIGENVALUE_TOL_FACTOR = 1e-10
RESIDUAL_TOL_FACTOR = 1e-8
#: eigenvalues closer than this (times the box scale) are treated as a
#: cluster, whose vectors come from reorthogonalized inverse iteration
#: instead of twisted factorizations
CLUSTER_GAP_FACTOR = 1e-6

_PIVMIN = np.finfo(float).tiny
#: sites per block of unclamped Sturm pivots, so the block stays in cache
_STURM_BLOCK = 64
#: bisection rounds per Sturm call
_BISECTION_ROUNDS = 2


class ResonantEnergyError(ValueError):
    """The requested energy is numerically indistinguishable from the
    spectrum of the box, so determinant ratios are meaningless."""


@dataclass(frozen=True)
class TridiagonalBox:
    """Restriction of the lattice operator to a window, as a matrix."""

    window: PotentialWindow

    @property
    def lo(self) -> int:
        return self.window.lo

    @property
    def hi(self) -> int:
        return self.window.hi

    @property
    def dim(self) -> int:
        return len(self.window)

    @property
    def diagonal(self) -> np.ndarray:
        return self.window.values

    @property
    def scale(self) -> float | np.ndarray:
        """2 + max|V|, one value per lane for a box holding lanes."""
        return 2.0 + np.max(np.abs(self.diagonal), axis=0)

    def gershgorin(self) -> tuple[float, float]:
        d = self.diagonal
        return float(np.min(d)) - 2.0, float(np.max(d)) + 2.0

    def dense(self) -> np.ndarray:
        return np.diag(self.diagonal) + np.eye(self.dim, k=1) + np.eye(self.dim, k=-1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``H v`` for one vector, or for a site-major block of columns."""
        out = (self.diagonal.T * v.T).T
        out[:-1] += v[1:]
        out[1:] += v[:-1]
        return out


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the two-sided Green's-decay test at one site.

    The site is regular when both boundary Green's values decay at least as
    fast as ``exp(-rate * radius)``.
    """

    site: int
    radius: int
    rate: float
    energy: float
    green_left: SignedLog
    green_right: SignedLog
    verdict: str

    @property
    def is_regular(self) -> bool:
        return self.verdict == "regular"


@dataclass(frozen=True)
class Correlator:
    """Sum over eigenfunctions of |psi_j(x)| |psi_j(y)|, with a fitted
    exponential off-diagonal decay rate."""

    matrix: np.ndarray
    decay_rate: float


# ---------------------------------------------------------------------------
# eigenvalues: Sturm-count bisection on the determinant recurrence
# ---------------------------------------------------------------------------

def _clamped_pivots(rows):
    """The LDL^T pivots ``q_i = rows_i - 1 / q_{i-1}`` from ``q_{-1} = inf``,
    one row of the diagonal of ``T - shift`` at a time, with every pivot
    below ``_PIVMIN`` in magnitude replaced by ``-_PIVMIN``."""
    q = np.inf
    for row in rows:
        q = row - 1.0 / q
        np.copyto(q, -_PIVMIN, where=np.abs(q) < _PIVMIN)
        yield q


def _clamped_counts(diagonal: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The LDL^T sign count of :func:`sturm_counts`, one site at a time, with
    the pivots of :func:`_clamped_pivots`."""
    count = np.zeros(shifts.shape, dtype=np.int64)
    for q in _clamped_pivots(v - shifts for v in diagonal):
        count += q < 0
    return count


def sturm_counts(diagonal: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the box strictly below each shift.

    Runs the standard LDL^T sign count on ``T - shift`` with unit
    off-diagonals: pivots ``q_i = (v_i - shift) - 1 / q_{i-1}`` from
    ``q_{-1} = inf``, counting the negative ones, where a pivot below the
    smallest normal float in magnitude counts as ``-tiny`` and the next step
    divides by that.  ``diagonal`` is site-major, shape ``(m, *rows)``, and
    each site's row broadcasts against ``shifts`` by numpy's rules; the
    counts have the broadcast shape.  So one column per lane, ``(m, L)``,
    takes ``(k, L)`` shifts, and ``(m, S)`` box columns take ``(2, E, S)``
    shifts for ``E`` energies against ``S`` sites.

    The pivots run unclamped, in blocks of ``_STURM_BLOCK`` sites: one
    broadcast subtract per block and one divide and one subtract per site.
    Up to its first tiny pivot a lane's arithmetic is that of the clamped
    recurrence, so a lane with no tiny pivot gets its count bit for bit; the
    lanes that had one are counted again by the clamped recurrence.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    diagonal = np.asarray(diagonal, dtype=float)
    m, rows = len(diagonal), diagonal.shape[1:]
    shape = np.broadcast_shapes(rows, shifts.shape)
    # lanes are held with the row axes first, so the block subtract runs its
    # inner loop along the axes that only the shifts have
    lead = len(shape) - len(rows)
    order = tuple(range(lead, len(shape))) + tuple(range(lead))
    shifts = np.ascontiguousarray(np.broadcast_to(shifts, shape).transpose(order))
    shape = shifts.shape
    column = diagonal.reshape((m,) + rows + (1,) * lead)
    block, magnitude = np.empty((2, min(m, _STURM_BLOCK)) + shape)
    flags = np.empty(block.shape, dtype=bool)
    pivots = list(block)
    inverse = np.zeros(shape)  # 1 / q_{-1}
    count = np.zeros(shape, dtype=np.int64)
    tiny = np.zeros(shape, dtype=bool)
    for start in range(0, m, _STURM_BLOCK):
        q, f = block[: m - start], flags[: m - start]
        np.subtract(column[start : start + len(q)], shifts, q)
        # past a tiny pivot a lane may divide by zero; it is counted again
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for row in pivots[: len(q)]:
                np.subtract(row, inverse, row)
                np.divide(1.0, row, inverse)
        # a block counts at most _STURM_BLOCK < 256 negatives per lane
        count += np.add.reduce(np.less(q, 0.0, f).view(np.uint8), axis=0, dtype=np.uint8)
        np.less(np.abs(q, magnitude[: len(q)]), _PIVMIN, f)
        tiny |= np.logical_or.reduce(f, axis=0)
    if tiny.any():
        lanes = np.nonzero(tiny)
        flagged = np.broadcast_to(column, (m,) + shape)[(slice(None),) + lanes]
        count[lanes] = _clamped_counts(flagged, shifts[lanes])
    return count.transpose(np.argsort(order))


def _rank_range(box: TridiagonalBox, ranks: range | None) -> range:
    """``ranks`` checked against the box, or every rank for ``None``."""
    if ranks is None:
        return range(box.dim)
    n = box.dim
    if not (isinstance(ranks, range) and ranks.step == 1 and 0 <= ranks.start <= ranks.stop <= n):
        raise ValueError(f"ranks must be a range of step 1 inside range(0, {n}), got {ranks!r}")
    return ranks


def eigenvalues(box: TridiagonalBox, ranks: range | None = None) -> np.ndarray:
    """The eigenvalues of 0-based ascending ``ranks`` (all of them by
    default), bracketed by bisection.

    Each eigenvalue is enclosed to absolute width ``1e-10 * (2 + max|V|)``;
    the returned value is the bracket midpoint.  Multiplicities (and
    near-multiple clusters) simply produce coincident brackets.  Every
    bracket bisects on its own rank from the Gershgorin bounds, so a range
    returns its slice of the full spectrum bit for bit.  One Sturm call
    counts at the ``2**r - 1`` midpoints that ``r = _BISECTION_ROUNDS``
    successive rounds can form, then takes the ``r`` steps: the brackets are
    those of round-by-round bisection.
    """
    ranks = _rank_range(box, ranks)
    if not ranks:
        return np.empty(0)
    glo, ghi = box.gershgorin()
    tol = EIGENVALUE_TOL_FACTOR * box.scale
    target = np.arange(ranks.start + 1, ranks.stop + 1)
    lo = np.full(len(target), glo - tol)
    hi = np.full(len(target), ghi + tol)
    lanes = np.arange(len(target))
    width = (ghi - glo) + 2 * tol
    iters = max(1, min(200, int(math.ceil(math.log2(max(width / tol, 2.0)))) + 1))
    for done in range(0, iters, _BISECTION_ROUNDS):
        rounds = min(_BISECTION_ROUNDS, iters - done)
        # the midpoints in heap order: node k halves the bracket
        # (lows[k], highs[k]), and its children are the two halves
        lows, highs, mids = [lo], [hi], []
        for k in range(2**rounds - 1):
            mids.append(0.5 * (lows[k] + highs[k]))
            lows += [lows[k], mids[k]]
            highs += [mids[k], highs[k]]
        mids = np.stack(mids)
        below = sturm_counts(box.diagonal, mids) >= target
        node = np.zeros(len(target), dtype=np.intp)
        for _ in range(rounds):
            mid, b = mids[node, lanes], below[node, lanes]
            hi = np.where(b, mid, hi)
            lo = np.where(b, lo, mid)
            node = 2 * node + np.where(b, 1, 2)
    return 0.5 * (lo + hi)


def _tridiagonal_lu(diagonal: np.ndarray, shifts: np.ndarray, scale) -> tuple[np.ndarray, ...]:
    """LU factors of ``T - shift`` (unit off-diagonals), one lane per shift.

    Partial pivoting as in LAPACK ``dgttrf`` swaps rows exactly when the
    running pivot is below 1 in magnitude, so every pivot but the last is at
    least 1; an exactly zero last pivot becomes ``eps * scale``.  Returns the
    site-major ``(m, L)`` pivots, first superdiagonal, multipliers and swap
    flags as 0/1 floats (a swap puts a unit on the second superdiagonal).
    """
    d = diagonal[:, None] - shifts
    pivot, upper, mult, swap = np.zeros((4,) + d.shape)
    a, c = d[0], 1.0
    for i in range(len(d) - 1):
        s = np.abs(a) < 1.0
        swap[i] = s
        pivot[i] = np.where(s, 1.0, a)
        upper[i] = np.where(s, d[i + 1], c)
        mult[i] = np.where(s, a, 1.0 / pivot[i])
        a, c = np.where(s, c - a * d[i + 1], d[i + 1] - mult[i] * c), np.where(s, -a, 1.0)
    pivot[-1] = np.where(a == 0.0, np.finfo(float).eps * scale, a)
    return pivot, upper, mult, swap


def _lu_solve(factors: tuple[np.ndarray, ...], rhs: np.ndarray) -> np.ndarray:
    """Solve ``(T - shift) x = rhs`` (site-major) from :func:`_tridiagonal_lu`.

    The permuted forward pass and the back substitution run as in-place
    ufuncs on preallocated rows, each operation in the textbook order.
    """
    pivot, upper, mult, swap = factors
    m = len(pivot)
    swapped = list(swap.astype(bool))
    y = list(rhs.copy())
    x = np.zeros((m + 2,) + rhs.shape[1:])
    rows, t = list(x), np.empty(rhs.shape[1:])
    for i in range(m - 1):
        # rows i and i + 1 trade places in swapped lanes; y[i] is then final
        final = np.where(swapped[i], y[i + 1], y[i])
        np.copyto(y[i + 1], y[i], where=swapped[i])
        y[i] = final
        np.multiply(mult[i], final, t)
        np.subtract(y[i + 1], t, y[i + 1])
    for i in range(m - 1, -1, -1):
        np.multiply(upper[i], rows[i + 1], t)
        np.subtract(y[i], t, rows[i])
        np.multiply(swap[i], rows[i + 2], t)
        np.subtract(rows[i], t, rows[i])
        np.divide(rows[i], pivot[i], rows[i])
    return x[:m]


def _column_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a C-ordered block, each summed row
    by row whatever the column count: numpy reduces two or more columns one
    row at a time but sums a lone column pairwise, so a lone column is
    reduced beside a copy of itself."""
    squares = w * w
    if w.shape[1] == 1:
        squares = np.repeat(squares, 2, axis=1)
    return np.sqrt(np.add.reduce(squares, axis=0)[: w.shape[1]])


def _sign_and_check(box: TridiagonalBox, vectors: np.ndarray, values: np.ndarray, residual, method):
    """Make each column's largest-magnitude entry positive (the residuals do
    not change), and raise when a residual exceeds
    ``RESIDUAL_TOL_FACTOR * scale``, naming ``method``."""
    peaks = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.sign(vectors[peaks, np.arange(len(values))])
    tol = RESIDUAL_TOL_FACTOR * box.scale
    for value, r in zip(values.tolist(), residual):
        if not r <= tol:
            raise RuntimeError(f"{method} did not converge at {value!r}: residual {r:.3e}")


def _pivot_sweeps(rows: np.ndarray) -> np.ndarray:
    """The pivots of :func:`_clamped_pivots` for site-major ``rows``, every
    lane at once.  They run unclamped, two in-place ufuncs per site, and
    only the lanes that met a pivot below ``_PIVMIN`` are swept again by the
    clamped recurrence, so every pivot is the clamped one bit for bit."""
    q = np.empty_like(rows)
    inverse = np.zeros(rows.shape[1:])  # 1 / q_{-1}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for row, pivot in zip(rows, q):
            np.subtract(row, inverse, pivot)
            np.divide(1.0, pivot, inverse)
    tiny = np.logical_or.reduce(np.abs(q) < _PIVMIN, axis=0)
    if tiny.any():
        lanes = (slice(None),) + np.nonzero(tiny)
        q[lanes] = np.stack(list(_clamped_pivots(rows[lanes])))
    return q


def _twisted_solve(diagonal: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One twisted factorization of ``T - shift`` per lane: the solution of
    ``(T - shift) z = gamma_r e_r`` with ``z_r = 1``, and ``gamma_r``.

    A forward sweep gives the pivots ``D+`` and a backward one ``D-``;
    ``gamma_i = D+_i + D-_i - (v_i - shift)`` is ``1 / ((T - shift)^-1)_ii``,
    and the twist ``r`` is the site of the smallest ``|gamma_i|``.  Below
    ``r``, ``z_i = -z_{i+1} / D+_i``, above it ``z_i = -z_{i-1} / D-_i``:
    each side is one running product along the sites.
    """
    # the backward sweep runs as a second row of lanes, in reversed site order
    rows = np.stack((diagonal, diagonal[::-1]), axis=1)[:, :, None] - shifts
    pivots = _pivot_sweeps(rows)
    plus, minus = pivots[:, 0], pivots[::-1, 1]
    gamma = plus + minus - rows[:, 0]
    twist = np.argmin(np.abs(gamma), axis=0)
    sites = np.arange(len(diagonal))[:, None]
    below = np.where(sites < twist, -1.0 / plus, 1.0)
    above = np.where(sites > twist, -1.0 / minus, 1.0)
    z = np.cumprod(below[::-1], axis=0)[::-1] * np.cumprod(above, axis=0)
    return z, gamma[twist, np.arange(len(shifts))]


def _twisted_vectors(box: TridiagonalBox, values: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of isolated eigenvalues (one column per value) from
    twisted factorizations, with no inverse iteration.

    The first sweep is at the value itself.  Its vector ``z`` has the
    Rayleigh quotient ``value + gamma_r / |z|^2``, a shift far closer to the
    eigenvalue than the bisected value, and the second sweep, at that
    shift, gives the vector; a bisected value alone leaves errors of order
    1e-8 in the vector.  The residual is taken against ``values``, and the
    sign makes each largest-magnitude entry positive.  Every operation acts
    on each lane alone, so a lane's vector is the same whichever lanes
    share its call.
    """
    z, gamma = _twisted_solve(box.diagonal, values)
    z, _ = _twisted_solve(box.diagonal, values + gamma / _column_norms(z) ** 2)
    vectors = z / _column_norms(z)
    residual = _column_norms(box.matvec(vectors) - vectors * values)
    _sign_and_check(box, vectors, values, residual, "the twisted factorization")
    return vectors


def _inverse_iteration(box: TridiagonalBox, values: np.ndarray, against=()) -> tuple:
    """Inverse-iteration vectors (one column per value) and their residuals.

    All lanes are factored once and iterate together from one start vector,
    projecting out ``against`` each round.  A lane stops after 8 rounds, or
    once its residual is below ``1e-13 * scale`` or stops falling, and then
    leaves the solve.  The sign makes each largest-magnitude entry positive.
    Every operation acts on each lane alone, and the norms are summed row by
    row for any lane count, so a lane's vector is the same whichever lanes
    share its call, a lone lane included.
    """
    scale = box.scale
    factors = _tridiagonal_lu(box.diagonal, values, scale)
    rng = np.random.default_rng(np.random.SeedSequence(0x51E9, spawn_key=(box.dim,)))
    start = rng.standard_normal(box.dim)
    vectors = np.repeat((start / np.linalg.norm(start))[:, None], len(values), axis=1)
    residual = np.full(len(values), math.inf)
    lanes = np.arange(len(values))
    for _ in range(8):
        w = _lu_solve(factors, vectors[:, lanes])
        for prev in against:
            w -= prev[:, None] * (prev @ w)
        w /= _column_norms(w)
        r = _column_norms(box.matvec(w) - w * values[lanes])
        active = (r > 1e-13 * scale) & (r < residual[lanes])
        vectors[:, lanes], residual[lanes] = w, r
        if not active.any():
            break
        if not active.all():  # gather the factor columns of the lanes left
            lanes = lanes[active]
            factors = tuple(f[:, active] for f in factors)
    _sign_and_check(box, vectors, values, residual, "inverse iteration")
    return vectors, residual


def eigenvector(
    box: TridiagonalBox, value: float, *, orthogonalize_against: tuple[np.ndarray, ...] = ()
) -> EigenPair:
    """Inverse iteration at a shift within ~1e-6 of a true eigenvalue.

    The one-lane case of the tridiagonal LU behind the cluster members of
    :func:`eigenpairs`, so an exactly singular shift leaves a zero last
    pivot, which becomes ``eps * scale``.  The sign makes the
    largest-magnitude entry positive.  Vectors in ``orthogonalize_against``
    are projected out on every iteration (used for near-degenerate
    clusters).
    """
    vectors, residual = _inverse_iteration(box, np.array([value], float), orthogonalize_against)
    return EigenPair(float(value), vectors[:, 0], float(residual[0]))


def eigenpairs(box: TridiagonalBox, ranks: range | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of 0-based ``ranks`` (all of them by default)
    and their eigenvectors, one per column.

    A value within ``CLUSTER_GAP_FACTOR * scale`` of a neighbour belongs to
    a cluster.  An isolated value gets its vector from two twisted
    factorizations over eigenvalue lanes (:func:`_twisted_vectors`); the
    returned values stay the bisection midpoints.  Twisted vectors of
    values that close are not orthogonal to round-off, so a cluster keeps
    inverse iteration: its first members (heads) share one tridiagonal LU
    over eigenvalue lanes, and the later members are redone one at a time
    in rank order, orthogonalized against the earlier members of their
    cluster.

    A range returns its slice of the full call bit for bit: a lane's vector
    does not depend on the other lanes; the rank above the range is
    bisected too, to tell a cluster head at the top from an isolated value;
    and when the lowest rank continues a cluster the ranks below it are
    bisected one at a time down to the cluster's first member, whose
    vectors the later members need."""
    ranks = _rank_range(box, ranks)
    if not ranks:
        return np.empty(0), np.empty((box.dim, 0))
    gap = CLUSTER_GAP_FACTOR * box.scale
    # values[0] is the rank below the lowest one solved and values[-1] the
    # rank above the highest one, while there are such ranks
    head, top = ranks.start, min(ranks.stop + 1, box.dim)
    values = eigenvalues(box, range(max(head - 1, 0), top))
    while head > 0 and values[1] - values[0] < gap:
        head -= 1
        values = np.concatenate((eigenvalues(box, range(max(head - 1, 0), head)), values))
    close = np.diff(values) < gap
    keep = slice(int(head > 0), len(values) - (top - ranks.stop))
    follows = np.concatenate(([False], close))[keep]
    leads = np.concatenate((close, [False]))[keep]
    values = values[keep]
    first = np.maximum.accumulate(np.where(follows, 0, np.arange(len(values))))
    vectors = np.empty((box.dim, len(values)))
    isolated = ~(follows | leads)
    vectors[:, isolated] = _twisted_vectors(box, values[isolated])
    heads = leads & ~follows
    if heads.any():
        vectors[:, heads] = _inverse_iteration(box, values[heads])[0]
    for j in np.flatnonzero(follows):
        against = tuple(vectors[:, i] for i in range(j - 1, first[j] - 1, -1))
        vectors[:, j] = eigenvector(box, values[j], orthogonalize_against=against).vector
    skip = ranks.start - head
    return values[skip:], vectors[:, skip:]


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------

RESONANCE_DISTANCE_FACTOR = 1e-12


@dataclass(frozen=True)
class GreenLanes:
    """Green's values of shape ``(targets, *lanes)`` (or ``lanes``), as signs
    and log magnitudes.  A lane whose energy is resonant for its box is
    flagged in ``resonant`` instead of raising; its values are meaningless.
    """

    sign: np.ndarray
    log_mag: np.ndarray
    resonant: np.ndarray


def green(box: TridiagonalBox, energy, x: int, y, method: str = "det_ratio"):
    """Signed log of the box Green's function <delta_x, (H - E)^{-1} delta_y>.

    ``det_ratio`` evaluates the quotient of truncated determinants in scaled
    arithmetic (empty intervals count as 1); ``direct_solve`` solves the
    linear system through the pivoted tridiagonal LU of :func:`eigenvector`.
    Energies within round-off of the spectrum raise :class:`ResonantEnergyError`.

    Lanes (potential columns in the box, an array of energies broadcast
    against them, or a tuple of targets ``y``) return :class:`GreenLanes` of
    shape ``(len(y), *lanes)`` (no target axis for one target).  All targets
    share one prefix run over the box; each distinct ``max(x, y) < hi`` adds
    one run over the sites above it.  A single lane is the same computation.
    """
    targets = tuple(int(t) for t in np.atleast_1d(y))
    if not all(box.lo <= t <= box.hi for t in (x,) + targets):
        raise IndexError("x and y must lie inside the box window")
    values = box.diagonal
    lanes = np.ndim(energy) > 0 or values.ndim == 2 or np.ndim(y) > 0
    if method not in ("det_ratio", "direct_solve"):
        raise ValueError(f"unknown Green's function method {method!r}")
    if lanes and method != "det_ratio":
        raise ValueError("direct_solve evaluates one lane")
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    pairs = [sorted((x, t)) for t in targets]
    steps = sorted({a - box.lo for a, _ in pairs if a > box.lo} | {box.dim})
    prefix_sign, prefix_log = det_recurrence(e, values, steps)
    full_sign, full_log = prefix_sign[-1], prefix_log[-1]
    delta = RESONANCE_DISTANCE_FACTOR * box.scale
    counts = sturm_counts(values, np.stack(np.broadcast_arrays(e - delta, e + delta)))
    resonant = (full_sign == 0) | (counts[0] != counts[1])
    if not lanes and resonant[0]:
        if full_sign[0] == 0:
            raise ResonantEnergyError(f"resonant energy {energy!r}: det(H - E) vanished")
        raise ResonantEnergyError(
            f"resonant energy {energy!r}: an eigenvalue of the box lies within "
            f"{RESONANCE_DISTANCE_FACTOR * box.scale:.3e}"
        )
    if method == "direct_solve":
        rhs = np.zeros((box.dim, 1))
        rhs[y - box.lo] = 1.0
        sol = _lu_solve(_tridiagonal_lu(values, e, box.scale), rhs)
        return SignedLog.from_value(float(sol[x - box.lo, 0]))
    above = {b: interval_det(e, values[b - box.lo + 1 :]) for _, b in pairs}
    sign = np.empty((len(pairs),) + full_sign.shape)
    log_mag = np.empty_like(sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (a, b) in enumerate(pairs):
            if a > box.lo:
                k = steps.index(a - box.lo)
                left_sign, left_log = prefix_sign[k], prefix_log[k]
            else:
                left_sign, left_log = 1.0, 0.0
            right_sign, right_log = above[b]
            zero = (left_sign == 0) | (right_sign == 0)
            parity = -1.0 if (x + targets[i]) % 2 else 1.0
            sign[i] = np.where(zero, 0.0, left_sign * right_sign / full_sign * parity)
            log_mag[i] = np.where(zero, NEG_INF, (left_log + right_log) - full_log)
    if not lanes:
        return SignedLog(float(sign[0, 0]), float(log_mag[0, 0]))
    if np.ndim(y) == 0:
        sign, log_mag = sign[0], log_mag[0]
    return GreenLanes(sign, log_mag, resonant)


@dataclass(frozen=True)
class RegularityLanes:
    """The two-sided Green's-decay test of many (site, energy, rate) lanes at
    one radius.  ``green`` holds the values from each site to both box edges
    (shape ``(2, *lanes)``); resonant lanes are not regular."""

    green: GreenLanes
    regular: np.ndarray

    @property
    def resonant(self) -> np.ndarray:
        return self.green.resonant


def classify_regularity(window: PotentialWindow, site, radius: int, rate, energy):
    """Apply the two-sided Green's-decay definition of a regular site.

    Evaluates the Green's function of the box ``[site - radius, site + radius]``
    from the site to both edges via determinant ratios and compares the log
    magnitudes against ``-rate * radius``.

    ``site`` is a scalar or one axis of sites, each box gathered once, and
    ``rate`` and ``energy`` broadcast against it: ``(E, 1)`` against ``(S,)``
    gives ``(E, S)`` lanes, equal 1-D shapes pair up.  Lanes are tested in one
    pass and give a :class:`RegularityLanes`, resonant lanes flagged instead
    of raising; scalars give a :class:`RegularityReport` of one lane.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if np.ndim(site) > 1:
        raise ValueError("site must be a scalar or one axis of sites")
    shape = np.broadcast_shapes(np.shape(site), np.shape(rate), np.shape(energy))
    sites = np.atleast_1d(np.asarray(site, dtype=np.int64))
    lo, hi = int(np.min(sites)) - radius, int(np.max(sites)) + radius
    if not (window.lo <= lo and hi <= window.hi):
        raise IndexError(f"[{lo}, {hi}] not contained in [{window.lo}, {window.hi}]")
    # one box per site in the shared coordinates [-radius, radius], site at 0
    offsets = np.arange(-radius, radius + 1)[:, None] + (sites - window.lo)
    box = TridiagonalBox(PotentialWindow(-radius, radius, window.values[offsets]))
    g = green(box, np.broadcast_to(np.asarray(energy, float), shape or (1,)), 0, (-radius, radius))
    threshold = -np.asarray(rate) * radius
    regular = ~g.resonant & (g.log_mag[0] <= threshold) & (g.log_mag[1] <= threshold)
    if shape:
        return RegularityLanes(g, regular)
    if g.resonant[0]:
        raise ResonantEnergyError(
            f"resonant energy {energy!r} for the box [{site - radius}, {site + radius}]"
        )
    left, right = (SignedLog(float(g.sign[k, 0]), float(g.log_mag[k, 0])) for k in (0, 1))
    verdict = "regular" if regular[0] else "singular"
    return RegularityReport(site, radius, rate, energy, left, right, verdict)


def reconstruct_interior(
    box: TridiagonalBox,
    energy: float,
    psi_left_outside: float,
    psi_right_outside: float,
    site: int,
) -> float:
    """Interior value of a solution from its just-outside boundary data:
    ``psi(x) = -G(x, a) psi(a-1) - G(x, b) psi(b+1)``."""
    g_left = green(box, energy, site, box.lo)
    g_right = green(box, energy, site, box.hi)
    return float(-g_left.value() * psi_left_outside - g_right.value() * psi_right_outside)


def correlator(box: TridiagonalBox) -> Correlator:
    """Eigenfunction correlator Q(x, y) = sum_j |psi_j(x)| |psi_j(y)|.

    Q dominates ``|<delta_x, exp(-itH) delta_y>|`` for every time t.  The
    decay rate is a least-squares fit of ``log Q`` against ``|x - y|`` over
    the off-diagonal entries; ~0 for extended states, ~gamma when localized.
    """
    _, vectors = eigenpairs(box)
    amp = np.abs(vectors)
    q = amp @ amp.T
    ii, jj = np.triu_indices(box.dim, k=1)
    dist = (jj - ii).astype(float)
    vals = q[ii, jj]
    keep = vals > 0
    if np.count_nonzero(keep) < 2:
        return Correlator(q, 0.0)
    slope = np.polyfit(dist[keep], np.log(vals[keep]), 1)[0]
    return Correlator(q, float(-slope))
