"""Finite truncations of the lattice operator and their spectral objects.

A window of potential values defines a symmetric tridiagonal box (diagonal =
values, off-diagonals = 1).  Eigenvalues come from Sturm-count bisection on
the scaled determinant recurrence, eigenvectors from shifted inverse
iteration; both are deterministic for fixed input regardless of scheduling.
Green's functions are available through the determinant-ratio formula and
through a direct banded solve, and the module also provides the regularity
classification of a site, interior reconstruction from boundary data, and
the eigenfunction-correlator bound used as a dynamical-localization proxy.

Regularity is lane-batched.  A lane is one (site, energy, rate) triple; all
lanes of one radius share the box coordinates ``[-radius, radius]`` and are
stored site-major, one potential column per lane.  One call runs, for every
lane at once, a prefix determinant recurrence over the box (read after
``radius`` sites and at the end), one recurrence over the sites above the
center, and one 2-shift Sturm count for the resonance test; resonant lanes
are flagged instead of raising.  Each lane does exactly the arithmetic of a
scalar call, which is the same computation on one lane.
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
#: cluster and their inverse-iteration vectors reorthogonalized
CLUSTER_GAP_FACTOR = 1e-6

_PIVMIN = np.finfo(float).tiny


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
        m = np.diag(self.diagonal)
        idx = np.arange(self.dim - 1)
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = 1.0
        return m

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
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

def sturm_counts(diagonal: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the box strictly below each shift.

    Runs the standard LDL^T sign count on ``T - shift`` with unit
    off-diagonals, vectorized across shifts.  For lanes, ``diagonal`` is
    site-major with one column per lane, shape ``(m, L)``, and ``shifts`` has
    shape ``(k, L)``; the counts then have shape ``(k, L)``.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    q = np.full(shifts.shape, np.inf)
    count = np.zeros(shifts.shape, dtype=np.int64)
    for v in diagonal:
        q = (v - shifts) - 1.0 / q
        np.copyto(q, -_PIVMIN, where=np.abs(q) < _PIVMIN)
        count += q < 0
    return count


def eigenvalues(box: TridiagonalBox) -> np.ndarray:
    """All eigenvalues in ascending order, bracketed by bisection.

    Each eigenvalue is enclosed to absolute width ``1e-10 * (2 + max|V|)``;
    the returned value is the bracket midpoint.  Multiplicities (and
    near-multiple clusters) simply produce coincident brackets.
    """
    d = box.diagonal
    n = box.dim
    glo, ghi = box.gershgorin()
    tol = EIGENVALUE_TOL_FACTOR * box.scale
    lo = np.full(n, glo - tol)
    hi = np.full(n, ghi + tol)
    ranks = np.arange(1, n + 1)
    width = (ghi - glo) + 2 * tol
    iters = max(1, min(200, int(math.ceil(math.log2(max(width / tol, 2.0)))) + 1))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = sturm_counts(d, mid) >= ranks
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return 0.5 * (lo + hi)


def _start_vector(dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0x51E9, spawn_key=(dim,))))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _banded(diagonal: np.ndarray, shift: float) -> np.ndarray:
    n = len(diagonal)
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0
    ab[1] = diagonal - shift
    ab[2, :-1] = 1.0
    return ab


def eigenvector(
    box: TridiagonalBox,
    value: float,
    *,
    orthogonalize_against: tuple[np.ndarray, ...] = (),
) -> EigenPair:
    """Inverse iteration at a shift within ~1e-6 of a true eigenvalue.

    The sign is fixed so the largest-magnitude entry is positive.  An exactly
    singular shift is perturbed by ``1e-12 * scale`` and retried, at most five
    times.  Vectors listed in ``orthogonalize_against`` are projected out on
    every iteration (used for near-degenerate clusters).
    """
    from scipy.linalg import solve_banded  # imported here: scipy is slow to load

    d = box.diagonal
    scale = box.scale
    res_tol = RESIDUAL_TOL_FACTOR * scale
    v = _start_vector(box.dim)
    shift = float(value)
    for attempt in range(6):
        try:
            last_residual = math.inf
            for _ in range(8):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    w = solve_banded((1, 1), _banded(d, shift), v)
                for prev in orthogonalize_against:
                    w = w - np.dot(prev, w) * prev
                norm = np.linalg.norm(w)
                if not np.isfinite(norm) or norm == 0.0:
                    raise np.linalg.LinAlgError("inverse iteration produced no direction")
                v = w / norm
                residual = float(np.linalg.norm(box.matvec(v) - value * v))
                if residual <= 1e-13 * scale or residual >= last_residual:
                    break
                last_residual = residual
            break
        except np.linalg.LinAlgError:
            if attempt == 5:
                raise
            shift = float(value) + (attempt + 1) * 1e-12 * scale
            v = _start_vector(box.dim)
    peak = int(np.argmax(np.abs(v)))
    if v[peak] < 0:
        v = -v
    residual = float(np.linalg.norm(box.matvec(v) - value * v))
    if residual > res_tol:
        raise RuntimeError(
            f"inverse iteration failed to converge at {value!r}: residual {residual:.3e}"
        )
    return EigenPair(float(value), v, residual)


def eigenpairs(box: TridiagonalBox) -> tuple[np.ndarray, np.ndarray]:
    """Full decomposition: ascending eigenvalues and the matrix of
    eigenvectors (one per column), cluster-orthogonalized in index order."""
    values = eigenvalues(box)
    cluster_gap = CLUSTER_GAP_FACTOR * box.scale
    vectors = np.empty((box.dim, box.dim))
    for j, lam in enumerate(values):
        against = []
        k = j - 1
        while k >= 0 and values[k + 1] - values[k] < cluster_gap:
            against.append(vectors[:, k])
            k -= 1
        pair = eigenvector(box, float(lam), orthogonalize_against=tuple(against))
        vectors[:, j] = pair.vector
    return values, vectors


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------

RESONANCE_DISTANCE_FACTOR = 1e-12


@dataclass(frozen=True)
class GreenLanes:
    """Green's values of many lanes, as signs and log magnitudes.

    A lane whose energy is resonant for its box is flagged in ``resonant``
    instead of raising; its values are meaningless.
    """

    sign: np.ndarray
    log_mag: np.ndarray
    resonant: np.ndarray


def _resonant(diagonal: np.ndarray, energy: np.ndarray, full_sign: np.ndarray, scale) -> np.ndarray:
    """Lanes whose full determinant vanished or whose box has an eigenvalue
    within ``1e-12 * scale`` of the energy."""
    delta = RESONANCE_DISTANCE_FACTOR * scale
    counts = sturm_counts(diagonal, np.stack(np.broadcast_arrays(energy - delta, energy + delta)))
    return (full_sign == 0) | (counts[0] != counts[1])


def green(box: TridiagonalBox, energy, x: int, y, method: str = "det_ratio"):
    """Signed log of the box Green's function <delta_x, (H - E)^{-1} delta_y>.

    ``det_ratio`` evaluates the quotient of truncated determinants in scaled
    arithmetic (empty intervals count as 1); ``direct_solve`` solves the
    banded linear system.  Energies within round-off of the spectrum raise
    :class:`ResonantEnergyError`.

    Lanes: a box holding one potential column per lane, an array of energies,
    or a tuple of targets ``y`` return :class:`GreenLanes` with values of
    shape ``(len(y), L)`` (or ``(L,)`` for one target).  All targets share one
    prefix run over the box; each distinct ``max(x, y) < hi`` adds one run
    over the sites above it.  A single lane is the same computation.
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
    resonant = _resonant(values, e, full_sign, box.scale)
    if not lanes and resonant[0]:
        if full_sign[0] == 0:
            raise ResonantEnergyError(f"resonant energy {energy!r}: det(H - E) vanished")
        raise ResonantEnergyError(
            f"resonant energy {energy!r}: an eigenvalue of the box lies within "
            f"{RESONANCE_DISTANCE_FACTOR * box.scale:.3e}"
        )
    if method == "direct_solve":
        from scipy.linalg import solve_banded  # imported here: scipy is slow to load

        rhs = np.zeros(box.dim)
        rhs[y - box.lo] = 1.0
        sol = solve_banded((1, 1), _banded(values, energy), rhs)
        return SignedLog.from_value(float(sol[x - box.lo]))
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
    one radius.  ``green`` holds the values from each site to the left and
    the right box edge (shape ``(2, L)``); resonant lanes are not regular."""

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

    ``site``, ``rate`` and ``energy`` broadcast to lanes: with any of them an
    array, every lane is tested in one pass and a :class:`RegularityLanes` is
    returned, flagging resonant lanes instead of raising.  Scalars give a
    :class:`RegularityReport` from the same computation on one lane.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    lanes = np.ndim(site) > 0 or np.ndim(rate) > 0 or np.ndim(energy) > 0
    sites, rates, energies = (
        np.atleast_1d(a) for a in np.broadcast_arrays(site, rate, energy)
    )
    sites = sites.astype(np.int64)
    lo, hi = int(np.min(sites)) - radius, int(np.max(sites)) + radius
    if not (window.lo <= lo and hi <= window.hi):
        raise IndexError(f"[{lo}, {hi}] not contained in [{window.lo}, {window.hi}]")
    # every lane's box in the shared coordinates [-radius, radius], site at 0
    offsets = np.arange(-radius, radius + 1)[:, None] + (sites - window.lo)
    box = TridiagonalBox(PotentialWindow(-radius, radius, window.values[offsets]))
    g = green(box, energies.astype(float), 0, (-radius, radius))
    threshold = -rates * radius
    regular = ~g.resonant & (g.log_mag[0] <= threshold) & (g.log_mag[1] <= threshold)
    if lanes:
        return RegularityLanes(g, regular)
    if g.resonant[0]:
        raise ResonantEnergyError(
            f"resonant energy {energy!r} for the box [{site - radius}, {site + radius}]"
        )
    return RegularityReport(
        site=site,
        radius=radius,
        rate=rate,
        energy=energy,
        green_left=SignedLog(float(g.sign[0, 0]), float(g.log_mag[0, 0])),
        green_right=SignedLog(float(g.sign[1, 0]), float(g.log_mag[1, 0])),
        verdict="regular" if regular[0] else "singular",
    )


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
    n = box.dim
    if n < 2:
        return Correlator(q, 0.0)
    ii, jj = np.triu_indices(n, k=1)
    dist = (jj - ii).astype(float)
    vals = q[ii, jj]
    keep = vals > 0
    if np.count_nonzero(keep) < 2:
        return Correlator(q, 0.0)
    slope = np.polyfit(dist[keep], np.log(vals[keep]), 1)[0]
    return Correlator(q, float(-slope))
