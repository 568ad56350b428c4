"""Monte Carlo estimators: Lyapunov exponents, tail curves, lifted bounds.

Everything here is seeded and merge-order deterministic: samples are drawn
in fixed-size batches whose streams derive from (master stream, batch
index), and batch results are reduced in index order, so output is
bit-identical for any worker count.  Tail counts take one draw per batch
over the largest grid radius and read every radius off one kernel pass, so
the counts at different radii come from the same windows and are
correlated.  Likewise one draw per batch serves every energy of a
Lyapunov estimate, energy being one more lane axis of the kernel, so
estimates across an energy grid are correlated too.  The lifting check
draws once per batch from ``stream.child(1)`` for both product laws: the
base block is the exact law's windows, and the same block with the
perturbed columns redrawn is the approximate law's; one plain kernel pass
per law reads them, so the two laws' counts are correlated as well.  Both
tail curves run one pipeline, counting every law off a leading law axis.
Statistical tolerances follow one rule throughout: three combined standard
errors, with a Wilson-adjusted estimate substituted when a tail count is
below ten.
"""
from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .measures import (
    BaseMeasure, DensitySequence, FiniteAtoms, ProductLaw, PotentialWindow, sample_windows,
)
from .rng import RngStream
from .transfer import (
    AtomWindows,
    centered_batch,
    interval_det,
    log_det_abs_batch,
    log_norm_batch,
    matrix_batch,
    require_unit,
    vector_growth_logs,
)

#: sites discarded before the growth of the solution vector is measured;
#: long enough that the contracting direction is dead to double precision
BURN_IN = 64

#: samples per batch; fixed so that stream derivation and merge order do not
#: depend on the worker count
BATCH_SIZE = 4096

#: tail counts below this use a Wilson-adjusted estimate instead of the
#: normal approximation
WILSON_CUTOFF = 10

RATE_FIT_MIN_COUNT = 5


def _map_batches(fn: Callable[[int, int], object], total: int, workers: int) -> list:
    """Run fn(batch_index, batch_size) over all batches; results come back in
    batch order regardless of scheduling."""
    starts = range(0, total, BATCH_SIZE)
    tasks = [(i, min(BATCH_SIZE, total - start)) for i, start in enumerate(starts)]
    if workers <= 1 or len(tasks) <= 1:
        return [fn(i, size) for i, size in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i, size) for i, size in tasks]
        return [f.result() for f in futures]


def tail_estimate(count: int, samples: int) -> tuple[float, float]:
    """Tail probability and its standard error from a binomial count.

    Normal approximation when the count is comfortable, Wilson center and
    half-width (z = 1) when it is below :data:`WILSON_CUTOFF`, so that zero
    counts still give a usable positive estimate.
    """
    if count < WILSON_CUTOFF or samples - count < WILSON_CUTOFF:
        z2 = 1.0
        center = (count + z2 / 2) / (samples + z2)
        half = math.sqrt(count * (samples - count) / samples + z2 / 4) / (samples + z2)
        return center, half
    p = count / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """``(count, mean, M2)`` along the last (sample) axis, M2 being the sum
    of squared deviations from the mean (two passes, no cancellation)."""
    mean = np.mean(values, axis=-1)
    return values.shape[-1], mean, np.sum((values - mean[..., None]) ** 2, axis=-1)


def _merge_moments(parts) -> tuple[int, np.ndarray, np.ndarray]:
    """``(count, mean, M2)`` of the union of samples, merged pairwise in the
    given order (Chan, Golub & LeVeque 1979), so the result depends on the
    batch order only, not on the worker count; means and M2 merge
    elementwise."""
    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in parts:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    return count, mean, m2


def _kernel_windows(law: ProductLaw, lo: int, hi: int, count: int, stream: RngStream, *,
                    coupled: bool = False):
    """The windows of :func:`sample_windows` in the form the transfer kernels
    read: for a base of at most two atoms, the draw's atom indices with the
    atoms (:class:`AtomWindows`), so no block of values is formed; the values
    for any other law.  The redrawn columns of a coupled draw come as the
    sampler drew them, indices or values, to be written into the block."""
    base = law.base
    if not (isinstance(base, FiniteAtoms) and len(base.atoms) <= 2):
        return sample_windows(law, lo, hi, count, stream, coupled=coupled)
    drawn = sample_windows(law, lo, hi, count, stream, coupled=coupled, codes=True)
    if not coupled:
        return AtomWindows(drawn, base.locations)
    codes, sites, columns = drawn
    return AtomWindows(codes, base.locations), sites, columns


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEstimate:
    """Monte Carlo estimate of the exponential growth rate at one energy or
    at each of ``E`` energies.

    ``mean`` averages, over independent potential windows, the log growth of
    the transfer-propagated solution vector across ``n`` sites after a
    burn-in of :data:`BURN_IN` sites; the burn-in removes the O(1/n) start-up
    offset, so constant potentials reproduce the closed form to round-off.
    As in :func:`matrix_batch`, fields are scalars for a scalar energy and
    ``(E,)`` arrays for ``E`` energies (``per_sample``: ``(E, samples)``);
    all energies read the same windows, so their estimates are correlated.
    """

    energy: complex | float | np.ndarray
    n: int
    samples: int
    mean: float | np.ndarray
    stderr: float | np.ndarray
    per_sample: np.ndarray | None = None


def lyapunov_mc(
    law: ProductLaw,
    energy: complex | float | np.ndarray,
    n: int,
    samples: int,
    stream: RngStream,
    *,
    workers: int = 1,
    keep_samples: bool = False,
) -> LyapunovEstimate:
    """Estimate the Lyapunov exponent at ``energy`` (a scalar or a 1-D array)
    from ``samples`` windows.

    Batch ``b`` draws one window batch from ``stream.child(b)``, and that
    draw serves every energy: ``(E, 1)`` energies broadcast against the
    windows, in groups small enough that no kernel call exceeds
    :data:`BATCH_SIZE` lanes.
    """
    if n < 1 or samples < 1:
        raise ValueError("lyapunov_mc requires n >= 1 and samples >= 1")
    shape, energies = np.shape(energy), np.reshape(energy, -1)

    def batch(i: int, size: int):
        wins = _kernel_windows(law, 1, n + BURN_IN, size, stream.child(i))
        group = max(1, BATCH_SIZE // size)
        g = np.concatenate([
            np.diff(vector_growth_logs(part[:, None], wins, (BURN_IN, BURN_IN + n)), axis=0)[0] / n
            for part in np.split(energies, range(group, energies.size, group))
        ])
        return _moments(g), (g if keep_samples else None)

    parts = _map_batches(batch, samples, workers)
    _, mean, m2 = _merge_moments(p[0] for p in parts)
    stderr = np.sqrt(m2 / (samples - 1) / samples) if samples > 1 else 0.0 * mean
    if not np.all(np.isfinite(mean)):
        bad = energies[np.argmin(np.isfinite(mean))].item()
        raise ArithmeticError(f"Lyapunov estimate diverged at energy {bad!r}")
    per_sample = np.concatenate([p[1] for p in parts], axis=-1) if keep_samples else None
    return LyapunovEstimate(
        energies if shape else energy, n, samples, mean.reshape(shape)[()],
        stderr.reshape(shape)[()], None if per_sample is None else per_sample.reshape(shape + (-1,)),
    )


def lyapunov_closed_form(c: float, energy: complex | float) -> float:
    """Growth rate for the constant potential ``V == c``.

    Real energies inside the band ``|E - c| < 2`` are elliptic and return 0;
    outside, the rate is the log of the larger eigenvalue magnitude of the
    one-step matrix, ``log((|E-c| + sqrt((E-c)^2 - 4)) / 2)``.
    """
    d = energy - c
    if isinstance(d, complex) and d.imag != 0:
        s = cmath.sqrt(d * d - 4.0)
        if (d.conjugate() * s).real < 0:
            s = -s
        return math.log(abs((d + s) / 2.0))
    a = abs(float(d.real) if isinstance(d, complex) else float(d))
    if a <= 2.0:
        return 0.0
    return math.log((a + math.sqrt(a * a - 4.0)) / 2.0)


# ---------------------------------------------------------------------------
# tail curves
# ---------------------------------------------------------------------------

STATISTICS = ("log_norm", "log_det", "matrix_element")


def _statistic_logs(
    statistic: str,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    u: np.ndarray | None,
    v: np.ndarray | None,
) -> np.ndarray:
    s00, s01, s10, s11, log_scale = batch
    if statistic == "log_norm":
        return log_norm_batch(s00, s01, s10, s11, log_scale)
    if statistic == "log_det":
        return log_det_abs_batch(s00, s01, s10, s11, log_scale)
    ip = u[0] * (s00 * v[0] + s01 * v[1]) + u[1] * (s10 * v[0] + s11 * v[1])  # type: ignore[index]
    with np.errstate(divide="ignore"):
        return log_scale + np.log(np.abs(ip))


def checked_statistic(
    statistic: str, u: np.ndarray | None, v: np.ndarray | None, rate_power: float
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Check a tail curve's statistic and fit arguments before any draw;
    ``u`` and ``v``, given exactly for ``matrix_element``, come back as unit
    vectors.  Each message leads with the argument it rejects."""
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    if rate_power not in (1.0, 0.5):
        raise ValueError("rate_power must be 1.0 or 0.5")
    vectors = (("u", u), ("v", v))
    for name, vec in vectors:
        if (vec is None) == (statistic == "matrix_element"):
            raise ValueError(f"{name} must be given exactly when statistic is 'matrix_element'")
    return tuple(None if vec is None else require_unit(name, vec) for name, vec in vectors)


def _tail_counts(
    products: Callable[[int, int], tuple], energy: complex | float, lengths: np.ndarray,
    eps_eff: float, gamma_ref: float, n_grid: np.ndarray, samples: int, statistic: str,
    u: np.ndarray | None, v: np.ndarray | None, workers: int,
) -> np.ndarray:
    """Deviation counts, one row per law and one column per grid radius.

    ``products(b, size)`` draws batch ``b`` over the largest radius and
    returns the five arrays of one kernel pass, each led by a law axis and
    then one row per radius (window length ``lengths``), so the counts are
    correlated across radii, and across laws that share a draw; one
    statistic call serves every law.  A NaN or ``+inf`` statistic under any
    law raises after all batches, naming the first radius with one and the
    most such lanes of any law there.
    """

    def batch(b: int, size: int):
        stats = _statistic_logs(statistic, products(b, size), u, v)
        # -inf marks an exact zero (log_det, matrix_element) and counts as
        # a deviation; NaN would silently count as none
        bad = np.count_nonzero(np.isnan(stats) | (stats == np.inf), axis=-1)
        deviation = np.abs(stats / lengths[:, None] - gamma_ref) > eps_eff
        # plain ints: a numpy buffer kept until the last batch would split the
        # heap block that every batch's windows reuse, and add a block of memory
        return np.count_nonzero(deviation, axis=-1).tolist(), bad.tolist()

    parts = _map_batches(batch, samples, workers)
    bad = np.sum([p[1] for p in parts], axis=0).max(axis=0)
    if np.any(bad):
        i = int(np.argmax(bad > 0))
        raise ValueError(
            f"non-finite statistic at energy {energy!r}, radius {int(n_grid[i])}: "
            f"{int(bad[i])} of {samples} lanes"
        )
    return np.sum([p[0] for p in parts], axis=0, dtype=np.int64)


@dataclass(frozen=True)
class RateFit:
    eta: float
    stderr: float
    flag: str | None = None  # "lower_bound" when every count was zero


def _fit_rate(
    n_grid: np.ndarray, counts: np.ndarray, samples: int, rate_power: float
) -> RateFit:
    """-slope of log tail probability against n^rate_power, unweighted least
    squares over grid points with at least RATE_FIT_MIN_COUNT hits.

    The standard error comes from the fit residuals, as if the grid points
    were independent; with one draw serving every radius they are not, yet
    for ``lde_bernoulli`` at 5000 samples over 40 seeds the spread of the
    fitted rate was 0.65 times the median reported error (0.67 with a fresh
    draw per radius), so it does not understate the seed-to-seed spread.
    """
    if np.all(counts == 0):
        bound = math.log(samples) / float(n_grid[-1]) ** rate_power
        return RateFit(bound, math.nan, "lower_bound")
    mask = counts >= RATE_FIT_MIN_COUNT
    if np.count_nonzero(mask) < 2:
        return RateFit(math.nan, math.nan, "insufficient_counts")
    x = n_grid[mask].astype(float) ** rate_power
    y = np.log(counts[mask] / samples)
    slope, intercept = np.polyfit(x, y, 1)
    dof = len(x) - 2
    if dof > 0:
        resid = y - (slope * x + intercept)
        sxx = float(np.sum((x - np.mean(x)) ** 2))
        se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    else:
        se = math.nan
    return RateFit(float(-slope), se, None)


@dataclass(frozen=True)
class LDECurve:
    """Empirical tail probabilities of a per-site log statistic, with a
    fitted exponential (or stretched-exponential) decay rate."""

    law_tag: str
    energy: complex | float
    statistic: str
    epsilon: float
    epsilon_eff: float
    gamma_ref: float
    gamma_stderr: float
    n_grid: np.ndarray
    counts: np.ndarray
    samples: int
    rate_power: float
    fit: RateFit

    def __post_init__(self) -> None:
        if np.any(self.counts > self.samples):
            raise ValueError("tail counts cannot exceed the sample count")


def _tail_curve(
    law: ProductLaw, draw: Callable, energy: complex | float, epsilon: float,
    n_grid: Sequence[int], samples: int, stream: RngStream, statistic: str,
    u: np.ndarray | None, v: np.ndarray | None, rate_power: float, workers: int, *,
    centered: bool = False, gamma: float | None = None, gamma_stderr: float = 0.0,
):
    """The one pipeline of :func:`lde_curve` and :func:`lift_check`: check
    the arguments, take the reference rate (``gamma``, else a
    :func:`lyapunov_mc` estimate under ``law`` from ``stream.child(0)`` at
    the largest window length, ``n`` or ``2n + 1`` when ``centered``), fold
    its error into ``eps_eff = epsilon - 2 stderr``, then count every law of
    ``draw(grid, stream.child(1, b), size)`` for each batch ``b``.
    Returns ``(grid, counts, gamma, gamma_stderr, eps_eff)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    u, v = checked_statistic(statistic, u, v, rate_power)
    grid = np.asarray(list(n_grid), dtype=np.int64)
    if grid.size == 0 or np.any(grid < 1) or np.any(np.diff(grid) <= 0):
        raise ValueError("n_grid must be non-empty, positive, strictly ascending")
    lengths = 2 * grid + 1 if centered else grid
    if gamma is None:
        n, batch = int(lengths[-1]), min(samples, BATCH_SIZE)
        est = lyapunov_mc(law, energy, n, batch, stream.child(0), workers=workers)
        gamma, gamma_stderr = est.mean, est.stderr
    eps_eff = epsilon - 2.0 * gamma_stderr
    if eps_eff <= 0:
        raise ValueError(
            f"epsilon {epsilon:.3g} is swamped by the gamma estimate error "
            f"({gamma_stderr:.3g}); use more samples or a larger epsilon"
        )
    counts = _tail_counts(
        lambda b, size: draw(grid, stream.child(1, b), size), energy, lengths, eps_eff, gamma,
        grid, samples, statistic, u, v, workers,
    )
    return grid, counts, gamma, gamma_stderr, eps_eff


def lde_curve(
    law: ProductLaw,
    energy: complex | float,
    epsilon: float,
    n_grid: Sequence[int],
    samples: int,
    stream: RngStream,
    statistic: str = "log_norm",
    *,
    gamma: float | None = None,
    gamma_stderr: float = 0.0,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    rate_power: float = 1.0,
    workers: int = 1,
) -> LDECurve:
    """Tail curve of ``|statistic/n - gamma|`` exceeding ``epsilon``.

    When no reference ``gamma`` is supplied, one is estimated first at the
    largest grid point; its standard error is folded into the threshold as
    ``eps_eff = epsilon - 2 stderr``.  The counts are the one-law case of
    :func:`lift_check`'s pipeline.  ``rate_power`` of 1 fits a plain
    exponential rate; 1/2 fits a stretched-exponential ``exp(-eta sqrt(n))``.
    """
    def draw(grid: np.ndarray, batch: RngStream, size: int):  # one law, on a law axis
        wins = _kernel_windows(law, 1, int(grid[-1]), size, batch)
        return tuple(a[None] for a in matrix_batch(energy, wins, grid))

    grid, (counts,), gamma, gamma_stderr, eps_eff = _tail_curve(
        law, draw, energy, epsilon, n_grid, samples, stream, statistic, u, v, rate_power,
        workers, gamma=gamma, gamma_stderr=gamma_stderr,
    )
    fit = _fit_rate(grid, counts, samples, rate_power)
    return LDECurve(
        law.tag, energy, statistic, epsilon, eps_eff, gamma, gamma_stderr,
        grid, counts, samples, rate_power, fit,
    )


# ---------------------------------------------------------------------------
# lifting bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftViolation:
    n: int
    tail_approx: float
    bound: float  # product bound times exact tail plus 3 combined errors, linear scale


@dataclass(frozen=True)
class LiftReport:
    """Two-law tail comparison against the restricted change-of-measure bound.

    For every grid radius the approximate-law tail must stay below the exact
    tail multiplied by the product of density sup norms over the window, up
    to three combined standard errors.  ``density_rate`` is the per-site rate
    of that product at the largest radius; the lifted-rate prediction is the
    exact fitted rate minus it.
    """

    energy: complex | float
    statistic: str
    epsilon: float
    epsilon_eff: float
    gamma_ref: float
    gamma_stderr: float
    n_grid: np.ndarray
    counts_exact: np.ndarray
    counts_approx: np.ndarray
    samples: int
    log_bound: np.ndarray
    violations: tuple[LiftViolation, ...]
    density_rate: float
    fit_exact: RateFit
    fit_approx: RateFit

    @property
    def tails_exact(self) -> np.ndarray:
        return self.counts_exact / self.samples

    @property
    def tails_approx(self) -> np.ndarray:
        return self.counts_approx / self.samples

    @property
    def lifted_rate_prediction(self) -> float:
        return self.fit_exact.eta - self.density_rate


def lift_check(
    seq: DensitySequence,
    base: BaseMeasure,
    energy: complex | float,
    epsilon: float,
    n_grid: Sequence[int],
    samples: int,
    stream: RngStream,
    statistic: str = "log_norm",
    *,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    rate_power: float = 1.0,
    workers: int = 1,
) -> LiftReport:
    """Measure one event family under both product laws and test the bound.

    The event at radius ``n`` depends only on sites in ``[-n, n]`` (it is a
    deviation of the windowed statistic from the exact-law growth rate), so
    the restricted Radon-Nikodym bound applies with constant
    ``prod_{|k|<=n} ||g_k||_inf``.

    :func:`lde_curve`'s pipeline estimates the reference rate under the exact
    law at ``2 n_max + 1`` sites, then batch ``b`` draws once from
    ``stream.child(1).child(b)`` for both laws: the base block is the
    exact-law windows, and the same block with the perturbed columns redrawn
    after it is the approximate-law windows (``sample_windows(...,
    coupled=True)``), so both marginals are exact.  Each law takes one plain
    :func:`centered_batch` call: law 0 on the base block as drawn, law 1 on
    the same block once the redrawn columns are written into it.  The two
    results are stacked on a leading law axis (law 0 exact, law 1
    approximate), and one statistic call counts both.  The counts are
    therefore positively correlated, and
    ``se_log``, which adds the two relative variances as if they were
    independent, overstates the error of ``log p0 - log p1``.
    """
    law_exact = ProductLaw.exact(base)
    law_approx = ProductLaw.approximate(base, seq)

    def draw(grid: np.ndarray, batch: RngStream, size: int):  # both laws, from one draw
        n_max = int(grid[-1])
        wins, sites, columns = _kernel_windows(law_approx, -n_max, n_max, size, batch, coupled=True)
        exact = centered_batch(energy, wins, grid)
        block = wins.codes if isinstance(wins, AtomWindows) else wins
        block[:, [n_max + k for k in sites]] = columns  # now the approximate law's windows
        return tuple(np.stack(laws) for laws in zip(exact, centered_batch(energy, wins, grid)))

    grid, (counts_exact, counts_approx), gamma, gamma_stderr, eps_eff = _tail_curve(
        law_exact, draw, energy, epsilon, n_grid, samples, stream, statistic, u, v, rate_power,
        workers, centered=True,
    )
    log_bound = np.array(
        [math.fsum(seq.log_sup_norm(k) for k in range(-int(n), int(n) + 1)) for n in grid]
    )
    violations = []
    for i, n in enumerate(grid):
        p0, se0 = tail_estimate(int(counts_approx[i]), samples)
        p1, se1 = tail_estimate(int(counts_exact[i]), samples)
        se_log = math.sqrt((se0 / p0) ** 2 + (se1 / p1) ** 2)
        if math.log(p0) > log_bound[i] + math.log(p1) + 3.0 * se_log:
            bound_linear = math.exp(log_bound[i] + math.log(p1) + 3.0 * se_log)
            violations.append(LiftViolation(int(n), p0, bound_linear))
    density_rate = float(log_bound[-1] / grid[-1])
    return LiftReport(
        energy, statistic, epsilon, eps_eff, gamma, gamma_stderr, grid,
        counts_exact, counts_approx, samples, log_bound, tuple(violations),
        density_rate,
        _fit_rate(grid, counts_exact, samples, rate_power),
        _fit_rate(grid, counts_approx, samples, rate_power),
    )


# ---------------------------------------------------------------------------
# deviation sets, deterministic scans
# ---------------------------------------------------------------------------

class DeviationClass(Enum):
    """Whether a window's log determinant overshoots the (gamma + eps) line,
    undershoots the (gamma - eps) line, or does neither."""

    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    NEITHER = "neither"


def deviation_classify(
    window: PotentialWindow,
    interval: tuple[int, int],
    energy: float,
    epsilon: float,
    gamma: float,
) -> DeviationClass:
    """Verbatim membership test of the two determinant deviation sets."""
    a, b = interval
    length = b - a + 1
    log_det = interval_det(energy, window.slice(a, b).values).log_mag
    if log_det >= (gamma + epsilon) * length:
        return DeviationClass.OVERSHOOT
    if log_det <= (gamma - epsilon) * length:
        return DeviationClass.UNDERSHOOT
    return DeviationClass.NEITHER


CS_FAMILIES = ("forward", "backward_inverse", "shifted_forward", "shifted_inverse")


@dataclass(frozen=True)
class CraigSimonScan:
    """Worst excess of windowed growth over the reference rate, per family.

    ``excess[f, i, j]`` is ``log ||S|| / n - gamma(E_i)`` for family ``f`` at
    radius ``n_j``.  Matrix inverses share the 2-norm of the matrix itself
    because the products have unit determinant, so the inverse families reuse
    the forward norms of their windows.
    """

    e_grid: np.ndarray
    n_grid: np.ndarray
    gamma: np.ndarray
    excess: np.ndarray

    @property
    def max_excess(self) -> float:
        return float(np.max(self.excess))

    def family_max(self) -> dict[str, float]:
        return {name: float(np.max(self.excess[i])) for i, name in enumerate(CS_FAMILIES)}


def craig_simon_scan(
    window: PotentialWindow,
    e_grid: Sequence[float],
    n_grid: Sequence[int],
    gamma: Sequence[float],
) -> CraigSimonScan:
    """Scan the four deterministic matrix families against reference rates.

    ``gamma`` must hold precomputed growth-rate estimates aligned with
    ``e_grid``.  The window must contain sites ``[-n_max, 3 n_max]``.

    Each radius is one kernel call, ``(E, 1)`` energies against the four
    family spans as the rows of one ``(4, n)`` block, read at checkpoints
    ``n - 1`` and ``n``.  The shifted inverse span is one site short, so its
    row is padded with its own last value (the block holds no value the
    window does not) and read at ``n - 1``.  Each family's product is then
    normalised as :func:`matrix_batch` normalises a call without
    checkpoints.  A lane's bits depend only on its own row and on the step
    the batch takes (one-site or table), so a family's excess equals, bit
    for bit, that of its own call over its span whenever the joint batch
    takes the same step as that call.
    """
    e_grid = np.asarray(list(e_grid), dtype=float)
    n_grid = np.asarray(list(n_grid), dtype=np.int64)
    gamma = np.asarray(list(gamma), dtype=float)
    if gamma.shape != e_grid.shape:
        raise ValueError("gamma must align with e_grid")
    if np.any(n_grid < 2):
        # the shifted inverse family spans sites [2n+2, 3n], empty below n = 2
        raise ValueError(f"n_grid entries must be >= 2, got {n_grid.tolist()}")
    n_max = int(np.max(n_grid, initial=0))
    if window.lo > -n_max or window.hi < 3 * n_max:
        raise ValueError(
            f"the window [{window.lo}, {window.hi}] must contain sites "
            f"[{-n_max}, {3 * n_max}] for n_max = {n_max}"
        )
    excess = np.empty((len(CS_FAMILIES), len(e_grid), len(n_grid)))
    families = np.arange(len(CS_FAMILIES))
    ends = [1, 1, 1, 0]  # each family's checkpoint: n, or n - 1 for the short span
    for j, n in enumerate(n_grid.tolist()):
        spans = ((1, n), (-n, -1), (n + 1, 2 * n), (2 * n + 2, 3 * n))  # CS_FAMILIES order
        rows = [window.slice(lo, hi).values for lo, hi in spans]
        rows[-1] = np.append(rows[-1], rows[-1][-1])
        batch = matrix_batch(e_grid[:, None], np.stack(rows), checkpoints=(n - 1, n))
        *entries, log_scale = (a[ends, :, families] for a in batch)  # (family, E)
        peak = np.abs(np.stack(entries)).max(axis=0)
        norms = log_norm_batch(*(s / peak for s in entries), log_scale + np.log(peak))
        excess[:, :, j] = norms / float(n) - gamma
    return CraigSimonScan(e_grid, n_grid, gamma, excess)


# ---------------------------------------------------------------------------
# submean diagnostic at complex energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmeanResult:
    """Circle average of the growth rate minus its center value.

    For a submean function the difference is nonnegative up to statistical
    noise; ``difference >= -3 * stderr`` is the empirical check.
    """

    center: complex
    radius: float
    circle_points: int
    center_mean: float
    circle_mean: float
    difference: float
    stderr: float


def submean_check(
    law: ProductLaw,
    z0: complex,
    radius: float,
    circle_points: int,
    n: int,
    samples: int,
    stream: RngStream,
    *,
    workers: int = 1,
) -> SubmeanResult:
    """Compare the growth rate at ``z0`` with its average on a circle.

    One :func:`lyapunov_mc` call from ``stream.child(0)`` serves the centre
    and every circle point, so ``stderr`` is that of the per-sample
    differences between the circle average and the centre.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if circle_points < 8:
        raise ValueError("need at least 8 circle points")
    z0 = complex(z0)
    energies = [z0] + [
        z0 + radius * cmath.exp(2j * math.pi * j / circle_points) for j in range(circle_points)
    ]
    est = lyapunov_mc(
        law, np.array(energies), n, samples, stream.child(0), workers=workers, keep_samples=True
    )
    center_mean = float(est.mean[0])
    circle_mean = math.fsum(est.mean[1:]) / circle_points
    paired = np.mean(est.per_sample[1:], axis=0) - est.per_sample[0]
    stderr = float(np.std(paired, ddof=1)) / math.sqrt(samples) if samples > 1 else 0.0
    return SubmeanResult(
        z0, radius, circle_points, center_mean, circle_mean, circle_mean - center_mean, stderr
    )
