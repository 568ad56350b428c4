"""Single-site measures, perturbing densities, and lattice product laws.

The potential of the lattice operator is random: site ``n`` carries a real
value drawn either from a fixed single-site law ``mu`` (the *exact* product
law) or from the reweighted law ``g_n * mu`` (the *approximate* product law),
where each ``g_n`` is a nonnegative density with unit mass against ``mu``.
This module owns

* the three supported single-site measures (finite atoms, uniform interval,
  symmetric/one-sided Pareto tail),
* density sequences given by rule (identity, per-site atom reweighting,
  bump schedules on a site set): ``bump_at`` and ``perturbed_sites`` define
  a sequence, and :class:`DensitySequence` answers everything else from
  them; a product law refuses densities built on another base measure,
* window sampling under either product law,
* log Radon-Nikodym products over finite windows, and
* numeric diagnostics for the three decay conditions on ``log ||g_n||_inf``
  (Cesaro-mean, center-uniform Cesaro-mean, summable).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .rng import RngStream

ATOM_WEIGHT_TOL = 1e-12
DENSITY_MASS_TOL = 1e-10
CONDITION_TOL = 0.05

VERDICT_HOLDS = "holds-empirically"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

CONDITION_MEAN = "mean_log_sup"
CONDITION_UNIFORM = "uniform_mean_log_sup"
CONDITION_SUMMABLE = "summable_log_sup"


class RejectionCapError(RuntimeError):
    """Raised when the accept/reject sampler for a perturbed site stalls."""


#: draws per pass of the uniform replay of :func:`_table_draws`
_CATEGORICAL_PASS = 1 << 14
#: raw 64-bit words per pass of :func:`_byte_table_draws` (2**14 bytes)
_TABLE_PASS_WORDS = 1 << 11


def _code_bits(cdf: np.ndarray) -> int | None:
    """The smallest ``b`` in {1, 2, 4, 8} for which every cut point
    ``cdf[j]``, ``j < k - 1``, is an exact multiple of ``2**-b``; None if
    there is none."""
    for bits in (1, 2, 4, 8):
        scaled = cdf[:-1] * (1 << bits)
        if np.array_equal(scaled, np.floor(scaled)):
            return bits
    return None


def _byte_table_draws(
    rng: np.random.Generator, table: np.ndarray, cdf: np.ndarray, bits: int, size: int
) -> np.ndarray:
    """``size`` draws of the entries of ``table`` that read ``bits``-bit
    codes from raw generator words.

    The draws take ``ceil(size * bits / 64)`` words of
    ``rng.bit_generator.random_raw`` and read their ``bits``-bit fields in
    little-endian order, so the draws do not depend on the platform.  Code
    ``c`` picks the atom ``#{j < k - 1 : cdf[j] <= c / 2**bits}``, the
    uniform rule at ``u = c / 2**bits``: atom ``j`` owns exactly
    ``w_j * 2**bits`` of the ``2**bits`` codes.  A 256-row table maps each
    raw byte to the entries of its ``8 // bits`` atoms, and ``np.take``
    writes them through a pass-sized index buffer, so the only full-size
    buffer is the returned one (a view of whole bytes' entries, cut to
    ``size``).
    """
    per_byte = 8 // bits
    atom = np.searchsorted(cdf[:-1], np.arange(1 << bits) / (1 << bits), side="right")
    fields = (np.arange(256)[:, None] >> (bits * np.arange(per_byte))) & ((1 << bits) - 1)
    entries = table[atom[fields]]
    whole = -(-size // per_byte) * per_byte
    rows = np.empty(whole, table.dtype).reshape(-1, per_byte)
    words = -(-size * bits // 64)
    index = np.empty(8 * min(words, _TABLE_PASS_WORDS), dtype=np.intp)
    for first in range(0, words, _TABLE_PASS_WORDS):
        raw = rng.bit_generator.random_raw(min(_TABLE_PASS_WORDS, words - first))
        byte = raw.astype("<u8", copy=False).view(np.uint8)
        lo = 8 * first
        m = min(len(byte), len(rows) - lo)
        np.copyto(index[:m], byte[:m])
        np.take(entries, index[:m], axis=0, out=rows[lo : lo + m], mode="clip")
    return rows.reshape(-1)[:size]


def _table_draws(
    rng: np.random.Generator, table: np.ndarray, weights: np.ndarray, size: int
) -> np.ndarray:
    """``size`` draws of the entries of ``table`` (atom ``j``'s at
    ``table[j]``) with probabilities ``weights``: the atoms' locations for a
    value draw, :func:`_atom_indices` for an index draw.  One sampler serves
    both, so the two read the same atoms off the same generator state.

    The weights alone pick the sampler.  If every cut point of the CDF is a
    multiple of ``2**-b`` for some ``b`` in {1, 2, 4, 8}, each draw reads
    ``b`` raw bits (:func:`_byte_table_draws`), and the law is still exact.
    Otherwise the draws replay ``table[rng.choice(len(weights), size,
    p=weights)]`` exactly: the same uniforms, cut points and indices, so the
    draws and the state the generator is left in are identical.  The index
    of a uniform ``u`` is the number of cut points ``cdf[j]``, ``j < k - 1``,
    with ``u >= cdf[j]`` (``searchsorted(side="right")``).  A value draw
    overwrites its uniforms, so its only full-size buffer is the returned
    one.
    """
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]
    bits = _code_bits(cdf)
    if bits is not None:
        return _byte_table_draws(rng, table, cdf, bits, size)
    u = rng.random(size)
    out = u if table.dtype == float else np.empty(size, table.dtype)
    index = np.empty(min(size, _CATEGORICAL_PASS), dtype=np.intp)
    hit = np.empty(len(index), dtype=bool)
    for start in range(0, size, _CATEGORICAL_PASS):
        part = u[start : start + _CATEGORICAL_PASS]
        idx, h = index[: len(part)], hit[: len(part)]
        np.greater_equal(part, cdf[0], out=idx)  # never true for one atom: cdf[0] == 1
        for cut in cdf[1:-1]:
            np.greater_equal(part, cut, out=h)
            idx += h
        np.take(table, idx, out=out[start : start + len(part)])
    return out


def _atom_indices(k: int) -> np.ndarray:
    """The index table of a law of ``k`` atoms: bytes, or ``intp`` for more
    than 256 atoms."""
    return np.arange(k, dtype=np.uint8 if k <= 256 else np.intp)


def _categorical(
    rng: np.random.Generator, locations: np.ndarray, weights: np.ndarray, size: int
) -> np.ndarray:
    """``size`` draws of ``locations`` with probabilities ``weights``
    (:func:`_table_draws`)."""
    return _table_draws(rng, np.asarray(locations, dtype=float), weights, size)


# ---------------------------------------------------------------------------
# single-site measures
# ---------------------------------------------------------------------------

class BaseMeasure:
    """Common interface of the single-site laws.

    Subclasses are immutable and carry ``alpha_moment``, the declared moment
    order ``alpha`` for which the absolute moment of the law is finite.
    """

    alpha_moment: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def in_support(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tail_probability(self, threshold: float) -> float:
        """P[|X| > threshold] under the measure."""
        raise NotImplementedError

    def abs_moment(self, alpha: float) -> float:
        """E[|X|^alpha]; may be ``inf`` for heavy tails."""
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteAtoms(BaseMeasure):
    """A purely atomic law: finitely many locations with positive weights.

    Weights must sum to one within ``1e-12`` and locations must be strictly
    distinct.  At least two atoms are required unless ``allow_trivial`` is
    set; the escape hatch exists only so closed-form constant-potential
    oracles can be built in tests.
    """

    atoms: tuple[tuple[float, float], ...]
    alpha_moment: float = 1.0
    allow_trivial: bool = False

    def __post_init__(self) -> None:
        if self.alpha_moment <= 0:
            raise ValueError("alpha_moment must be positive")
        if len(self.atoms) == 0:
            raise ValueError("atoms must not be empty")
        if len(self.atoms) < 2 and not self.allow_trivial:
            raise ValueError(
                "atoms must give non-trivial support, on at least two points "
                "(pass allow_trivial=True only for closed-form test oracles)"
            )
        locs = [a[0] for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atoms must have strictly distinct locations")
        weights = [a[1] for a in self.atoms]
        if any(w <= 0 for w in weights):
            raise ValueError("atoms must have positive weights")
        if abs(math.fsum(weights) - 1.0) > ATOM_WEIGHT_TOL:
            raise ValueError("atoms must have weights that sum to 1 within 1e-12")

    @property
    def locations(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms])

    def atom_index(self, values: np.ndarray) -> np.ndarray:
        """Map values to atom indices; -1 where the value is not an atom."""
        values = np.asarray(values)
        idx = np.full(values.shape, -1, dtype=np.int64)
        for m, (loc, _) in enumerate(self.atoms):
            idx[values == loc] = m
        return idx

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _categorical(rng, self.locations, self.weights, size)

    def in_support(self, values: np.ndarray) -> np.ndarray:
        return self.atom_index(values) >= 0

    def tail_probability(self, threshold: float) -> float:
        return float(math.fsum(w for loc, w in self.atoms if abs(loc) > threshold))

    def abs_moment(self, alpha: float) -> float:
        return float(math.fsum(w * abs(loc) ** alpha for loc, w in self.atoms))


@dataclass(frozen=True)
class UniformInterval(BaseMeasure):
    """Lebesgue-uniform law on ``[lo, hi]``."""

    lo: float
    hi: float
    alpha_moment: float = 1.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("uniform interval requires lo < hi")
        if self.alpha_moment <= 0:
            raise ValueError("alpha_moment must be positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def in_support(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return (values >= self.lo) & (values <= self.hi)

    def tail_probability(self, threshold: float) -> float:
        lo, hi = self.lo, self.hi
        width = hi - lo
        above = max(0.0, hi - max(lo, threshold))
        below = max(0.0, min(hi, -threshold) - lo)
        return (above + below) / width

    def abs_moment(self, alpha: float) -> float:
        # int |x|^a dx / width, split at 0 when the interval straddles it
        a = alpha

        def prim(x: float) -> float:
            return abs(x) ** (a + 1) / (a + 1)

        if self.lo >= 0 or self.hi <= 0:
            return abs(prim(self.hi) - prim(self.lo)) / (self.hi - self.lo)
        return (prim(self.hi) + prim(self.lo)) / (self.hi - self.lo)


@dataclass(frozen=True)
class ParetoTail(BaseMeasure):
    """Pareto law with density ~ |x|^-(exponent+1) beyond ``scale``.

    ``symmetric=True`` puts half the mass on each sign; otherwise the law is
    supported on ``[scale, inf)``.  The declared ``alpha_moment`` must be
    strictly below ``exponent`` so the alpha-th absolute moment is finite.
    """

    scale: float
    exponent: float
    symmetric: bool = True
    alpha_moment: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if self.alpha_moment <= 0:
            raise ValueError("alpha_moment must be positive")
        if not self.exponent > self.alpha_moment:
            raise ValueError(
                "exponent must exceed alpha_moment, otherwise the declared "
                "moment is infinite (moment condition unsatisfiable)"
            )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        # an exact 0 would give an infinite draw; 1 keeps the law of 1 - u on (0, 1]
        u[u == 0.0] = 1.0
        x = self.scale * u ** (-1.0 / self.exponent)
        if self.symmetric:
            signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
            x = x * signs
        return x

    def in_support(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if self.symmetric:
            return np.abs(values) >= self.scale
        return values >= self.scale

    def tail_probability(self, threshold: float) -> float:
        if threshold <= self.scale:
            return 1.0
        return (self.scale / threshold) ** self.exponent

    def abs_moment(self, alpha: float) -> float:
        if alpha >= self.exponent:
            return math.inf
        return self.exponent * self.scale**alpha / (self.exponent - alpha)


# ---------------------------------------------------------------------------
# site sets for bump schedules
# ---------------------------------------------------------------------------

class SiteSet:
    """A subset of the integer lattice given by rule."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def sites_in(self, lo: int, hi: int) -> list[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitSites(SiteSet):
    sites: frozenset[int]

    def contains(self, n: int) -> bool:
        return n in self.sites

    def sites_in(self, lo: int, hi: int) -> list[int]:
        return sorted(s for s in self.sites if lo <= s <= hi)


@dataclass(frozen=True)
class PowersOfTwoSites(SiteSet):
    """Sites n with |n| a power of two (both signs), i.e. +-1, +-2, +-4, ...

    The natural density of this set is zero, so a bounded bump placed on it
    keeps the Cesaro-mean conditions while breaking summability.
    """

    def contains(self, n: int) -> bool:
        m = abs(n)
        return m > 0 and (m & (m - 1)) == 0

    def sites_in(self, lo: int, hi: int) -> list[int]:
        out = []
        p = 1
        limit = max(abs(lo), abs(hi))
        while p <= limit:
            for s in (-p, p):
                if lo <= s <= hi:
                    out.append(s)
            p *= 2
        return sorted(out)


# ---------------------------------------------------------------------------
# density sequences
# ---------------------------------------------------------------------------

class DensitySequence:
    """The rule ``n -> g_n`` defining the approximate product law.

    A sequence is defined by two methods, and every other answer follows
    from them: :meth:`perturbed_sites` lists the sites of a window where
    ``g_n`` is not identically 1, and :meth:`bump_at` gives ``g_n`` at one
    site.  Densities are given by rule rather than by table, so any finite
    window of the lattice is reachable.  Every ``g_n`` is nonnegative on the
    support of the base measure and integrates to one against it.
    """

    def bump_at(self, n: int) -> np.ndarray | tuple[Callable, float] | None:
        """``g_n`` at site ``n``: the reweighted atom weights ``beta`` (an
        array; ``g_n(x_m) = beta_m / w_m`` against the weights ``w`` of
        ``self.base``), a pair of a vectorized density callable and its
        declared sup norm, or None where ``g_n == 1``."""
        raise NotImplementedError

    def perturbed_sites(self, lo: int, hi: int) -> list[int]:
        """Sites in [lo, hi] where g_n is not identically 1."""
        raise NotImplementedError

    def eval(self, n: int, values: np.ndarray) -> np.ndarray:
        """g_n evaluated at points of the support."""
        values = np.asarray(values, dtype=float)
        bump = self.bump_at(n)
        if bump is None:
            return np.ones_like(values)
        if isinstance(bump, np.ndarray):
            idx = self.base.atom_index(values)  # type: ignore[attr-defined]
            if np.any(idx < 0):
                raise ValueError(f"value outside atomic support at site {n}")
            return (bump / self.base.weights)[idx]  # type: ignore[attr-defined]
        out = np.asarray(bump[0](values), dtype=float)
        if np.any(out < 0):
            raise ValueError(f"bump density negative at site {n}")
        return out

    def sup_norm(self, n: int) -> float:
        bump = self.bump_at(n)
        if bump is None:
            return 1.0
        if isinstance(bump, np.ndarray):
            return float(np.max(self.eval(n, self.base.locations)))  # type: ignore[attr-defined]
        return float(bump[1])

    def log_sup_norm(self, n: int) -> float:
        s = self.sup_norm(n)
        return 0.0 if s == 1.0 else math.log(s)

    def is_identity_at(self, n: int) -> bool:
        return self.bump_at(n) is None

    def atom_weights_at(self, n: int) -> np.ndarray | None:
        """Reweighted atom weights at site n, if g_n reweights atoms."""
        bump = self.bump_at(n)
        return bump if isinstance(bump, np.ndarray) else None


@dataclass(frozen=True)
class Identity(DensitySequence):
    """g_n == 1 for every site: the approximate law equals the exact one."""

    def bump_at(self, n: int) -> None:
        return None

    def perturbed_sites(self, lo: int, hi: int) -> list[int]:
        return []


def _check_atom_reweight(base: FiniteAtoms, beta: Sequence[float]) -> tuple[float, ...]:
    beta = tuple(float(b) for b in beta)
    if len(beta) != len(base.atoms):
        raise ValueError("reweight vector length must match the atom count")
    if any(b < 0 for b in beta):
        raise ValueError("reweighted atom weights must be nonnegative")
    if abs(math.fsum(beta) - 1.0) > ATOM_WEIGHT_TOL:
        raise ValueError("reweighted atom weights must sum to 1")
    return beta


@dataclass(frozen=True)
class AtomReweight(DensitySequence):
    """Per-site reweighting of an atomic base measure.

    ``schedule`` maps a site to its reweighted atom weights ``beta``; the
    density there is ``g_n(x_m) = beta_m / w_m`` against base weights ``w``,
    so the sup norm is exactly ``max_m beta_m / w_m``.  Unscheduled sites are
    identity.
    """

    base: FiniteAtoms
    schedule: Mapping[int, tuple[float, ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.base, FiniteAtoms):
            raise ValueError("atom reweighting requires an atomic base measure")
        checked = {int(n): _check_atom_reweight(self.base, b) for n, b in self.schedule.items()}
        object.__setattr__(self, "schedule", checked)

    def bump_at(self, n: int) -> np.ndarray | None:
        beta = self.schedule.get(n)
        return None if beta is None else np.asarray(beta)

    def perturbed_sites(self, lo: int, hi: int) -> list[int]:
        return sorted(n for n in self.schedule if lo <= n <= hi)


def _density_mass(base: BaseMeasure, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of a density against the base measure (quadrature for the
    continuous variants, exact sum for atoms)."""
    if isinstance(base, FiniteAtoms):
        return float(np.sum(fn(base.locations) * base.weights))
    nodes, weights = np.polynomial.legendre.leggauss(512)
    if isinstance(base, UniformInterval):
        x = 0.5 * (base.hi - base.lo) * nodes + 0.5 * (base.hi + base.lo)
        return float(np.sum(fn(x) * weights) * 0.5)
    if isinstance(base, ParetoTail):
        # substitute u = (scale/x)^exponent, du uniform on (0, 1]
        u = 0.5 * nodes + 0.5
        x = base.scale * u ** (-1.0 / base.exponent)
        if base.symmetric:
            return float(0.5 * (np.sum(fn(x) * weights) + np.sum(fn(-x) * weights)) * 0.5)
        return float(np.sum(fn(x) * weights) * 0.5)
    raise TypeError(f"unsupported base measure {type(base).__name__}")


@dataclass(frozen=True)
class BumpSchedule(DensitySequence):
    """One fixed bump density repeated on every site of a site set.

    For an atomic base, pass ``weights`` (a reweight vector as in
    :class:`AtomReweight`).  For a continuous base, pass a vectorized
    ``density`` callable together with its sup norm; unit mass against the
    base is then checked by quadrature at construction.
    """

    sites: SiteSet
    base: BaseMeasure
    weights: tuple[float, ...] | None = None
    density: Callable[[np.ndarray], np.ndarray] | None = None
    density_sup: float | None = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            if not isinstance(self.base, FiniteAtoms):
                raise ValueError("weight bumps require an atomic base measure")
            object.__setattr__(self, "weights", _check_atom_reweight(self.base, self.weights))
        elif self.density is not None:
            if self.density_sup is None or self.density_sup <= 0:
                raise ValueError("a callable bump needs a positive density_sup")
            mass = _density_mass(self.base, self.density)
            if abs(mass - 1.0) > DENSITY_MASS_TOL:
                raise ValueError(f"bump density has mass {mass:.12g}, expected 1")
        else:
            raise ValueError("bump schedule needs either weights or a density callable")

    def bump_at(self, n: int) -> np.ndarray | tuple[Callable, float] | None:
        if not self.sites.contains(n):
            return None
        if self.weights is not None:
            return np.asarray(self.weights)
        return self.density, self.density_sup  # type: ignore[return-value]

    def perturbed_sites(self, lo: int, hi: int) -> list[int]:
        return self.sites.sites_in(lo, hi)


# ---------------------------------------------------------------------------
# product laws and sampled windows
# ---------------------------------------------------------------------------

TAG_EXACT = "exact"
TAG_APPROXIMATE = "approximate"


@dataclass(frozen=True)
class ProductLaw:
    """A product law over the lattice: every site independent.

    The exact law draws each site from the base measure; the approximate law
    draws site ``n`` from ``g_n * mu``.  The exact tag forces identity
    densities, and densities that carry a ``base`` must carry the law's.
    """

    base: BaseMeasure
    densities: DensitySequence
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in (TAG_EXACT, TAG_APPROXIMATE):
            raise ValueError(f"unknown law tag {self.tag!r}")
        if self.tag == TAG_EXACT and not isinstance(self.densities, Identity):
            raise ValueError("the exact law must carry identity densities")
        if getattr(self.densities, "base", self.base) != self.base:
            raise ValueError("the densities are built on another base measure than the law")

    @classmethod
    def exact(cls, base: BaseMeasure) -> "ProductLaw":
        return cls(base, Identity(), TAG_EXACT)

    @classmethod
    def approximate(cls, base: BaseMeasure, densities: DensitySequence) -> "ProductLaw":
        return cls(base, densities, TAG_APPROXIMATE)


@dataclass(frozen=True)
class PotentialWindow:
    """Sampled potential values on the integer window ``[lo, hi]``.

    ``values`` has one entry per site, or one row per site and one column per
    lane when several potentials share the window's coordinates.
    """

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("window requires lo <= hi")
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (1, 2) or len(values) != self.hi - self.lo + 1:
            raise ValueError("window length must equal hi - lo + 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("window values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def slice(self, lo: int, hi: int) -> "PotentialWindow":
        if not (self.lo <= lo <= hi <= self.hi):
            raise IndexError(f"[{lo}, {hi}] not contained in [{self.lo}, {self.hi}]")
        return PotentialWindow(lo, hi, self.values[lo - self.lo : hi - self.lo + 1])


def _rejection_column(
    base: BaseMeasure,
    densities: DensitySequence,
    site: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` values from g_site * mu by rejection against mu."""
    sup = densities.sup_norm(site)
    cap = 100 * math.ceil(sup)
    out = np.empty(count)
    pending = np.arange(count)
    for _ in range(cap):
        proposals = base.sample(rng, len(pending))
        u = rng.random(len(pending))
        accept = u * sup <= densities.eval(site, proposals)
        out[pending[accept]] = proposals[accept]
        pending = pending[~accept]
        if len(pending) == 0:
            return out
    raise RejectionCapError(
        f"site {site}: rejection sampler exceeded {cap} rounds "
        f"(sup norm {sup:.3g}); check the density configuration"
    )


def sample_windows(
    law: ProductLaw, lo: int, hi: int, count: int, stream: RngStream, *, coupled: bool = False,
    codes: bool = False,
) -> np.ndarray | tuple[np.ndarray, list[int], np.ndarray]:
    """Draw ``count`` independent windows; returns shape ``(count, hi-lo+1)``.

    Sites are independent; perturbed sites are redrawn from their reweighted
    law (exact categorical draw for atomic bases, accept/reject otherwise).
    The draw order is fixed (base block first, then perturbed sites in
    ascending order), so output depends only on ``(stream, lo, hi, count)``.
    Each atomic draw, of the base block or of a redrawn column, reads ``b``
    raw bits when its weights are multiples of ``2**-b`` for some ``b`` in
    {1, 2, 4, 8}, and one uniform otherwise (:func:`_table_draws`).

    ``coupled`` returns the same draws before the redrawn columns are
    written: ``(values, sites, columns)``.  ``values`` is the base block,
    bit for bit the windows of the exact law on ``law.base`` from the same
    stream, and ``columns`` holds one column per perturbed site of ``sites``;
    ``values`` with those columns written in is the windows of ``law``.  One
    draw thus samples both product laws exactly.

    ``codes`` (an atomic base only) returns the atom indices in place of the
    values: the same draws read through the index table in place of the
    locations, so the values are ``law.base.locations`` at those indices
    and the generator is left in the same state.  The transfer kernels read
    a two-atom law's windows that way (``transfer.AtomWindows``); every
    other caller takes the values, written as they are drawn.
    """
    if lo > hi:
        raise ValueError("sample_windows requires lo <= hi")
    atomic = isinstance(law.base, FiniteAtoms)
    if codes and not atomic:
        raise ValueError("codes are drawn for an atomic base only")
    rng = stream.generator()
    size = count * (hi - lo + 1)
    if atomic:  # the atoms' locations, or their indices
        base: FiniteAtoms = law.base  # type: ignore[assignment]
        table = _atom_indices(len(base.atoms)) if codes else np.asarray(base.locations, dtype=float)
        block = _table_draws(rng, table, base.weights, size)
    else:
        block = law.base.sample(rng, size)
    block = block.reshape(count, -1)
    sites = law.densities.perturbed_sites(lo, hi)
    columns = np.empty((count, len(sites)), block.dtype)
    for i, site in enumerate(sites):
        beta = law.densities.atom_weights_at(site) if atomic else None
        if beta is not None:
            columns[:, i] = _table_draws(rng, table, beta, count)
        else:
            column = _rejection_column(law.base, law.densities, site, count, rng)
            columns[:, i] = law.base.atom_index(column) if codes else column  # type: ignore[attr-defined]
    if coupled:
        return block, sites, columns
    block[:, [site - lo for site in sites]] = columns
    return block


def sample_window(law: ProductLaw, lo: int, hi: int, stream: RngStream) -> PotentialWindow:
    """Draw one potential window from the product law."""
    values = sample_windows(law, lo, hi, 1, stream)[0]
    return PotentialWindow(lo, hi, values)


def log_density_products(law: ProductLaw, lo: int, values: np.ndarray) -> np.ndarray:
    """Vectorized log Radon-Nikodym products for a batch of windows.

    ``values`` has one window per row starting at site ``lo``; the return is
    ``sum_n log g_n(V_n)`` per row, with ``-inf`` where some factor vanishes.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    count, n_sites = values.shape
    out = np.zeros(count)
    for site in law.densities.perturbed_sites(lo, lo + n_sites - 1):
        g = law.densities.eval(site, values[:, site - lo])
        with np.errstate(divide="ignore"):
            out += np.log(g)
    return out


def radon_nikodym_product(law: ProductLaw, window: PotentialWindow) -> float:
    """log of the restricted Radon-Nikodym derivative over the window.

    Returns ``sum_n log g_n(V_n)``, a one-row :func:`log_density_products`
    (exactly 0.0 for identity densities), and ``-inf`` when the window is
    impossible under the approximate law.  All window values must lie in the
    support of the base measure.
    """
    supported = law.base.in_support(window.values)
    if not np.all(supported):
        bad = int(np.argmin(supported))
        raise ValueError(
            f"window value {window.values[bad]} at site {window.lo + bad} "
            "is outside the support of the base measure"
        )
    return float(log_density_products(law, window.lo, window.values)[0])


# ---------------------------------------------------------------------------
# decay-condition diagnostics
# ---------------------------------------------------------------------------

def sup_norm_log_partials(seq: DensitySequence, N: int, centered_at: int = 0) -> float:
    """(1/N) * sum of log sup norms over the window [center-N, center+N]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return math.fsum(seq.log_sup_norm(n) for n in range(centered_at - N, centered_at + N + 1)) / N


@dataclass(frozen=True)
class ConditionVerdict:
    value_end: float
    slope: float
    verdict: str


@dataclass(frozen=True)
class ConditionReport:
    """Numeric trajectories and empirical verdicts for the decay conditions.

    ``mean`` is the centered Cesaro mean of log sup norms, ``uniform`` its
    worst value over centers ``|k| <= K_max``, ``partial_sums`` the symmetric
    partial sums, and ``tail_increments`` the Cauchy increments
    ``S(N) - S(N/2)`` used to judge summability.
    """

    n_grid: np.ndarray
    mean: np.ndarray
    uniform: np.ndarray
    partial_sums: np.ndarray
    tail_increments: np.ndarray
    verdicts: dict[str, ConditionVerdict]
    tolerance: float = CONDITION_TOL


def _fit_slope(n_values: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares line of value vs log N over the last decade of N."""
    keep = n_values >= max(1, n_values[-1] / 10)
    x = np.log(n_values[keep].astype(float))
    y = values[keep]
    if len(x) < 2 or np.ptp(x) == 0:
        return 0.0, float(y[-1])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _raw_verdict(values: np.ndarray, n_values: np.ndarray, tol: float) -> ConditionVerdict:
    slope, intercept = _fit_slope(n_values, values)
    value_end = float(values[-1])
    predicted = intercept + slope * math.log(100.0 * n_values[-1])
    if value_end <= tol and slope <= 0:
        verdict = VERDICT_HOLDS
    elif value_end > tol and predicted > tol:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ConditionVerdict(value_end, slope, verdict)


_STRENGTH = {VERDICT_VIOLATED: 0, VERDICT_INCONCLUSIVE: 1, VERDICT_HOLDS: 2}
_BY_STRENGTH = {v: k for k, v in _STRENGTH.items()}


def condition_report(seq: DensitySequence, N_max: int, K_max: int) -> ConditionReport:
    """Evaluate the three decay conditions on ``log ||g_n||_inf`` numerically.

    A condition "holds-empirically" when its trajectory at ``N_max`` is below
    the fixed tolerance and the least-squares slope against ``log N`` over the
    last decade is nonpositive; it is "violated" when the end value and the
    extrapolated value both exceed the tolerance; otherwise the verdict is
    inconclusive.  Verdicts are clamped afterwards so that summable implies
    center-uniform implies plain Cesaro-mean, never the reverse.
    """
    if N_max < 1 or K_max < 0:
        raise ValueError("condition_report requires N_max >= 1 and K_max >= 0")
    span = K_max + N_max
    sites = np.arange(-span, span + 1)
    logs = np.array([seq.log_sup_norm(int(n)) for n in sites])
    prefix = np.concatenate([[0.0], np.cumsum(logs)])

    def window_sum(center: np.ndarray | int, N: np.ndarray | int) -> np.ndarray:
        a = center - N + span
        b = center + N + span
        return prefix[b + 1] - prefix[a]

    # ascending, so its repeats are neighbours (np.unique would import numpy.ma)
    n_grid = np.geomspace(1, N_max, num=min(N_max, 96)).astype(int)
    n_grid = n_grid[np.concatenate(([True], n_grid[1:] != n_grid[:-1]))]
    centers = np.arange(-K_max, K_max + 1)
    partial = window_sum(0, n_grid)
    mean = partial / n_grid
    uniform = np.array([np.max(window_sum(centers, int(N))) / N for N in n_grid])
    tail = partial - window_sum(0, np.maximum(1, n_grid // 2))

    raw = {
        CONDITION_MEAN: _raw_verdict(mean, n_grid, CONDITION_TOL),
        CONDITION_UNIFORM: _raw_verdict(uniform, n_grid, CONDITION_TOL),
        CONDITION_SUMMABLE: _raw_verdict(tail, n_grid, CONDITION_TOL),
    }
    # clamp: a stronger condition can never be declared stronger-than a weaker one
    s_mean = _STRENGTH[raw[CONDITION_MEAN].verdict]
    s_unif = min(_STRENGTH[raw[CONDITION_UNIFORM].verdict], s_mean)
    s_sum = min(_STRENGTH[raw[CONDITION_SUMMABLE].verdict], s_unif)
    verdicts = {
        CONDITION_MEAN: raw[CONDITION_MEAN],
        CONDITION_UNIFORM: ConditionVerdict(
            raw[CONDITION_UNIFORM].value_end, raw[CONDITION_UNIFORM].slope, _BY_STRENGTH[s_unif]
        ),
        CONDITION_SUMMABLE: ConditionVerdict(
            raw[CONDITION_SUMMABLE].value_end, raw[CONDITION_SUMMABLE].slope, _BY_STRENGTH[s_sum]
        ),
    }
    return ConditionReport(n_grid, mean, uniform, partial, tail, verdicts)
