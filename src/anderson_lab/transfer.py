"""Transfer matrices, scaled products, and truncated-determinant recurrences.

A solution of ``psi(n+1) + psi(n-1) + V_n psi(n) = E psi(n)`` propagates via
the one-step matrix ``[[E - V_n, -1], [1, 0]]``.  The interval product over
``[a, b]`` composes the factors with the site-``b`` factor leftmost, so it
maps ``(psi(a), psi(a-1))`` to ``(psi(b+1), psi(b))``.  Entries of that
product equal (up to the sign convention of ``det(E - H)`` versus
``det(H - E)``) the four truncated determinants

    [[ P[a, b],   -P[a+1, b]   ],
     [ P[a, b-1], -P[a+1, b-1] ]]

which is what :func:`block_identity_check` verifies numerically.

One batched kernel, :func:`_propagate`, serves the products, the solution
vector and the determinants (``P[1, k]`` is ``(-1)^k`` times the top entry
of the product applied to ``(1, 0)``; :func:`det_recurrence` adds only a
cancellation guard).  It holds each lane's rows times ``2**shift``: a site
grows or shrinks them by at most ``max|V - E| + 1``, and they are scaled by
exact powers of two (:func:`_rescale`) only when the sum of
``log2(max|V - E| + 1)`` since the last rescale would pass :data:`_HEADROOM`.
Power-of-two scaling is exact, so a lane's result is independent of the
other lanes of its step.

The kernel has two steps, and the windows pick one for the whole call.  The
one-site step costs two ufunc calls per site.  When the sites of a batch hold
at most two distinct finite values, as for every two-atom law, eight sites
have only ``2**8`` products at a given energy: the table step builds them
once per energy and advances every lane eight sites with one
:func:`numpy.take` of its code's table row and three row ufuncs.  A step's
code is a byte, one bit per site.  The Monte Carlo estimators hand a law of
at most two atoms to the kernel as its sampler drew it, atom indices with
the atoms (:class:`AtomWindows`).  Float windows (a hand-built batch,
craig-simon's :class:`~anderson_lab.measures.PotentialWindow`) that hold at
most two values become atom windows first (:func:`_atom_windows`), so one
packer, :func:`numpy.packbits` over the atom indices, serves both.  The
table steps are aligned at multiples of eight sites from the start of the
pass, and a read between two steps finishes with one-site steps into
scratch rows, so a read at site count ``k`` equals, bit for bit, a pass that
ends at ``k``.  A guarded determinant pass, a batch with a third or a
non-finite value, and a step that could grow the rows past the headroom keep
the one-site step.  The two steps associate the products differently, so
they agree to round-off, not bit for bit.

The centered windows ``[-n, n]`` of a whole radius grid come from one pass
over each half of the largest window (:func:`centered_batch`).  Values in
``[1, 2)`` times ``V - E`` overflow once ``|V - E|`` reaches
:data:`MAGNITUDE_LIMIT` (``2**1023``), so the kernel raises a ValueError
naming the first site where a finite potential does.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")

#: once the recurrence terms agree to this relative level, the step is
#: recomputed in compensated double-double arithmetic
CANCELLATION_GUARD = 1e-13

#: sites per block of the kernel, and lanes per tile when a block of windows
#: is transposed to site-major
_BLOCK, _TILE = 64, 512

#: bytes of new rows per block: wider calls take fewer sites per block (32 for
#: the 2x2 product at 4096 lanes), which keeps the row buffer near 2 MiB
_BLOCK_BYTES = 1 << 21

#: log2 of the growth the stored rows may reach between two rescales
_HEADROOM = 500.0

#: sites per table step of a two-valued batch (a table of ``2**8`` products,
#: one byte of code per step)
_TABLE_SITES = 8

#: the kernel multiplies values scaled into [1, 2) by ``V - E``, so a finite
#: potential with ``|V - E|`` at or above this raises a ValueError
MAGNITUDE_LIMIT = 2.0**1023


@dataclass(frozen=True)
class AtomWindows:
    """A batch of windows of a law with at most two atoms, as atom indices:
    site ``k`` of window ``r`` holds ``atoms[codes[r, k]]``.

    :func:`matrix_batch`, :func:`vector_growth_logs` and
    :func:`centered_batch` take it where they take values: the table step
    packs its codes from the indices, and the one-site steps read ``E - V``
    off the atoms, so no block of values is formed.  Indexing slices the
    codes; ``values`` forms the values.
    """

    codes: np.ndarray
    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if not (atoms.ndim == 1 and 1 <= len(atoms) <= 2):
            raise ValueError("atom windows hold one or two atoms")  # the table step's two values
        object.__setattr__(self, "atoms", atoms)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key) -> "AtomWindows":
        return AtomWindows(self.codes[key], self.atoms)

    @property
    def values(self) -> np.ndarray:
        return self.atoms[self.codes]


def _batch(windows):
    """A batch of windows, one per row: :class:`AtomWindows` as given,
    anything else as a float array."""
    if isinstance(windows, AtomWindows):
        return windows if windows.codes.ndim > 1 else windows[None]
    return np.atleast_2d(np.asarray(windows, dtype=float))


def _column(windows, k: int) -> np.ndarray:
    """The potentials at site ``k`` of every window of a batch."""
    if isinstance(windows, AtomWindows):
        return windows.atoms.take(windows.codes[..., k])
    return windows[..., k]


def _rescale(pair: np.ndarray, shift: np.ndarray) -> None:
    """Scale each lane of a ``(2, c, *lanes)`` row pair by a power of two so
    that its largest magnitude lies in ``[1, 2)``; the exponents go into
    ``shift``, shaped like the lanes."""
    _, exponent = np.frexp(np.abs(pair).max(axis=(0, 1)))
    exponent -= 1
    pair *= np.ldexp(1.0, -exponent)
    shift += exponent


class _MagnitudeError(ValueError):
    """A finite potential ``value`` at ``site`` of a window puts ``|V - E|``
    at or above :data:`MAGNITUDE_LIMIT`; the site is kept so that
    :func:`centered_batch` can name it on the lattice."""

    def __init__(self, site: int, value: float) -> None:
        super().__init__(
            f"|V - E| must stay below 2**1023 (MAGNITUDE_LIMIT): site {site} "
            f"of the window has V = {value!r}"
        )
        self.site, self.value = site, value


def _check_magnitude(d: np.ndarray, values: np.ndarray, first: int) -> None:
    """Raise at the first site of a site-major block (site ``first`` on) whose
    finite potential puts ``|V - E|`` at or above :data:`MAGNITUDE_LIMIT`."""
    at = np.argwhere((np.abs(d) >= MAGNITUDE_LIMIT) & np.isfinite(values))
    if len(at):
        raise _MagnitudeError(
            first + int(at[0][0]), float(np.broadcast_to(values, d.shape)[tuple(at[0])])
        )


# ---------------------------------------------------------------------------
# signed-log scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedLog:
    """A scalar stored as sign (unit phase for complex) and log magnitude.

    ``sign == 0`` if and only if ``log_mag == -inf``; the zero marker is a
    distinguished value, never the result of underflow.
    """

    sign: complex | float
    log_mag: float

    def __post_init__(self) -> None:
        zero_sign = self.sign == 0
        zero_mag = self.log_mag == NEG_INF
        if zero_sign != zero_mag:
            raise ValueError("sign == 0 exactly when log_mag == -inf")

    @classmethod
    def from_value(cls, x: complex | float) -> "SignedLog":
        return _signed_log(x, 0.0)

    @classmethod
    def zero(cls) -> "SignedLog":
        return cls(0.0, NEG_INF)

    @classmethod
    def one(cls) -> "SignedLog":
        return cls(1.0, 0.0)

    def is_zero(self) -> bool:
        return self.sign == 0

    def value(self) -> complex | float:
        if self.is_zero():
            return 0.0
        return self.sign * math.exp(self.log_mag)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.is_zero() or other.is_zero():
            return SignedLog.zero()
        return SignedLog(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if other.is_zero():
            raise ZeroDivisionError("division by a zero signed-log value")
        if self.is_zero():
            return SignedLog.zero()
        return SignedLog(self.sign / other.sign, self.log_mag - other.log_mag)


def _signed_log(mantissa: complex | float, log_shift: float) -> SignedLog:
    if mantissa == 0:
        return SignedLog.zero()
    if isinstance(mantissa, complex) and mantissa.imag != 0:
        return SignedLog(mantissa / abs(mantissa), math.log(abs(mantissa)) + log_shift)
    m = float(mantissa.real) if isinstance(mantissa, complex) else float(mantissa)
    return SignedLog(math.copysign(1.0, m), math.log(abs(m)) + log_shift)


# ---------------------------------------------------------------------------
# scaled 2x2 matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledMatrix:
    """A 2x2 matrix stored as normalized entries times ``exp(log_scale)``.

    After normalization the largest entry magnitude is 1 (the zero matrix
    is forbidden).  Freshly built one-step factors keep their exact entries
    with ``log_scale == 0``; :func:`product` normalizes once, at the end, and
    ``@`` after every multiply.
    """

    entries: np.ndarray
    log_scale: float

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries)
        if entries.shape != (2, 2):
            raise ValueError("entries must be a 2x2 array")
        if not np.iscomplexobj(entries):
            entries = entries.astype(float)
        if np.max(np.abs(entries)) == 0:
            raise ValueError("the zero matrix has no scaled representation")
        object.__setattr__(self, "entries", entries)

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        raw = ScaledMatrix(self.entries @ other.entries, self.log_scale + other.log_scale)
        peak = float(np.max(np.abs(raw.entries)))
        return ScaledMatrix(raw.entries / peak, raw.log_scale + math.log(peak))

    def dense(self) -> np.ndarray:
        """The true matrix; overflows for large scales, intended for tests."""
        return self.entries * math.exp(self.log_scale)

    def det(self) -> SignedLog:
        e = self.entries
        d = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        return _signed_log(complex(d) if np.iscomplexobj(e) else float(d), 2.0 * self.log_scale)

    def det_drift(self) -> float:
        """|det(entries) - exp(-2 log_scale)|: deviation from unit determinant.

        For long products ``exp(-2 log_scale)`` underflows and the normalized
        entries become numerically singular; the drift measures how far the
        computed entry determinant strays from the value a true unit-det
        matrix would have, which is the resolution floating point offers.
        """
        e = self.entries
        d = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        target = math.exp(-2.0 * self.log_scale) if self.log_scale > -350 else 0.0
        return float(abs(d - target))

    def log_norm(self) -> float:
        """log of the spectral norm of the true matrix."""
        e = self.entries
        return float(log_norm_batch(e[0, 0], e[0, 1], e[1, 0], e[1, 1], self.log_scale))


def one_step(energy: complex | float, v: float) -> ScaledMatrix:
    """The one-step factor [[E - v, -1], [1, 0]]; exact entries, unit det."""
    return ScaledMatrix(np.array([[energy - v, -1.0], [1.0, 0.0]]), 0.0)


def product(energy: complex | float, window) -> ScaledMatrix:
    """Scaled product of one-step factors over a potential window.

    Factors are composed with the top-site factor leftmost; this is a
    one-lane call of :func:`matrix_batch`.
    """
    values = np.asarray(window.values if hasattr(window, "values") else window, dtype=float)
    if values.size == 0:
        raise ValueError("product requires a non-empty window")
    s00, s01, s10, s11, log_scale = matrix_batch(energy, values[None, :])
    return ScaledMatrix(np.array([[s00[0], s01[0]], [s10[0], s11[0]]]), float(log_scale[0]))


# ---------------------------------------------------------------------------
# determinant recurrence
# ---------------------------------------------------------------------------

def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> tuple[float, float]:
    scale = np.where(np.abs(a) > 2.0**996, 2.0**28, 1.0)  # keeps 134217729 * a finite
    a = a / scale
    c = 134217729.0 * a  # 2^27 + 1, Dekker splitting
    hi = c - (c - a)
    return hi * scale, (a - hi) * scale


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _is_lanes(energy, values: np.ndarray) -> bool:
    return np.ndim(energy) > 0 or values.ndim == 2


def det_recurrence(energy: complex | float | np.ndarray, window, steps=None):
    """Prefix determinants ``det(H_[a,k] - E)`` of a window.

    The recurrence ``P_k = (V_k - E) P_{k-1} - P_{k-2}`` (empty interval 1,
    negative-length interval 0) is ``(-1)^k`` times the top entry of the
    product applied to ``(1, 0)``, read off :func:`_propagate` in scaled
    arithmetic with the cancellation guard on: when the two terms nearly
    cancel at a real energy, the step is recomputed in compensated
    double-double arithmetic.  ``log|P|`` is the log of the
    :func:`numpy.frexp` fraction plus ``(exponent + shift) ln 2``, which no
    power-of-two rescale moves; a ``-inf`` log only ever marks an exact zero.

    ``steps`` lists the prefix lengths to read (default: every prefix).  With
    a scalar energy and one window the result is a list of :class:`SignedLog`.
    Lanes (an array of energies broadcast against the ``S`` columns of a
    site-major ``(m, S)`` window: ``(E, 1)`` gives ``(E, S)``) give a
    ``(sign, log_mag)`` pair of arrays of shape ``(len(steps), *lanes)``,
    each lane equal bit for bit to its one-lane call.
    Non-finite potentials raise a ValueError naming the first one.
    """
    values = np.asarray(window.values if hasattr(window, "values") else window, dtype=float)
    if len(values) == 0:
        raise ValueError("det_recurrence requires a non-empty window")
    if not np.isfinite(values).all():
        at = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"potentials must be finite: window{at.tolist()} is {values[tuple(at)]}")
    steps = np.arange(1, len(values) + 1) if steps is None else np.array(sorted(set(steps)))
    if not len(steps) or steps[0] < 1 or steps[-1] > len(values):
        raise ValueError("steps must lie in [1, window length]")
    lanes = values.reshape(len(values), -1).T  # one row per lane, not copied
    ((top,), _), shifts = _propagate(np.atleast_1d(energy), lanes, 1, steps.tolist(), guard=True)
    np.negative(top.T, out=top.T, where=steps % 2 == 1)  # P_k = (-1)^k top_k, k last in .T
    with np.errstate(divide="ignore", invalid="ignore"):  # exact zeros meet log and 0 / 0
        fraction, exponent = np.frexp(np.abs(top))
        sign = np.where(top == 0, 0.0, top / np.abs(top))
        log_mag = np.log(fraction) + (exponent + shifts) * math.log(2.0)
    if _is_lanes(energy, values):
        return sign, log_mag
    return [SignedLog(s, m) for s, m in zip(sign[:, 0].tolist(), log_mag[:, 0].tolist())]


def interval_det(energy: complex | float | np.ndarray, window):
    """det(H - E) of the full window; empty windows give 1 by convention.

    Lanes as in :func:`det_recurrence` give a ``(sign, log_mag)`` pair of
    arrays with one entry per lane.
    """
    values = np.asarray(window.values if hasattr(window, "values") else window, dtype=float)
    if len(values) == 0:
        if not _is_lanes(energy, values):
            return SignedLog.one()
        shape = np.broadcast_shapes(np.shape(energy), values.shape[1:])
        return np.ones(shape), np.zeros(shape)
    dets = det_recurrence(energy, values, (len(values),))
    return (dets[0][0], dets[1][0]) if _is_lanes(energy, values) else dets[0]


def require_unit(name: str, vec) -> np.ndarray:
    """``vec`` as an array; a ValueError unless its norm is 1 within 1e-12."""
    vec = np.asarray(vec)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a unit vector")
    return vec


def matrix_element(u: np.ndarray, s: ScaledMatrix, v: np.ndarray) -> SignedLog:
    """Signed log of the bilinear form <u, S v> = sum_i u_i (S v)_i for unit
    vectors u, v; ``u`` is not conjugated, as in the tail curves' statistic."""
    u, v = require_unit("u", u), require_unit("v", v)
    return _signed_log(complex(u @ (s.entries @ v)), s.log_scale)


def block_identity_check(energy: complex | float, window) -> float:
    """Largest log-magnitude discrepancy between the interval product and the
    four truncated determinants filling its block form.

    Entries are compared in magnitude only; the determinant convention
    ``det(H - E)`` differs from the product entries by ``(-1)^length``.
    Returns 0 when an entry and its determinant are both exactly zero, and
    ``inf`` if exactly one of them vanishes.
    """
    values = np.asarray(window.values if hasattr(window, "values") else window, dtype=float)
    if values.size < 2:
        raise ValueError("block identity needs a window of length >= 2")
    m = len(values)
    s = product(energy, values)
    full = det_recurrence(energy, values, (m - 1, m))
    inner = det_recurrence(energy, values[1:], range(max(m - 2, 1), m))
    dets = [
        full[1],  # [a, b]
        inner[-1],  # [a+1, b]
        full[0],  # [a, b-1]
        inner[0] if m > 2 else SignedLog.one(),  # [a+1, b-1]
    ]
    with np.errstate(divide="ignore"):
        entry_logs = (s.log_scale + np.log(np.abs(s.entries).ravel())).tolist()
    worst = 0.0
    for got, want in zip(entry_logs, dets):
        if got == NEG_INF and want.log_mag == NEG_INF:
            continue
        if got == NEG_INF or want.log_mag == NEG_INF:
            return math.inf
        worst = max(worst, abs(got - want.log_mag))
    return worst


# ---------------------------------------------------------------------------
# batched drivers (vectorized across windows, sequential across sites)
# ---------------------------------------------------------------------------

def _propagate(energy, windows: np.ndarray, columns: int, marks: list[int], guard: bool = False):
    """The row pair after each of the ascending site counts ``marks``: the
    product applied to the first ``columns`` columns of the identity (the
    matrix for 2, the vector ``(1, 0)`` for 1).  Returns ``(pairs, shifts)``:
    ``pairs[:, :, i]`` holds the top and bottom rows at ``marks[i]``, each a
    ``(columns, *lanes)`` array, true value ``row * 2**shifts[i]``; a caller
    that reads more than the canonical log scales them with :func:`_rescale`.

    The lanes are ``energy`` broadcast against the leading axes of
    ``windows`` (numpy's rules; ``(E, 1)`` against ``(S, m)`` gives
    ``(E, S)``), read through a site-major broadcast view, never copied.

    A site maps ``top, bottom`` to ``d * top - bottom, top`` with
    ``d = E - V``, formed once per site-major block of :data:`_BLOCK` sites
    (fewer for wide lanes, see :data:`_BLOCK_BYTES`);
    each site costs two in-place ufunc calls.  A block runs in stretches: a
    stretch starts with a rescale when its first site would pass the
    headroom, the only place a rescale happens, and ends at the block end or
    where the headroom runs out.  After a stretch, the marks it passed are
    copied, one slice for a run of consecutive marks.  No stretch holds a
    rescale, so the rows read after it share one scale.

    A batch whose sites up to ``marks[-1]`` hold at most two distinct finite
    values takes the table step instead (see :func:`_table_pass`): eight
    sites per step, one gather from the code-major table of their ``2**8``
    products, a code's row holding its product at every energy, so the lanes
    run window-major with the energies inner, and one contiguous row per
    window serves them all.  The windows pick the step; it is not taken by a
    guarded call, by a pass shorter than one table step, or when one step
    could grow the rows past the room a rescale leaves (``8 log2(max|E - V|
    + 1)`` above ``_HEADROOM - 1``), so a site past :data:`MAGNITUDE_LIMIT`
    is still named.
    :class:`AtomWindows` always hold at most two values; float windows that
    do become atom windows for the test (:func:`_atom_windows`).  Either way
    the codes are packed from the atom indices, and the headroom test reads
    the atoms the batch holds (:func:`_packed_codes`).  The one-site steps
    that finish a read between two table steps read the caller's windows:
    float windows' own sites, or ``E - V`` gathered from the atoms; a pass
    that keeps the one-site step reads the values.  Either way a batch gives
    the same bits.

    ``guard`` (a real energy, one column; set by :func:`det_recurrence`)
    checks each stretch: where the two terms of a step agree to
    :data:`CANCELLATION_GUARD`, the step is recomputed in double-double
    arithmetic; the first site where a lane's value changes is patched and
    ends the stretch, so the sites after it run again.
    """
    e = np.asarray(energy)
    dtype = complex if np.iscomplexobj(e) and np.any(e.imag != 0) else float
    e = e if dtype is complex else e.real
    lanes = np.broadcast_shapes(e.shape, windows.shape[:-1])
    pairs = np.empty((2, columns, len(marks)) + lanes, dtype=dtype)
    shifts = np.empty((len(marks),) + lanes, dtype=np.int64)
    coded = isinstance(windows, AtomWindows)
    if not guard and marks[-1] >= _TABLE_SITES:
        atoms = windows if coded else _atom_windows(windows, marks[-1])
        found = None if atoms is None else _packed_codes(atoms, marks[-1])
        if found is not None:
            values, codes = found
            with np.errstate(over="ignore", invalid="ignore"):
                growth = _TABLE_SITES * float(np.log2(np.abs(np.subtract.outer(e, values)).max() + 1))
            if growth <= _HEADROOM - 1.0:
                _table_pass(e, windows, _block_table(e, values), growth, codes, marks, pairs, shifts)
                return pairs, shifts
    if coded:  # the one-site step reads values
        windows = windows.values
    sites = np.broadcast_to(windows, lanes + windows.shape[-1:])
    sites = sites.transpose((len(lanes),) + tuple(range(len(lanes))))  # site-major
    guard = guard and dtype is float
    e = np.broadcast_to(e, lanes)
    row = columns * math.prod(lanes) * np.dtype(dtype).itemsize
    depth = min(_BLOCK, marks[-1], max(1, _BLOCK_BYTES // max(row, 1)))
    rows = np.zeros((depth + 2, columns) + lanes, dtype=dtype)  # bottom, top, new tops
    rows[1, 0] = rows[0, 1:] = 1.0
    d = np.empty((depth, 1) + lanes, dtype=dtype)
    r, dk = list(rows), list(d)  # per-site views, built once
    shift = np.zeros(lanes, dtype=np.int64)
    j = int(marks[0] == 0)  # next mark to record
    if j:
        pairs[:, :, 0], shifts[0] = rows[1::-1], 0  # the identity: mark 0
    room = _HEADROOM - 1.0  # log2 growth left to the stored rows
    done = 0  # sites run
    while done < marks[-1]:
        size = min(depth, marks[-1] - done)
        block, peak = d[:size, 0], np.zeros(size)
        with np.errstate(over="ignore"):  # an overflowing E - V is named just below
            for a in range(0, lanes[-1], _TILE):  # transpose in cache-sized tiles
                z = min(a + _TILE, lanes[-1])
                np.subtract(e[..., a:z], sites[done : done + size, ..., a:z], out=block[..., a:z])
                np.maximum(peak, np.abs(block[..., a:z]).reshape(size, -1).max(axis=1), out=peak)
        if peak.max() >= MAGNITUDE_LIMIT:
            _check_magnitude(block, sites[done : done + size], done)
        reach = np.cumsum(np.log2(peak + 1.0)).tolist()  # growth bound from the block start
        start = 0
        while start < size:
            base = reach[start - 1] if start else 0.0
            if reach[start] - base > room:
                _rescale(rows[start : start + 2], shift)
                room = _HEADROOM - 1.0
            stop = min(size, max(start + 1, bisect_right(reach, base + room, start)))
            for k in range(start, stop):
                np.multiply(dk[k], r[k + 1], out=r[k + 2])
                np.subtract(r[k + 2], r[k], out=r[k + 2])
            if guard:
                top, prev, prev2 = (rows[start + i : stop + i] for i in (2, 1, 0))
                dd = d[start:stop]
                cancel = abs(top) < CANCELLATION_GUARD * np.maximum(abs(dd * prev), abs(prev2))
                if cancel.any():
                    hi, lo = _two_prod(dd[cancel], prev[cancel])
                    s, err = _two_sum(hi, -prev2[cancel])
                    guarded = top.copy()
                    guarded[cancel] = s + (err + lo)
                    changed = (cancel & (guarded != top)).reshape(len(top), -1).any(axis=1)
                    if changed.any():
                        stop = start + int(np.argmax(changed)) + 1
                        rows[stop + 1] = guarded[stop - start - 1]
            room -= reach[stop - 1] - base
            upto = bisect_right(marks, done + stop, j)
            while j < upto:  # consecutive marks take one slice, others one each
                end = upto if marks[upto - 1] - marks[j] == upto - 1 - j else j + 1
                first, last = marks[j] - done, marks[end - 1] - done
                pairs[0, :, j:end] = rows[first + 1 : last + 2].swapaxes(0, 1)
                pairs[1, :, j:end] = rows[first : last + 1].swapaxes(0, 1)
                shifts[j:end], j = shift, end
            start = stop
        rows[:2] = rows[size : size + 2]
        done += size
    return pairs, shifts


def _atom_windows(windows: np.ndarray, length: int) -> AtomWindows | None:
    """A float batch as :class:`AtomWindows` if its first ``length`` sites
    hold at most two distinct finite values, else None: atom 0 is the first
    site's value, and a site's code is set where it holds another value.

    The first window is compared alone before the batch, so a batch that
    holds a third value there (any continuous law) is refused without a mask
    of the whole batch.
    """
    sites = windows[..., :length]
    first = sites.flat[0] if sites.size else math.nan
    if not np.isfinite(first):
        return None
    for part in (sites[(0,) * (sites.ndim - 1)], sites):
        codes = part != first
        count = np.count_nonzero(codes)
        if count:
            other = part.flat[int(np.argmax(codes))]
            if not (np.isfinite(other) and np.count_nonzero(part == other) == count):
                return None
    return AtomWindows(codes.view(np.uint8), np.array([first, other] if count else [first]))


def _packed_codes(windows: AtomWindows, length: int):
    """The two values of :class:`AtomWindows` and the codes of their table
    steps over the first ``length`` sites: steps run from site 0,
    :data:`_TABLE_SITES` sites each, the codes have shape ``(steps, *rows)``,
    and bit ``s`` of a code is the atom index at the step's site ``s``.  The
    values are the atoms the first ``length`` sites hold (one atom given
    twice if they hold one), so the headroom test reads only values the
    batch holds; None for a batch of no windows.

    :func:`numpy.packbits` packs the steps along the site axis:
    little-endian bit order from site 0 for forward windows; for windows
    read backwards (a negative-stride view, the left half of
    :func:`centered_batch`), the same sites of the forward array in
    big-endian order, with the byte order then reversed, so no packing reads
    against the memory order.
    """
    rows = windows.codes.reshape(-1, windows.shape[-1])
    steps, n = length // _TABLE_SITES, rows.shape[-1]
    if rows.strides[-1] < 0:  # sites 0 .. 8 steps - 1 are forward columns n - 8 steps .. n - 1
        span = rows[:, ::-1][:, n - steps * _TABLE_SITES :]
        packed = np.packbits(span, axis=-1, bitorder="big")[:, ::-1]
    else:
        packed = np.packbits(rows[:, : steps * _TABLE_SITES], axis=-1, bitorder="little")
    rest = rows[:, steps * _TABLE_SITES : length]  # the sites after the last step
    held = [False, False]  # some site holds atom 0; atom 1
    for part, ones in ((packed, 0xFF), (rest, 1)):
        if part.size and not all(held):
            held = [held[0] or part.min() < ones, held[1] or part.max() > 0]
    values = [atom for atom, h in zip((windows.atoms[0], windows.atoms[-1]), held) if h]
    codes = np.ascontiguousarray(packed.T).reshape((steps,) + windows.shape[:-1])
    return ([values[0], values[-1]], codes) if values else None


def _block_table(e: np.ndarray, values) -> np.ndarray:
    """The products of :data:`_TABLE_SITES` one-step factors at each energy
    of ``e``, for every code of the sites' values (bit ``s`` picks site
    ``s``'s value from ``values``): a ``(2**8, e.size * 4)`` array, code
    major with the energies inside, whose row ``code`` holds the entries
    ``P00, P10, P01, P11`` at each energy of ``e`` in turn (flat order).

    Halves are paired three times (one site, two, four), the later sites'
    product on the left, so an entry depends only on its energy and on its
    sites' values, never on the other value or the other energies.
    """
    d = e.reshape(-1, 1) - np.asarray(values)
    one = np.ones_like(d)
    t = (d, -one, one, np.zeros_like(d))  # the one-step factors, by their site's bit
    for _ in range(3):
        h00, h01, h10, h11 = (x[:, :, None] for x in t)  # later sites: high bits
        l00, l01, l10, l11 = (x[:, None, :] for x in t)
        t = tuple(x.reshape(len(d), -1) for x in (
            h00 * l00 + h01 * l10, h00 * l01 + h01 * l11,
            h10 * l00 + h11 * l10, h10 * l01 + h11 * l11,
        ))
    p00, p01, p10, p11 = t
    return np.stack([p00.T, p10.T, p01.T, p11.T], axis=-1).reshape(2**_TABLE_SITES, -1)


def _table_pass(e, windows, table, growth, codes, marks, pairs, shifts):
    """The table step of :func:`_propagate`: fill ``pairs`` and ``shifts``
    for a batch of ``windows`` (atom or float windows, the caller's) with the
    codes of :func:`_packed_codes` and the table of :func:`_block_table`.

    The running rows start from the identity and advance one table step of
    :data:`_TABLE_SITES` sites at a time: one :func:`numpy.take` into a
    ``(*lanes, 4)`` buffer, and three row ufuncs that read the entries
    through a ``(4, *lanes)`` view of it.  Energy is the inner lane axis:
    energies on lane axes of their own (a scalar, or ``(E, 1)`` against
    ``(S, m)`` windows) run in ``(*rows, *energies)`` order, so the take of
    a step's codes fetches each window's table row, its block at every
    energy, with no index arithmetic, and ``pairs`` and ``shifts`` are
    written through transposed views; energies that vary with the rows
    gather each lane's row ``code * e.size + i`` of a ``(-1, 4)`` view.  A
    step may grow the rows by ``2**growth``, so a rescale comes before any
    step that would pass the headroom.  A mark at a step boundary reads the
    running rows; the marks inside a step are read by one-site steps from
    the step's start into scratch rows (``E - V`` as a window column against
    the energies), so the running rows never depend on where the marks fall,
    and a mark's bits equal those of a pass that ends there.
    """
    columns, lanes, rows = pairs.shape[1], shifts.shape[1:], codes.shape[1:]
    k = len(lanes) - len(rows)  # leading lane axes of the energies alone
    flat = e.size > math.prod(lanes[:k])  # energies that vary with the rows
    k = 0 if flat else k
    lanes = lanes[k:] + lanes[:k]  # the running order: rows, then energies
    pairs = np.moveaxis(pairs, range(3, 3 + k), range(-k, 0))
    shifts = np.moveaxis(shifts, range(1, 1 + k), range(-k, 0))
    energies = e if flat else e.reshape(lanes[len(rows):])
    cur = np.zeros((2, columns) + lanes, pairs.dtype)
    cur[0, 0] = cur[1, 1:] = 1.0  # top, bottom: the identity
    new, term = (np.empty_like(cur) for _ in range(2))
    scratch = list(np.empty((_TABLE_SITES - 1, columns) + lanes, pairs.dtype))
    d = np.empty((1,) + lanes, pairs.dtype)
    gathered = np.empty(lanes + (4,), pairs.dtype)  # one product per lane
    entries = np.moveaxis(gathered, -1, 0)  # (P00, P10), (P01, P11) of each lane
    blocks = gathered.reshape((lanes if flat else rows) + (-1,))  # what one take fills
    if flat:
        table, index = table.reshape(-1, 4), np.empty(lanes, np.intp)
        ids = np.arange(e.size).reshape(e.shape)
    shift = np.zeros(lanes, dtype=np.int64)
    room, at, j = _HEADROOM - 1.0, 0, 0
    while j < len(marks):
        while at + _TABLE_SITES <= marks[j]:
            if room < growth:
                _rescale(cur, shift)
                room = _HEADROOM - 1.0
            step = codes[at // _TABLE_SITES]
            if flat:
                np.multiply(step, e.size, out=index, dtype=np.intp)
                step = np.add(index, ids, out=index)
            np.take(table, step, axis=0, out=blocks, mode="clip")
            np.multiply(entries[:2, None], cur[0], out=new)
            np.multiply(entries[2:, None], cur[1], out=term)
            np.add(new, term, out=new)
            cur, new = new, cur
            at, room = at + _TABLE_SITES, room - growth
        if marks[j] == at:
            pairs[:, :, j], shifts[j], j = cur, shift, j + 1
            continue
        if room < growth:
            _rescale(cur, shift)
            room = _HEADROOM - 1.0
        upto = bisect_right(marks, at + _TABLE_SITES - 1, j)
        r = [cur[1], cur[0], *scratch]  # bottom, top, new tops
        for s in range(marks[upto - 1] - at):
            column = _column(windows, at + s)
            np.subtract(energies, column.reshape(column.shape + (1,) * k), out=d[0])
            np.multiply(d, r[s + 1], out=r[s + 2])
            np.subtract(r[s + 2], r[s], out=r[s + 2])
        for i in range(j, upto):
            pairs[0, :, i], pairs[1, :, i] = r[marks[i] - at + 1], r[marks[i] - at]
            shifts[i] = shift
        j = upto


def _checked_marks(checkpoints, length: int) -> list[int]:
    marks = sorted({int(c) for c in checkpoints})
    if not marks or marks[0] < 0 or marks[-1] > length:
        raise ValueError("checkpoints must lie in [0, window length]")
    return marks


def matrix_batch(
    energy: complex | float | np.ndarray, windows: np.ndarray, checkpoints=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled interval products for a batch of windows.

    ``windows`` has one window per row (values, or :class:`AtomWindows`);
    ``energy`` broadcasts against its leading axes: a scalar or one value per
    row, or ``(E, 1)`` for ``(E, S)`` lanes over ``S`` rows.  Returns the four
    entry arrays, normalized once at the end so that each product's largest
    entry magnitude is 1, and the log scales, one value per lane.

    With ``checkpoints`` (site counts in ``[0, window length]``) the product
    over the first ``k`` sites of each window is read off the kernel at each
    checkpoint ``k``, in one pass: each of the five arrays gains a leading
    axis with one row per checkpoint, and the entries are scaled by an exact
    power of two so that each product's largest entry magnitude lies in
    ``[1, 2)`` (no rounding, so products composed from them keep exact zeros).
    """
    windows = _batch(windows)
    length = windows.shape[-1]
    marks = [length] if checkpoints is None else _checked_marks(checkpoints, length)
    pairs, shifts = _propagate(energy, windows, 2, marks)
    _rescale(pairs, shifts)
    if checkpoints is None:
        peak = np.abs(pairs).max(axis=(0, 1, 2))
        (s00, s01), (s10, s11) = pairs[:, :, 0] / peak
        return s00, s01, s10, s11, shifts[0] * math.log(2.0) + np.log(peak)
    at = np.searchsorted(marks, checkpoints)
    (s00, s01), (s10, s11) = pairs[:, :, at]  # (2, 2, k, *lanes)
    return s00, s01, s10, s11, shifts[at] * math.log(2.0)


def centered_batch(
    energy: complex | float | np.ndarray, windows: np.ndarray, radii
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled products over the centered windows ``[-n, n]``, every radius
    ``n`` of ``radii`` from one kernel pass over each half.

    ``windows`` holds one window over ``[-m, m]`` per row (site 0 in the
    middle column; values, or :class:`AtomWindows`); radii lie in ``[0, m]``.
    The product over sites ``1 .. n`` is ``R_n``, read at checkpoint ``n``
    of a :func:`matrix_batch` pass over the right half.  The product over
    the reversed sites ``0, -1, .., -n`` is ``P_n``, read at checkpoint
    ``n + 1`` of a pass over a negative-stride view of the left half (no
    copy).  Every one-step factor satisfies ``T^t = J T J`` with
    ``J = diag(1, -1)``, so ``S_[-n, 0] = J P_n^t J`` and
    ``S_[-n, n] = R_n J P_n^t J``.  Returns the five arrays of
    :func:`matrix_batch` with checkpoints, one row per radius.  A magnitude
    error names its site on the lattice, in ``[-m, m]``.
    """
    windows = _batch(windows)
    m = windows.shape[1] // 2
    if windows.shape[1] != 2 * m + 1:
        raise ValueError("centered windows must have odd length")
    radii = [int(n) for n in radii]
    if not radii or min(radii) < 0 or max(radii) > m:
        raise ValueError(f"radii must form a non-empty grid in [0, m] = [0, {m}], got {radii}")
    halves = []
    # (half, its checkpoints, the lattice site of its site 0, the direction)
    for half, counts, origin, sign in ((windows[:, m + 1 :], radii, 1, 1),
                                       (windows[:, m::-1], [n + 1 for n in radii], 0, -1)):
        try:
            halves.append(matrix_batch(energy, half, counts))
        except _MagnitudeError as err:
            raise _MagnitudeError(origin + sign * err.site, err.value) from None
    (r00, r01, r10, r11, log_r), (p00, p01, p10, p11, log_p) = halves
    pair = np.array([[r00 * p00 - r01 * p01, r01 * p11 - r00 * p10],
                     [r10 * p00 - r11 * p01, r11 * p11 - r10 * p10]])
    shift = np.zeros(log_r.shape, dtype=np.int64)
    _rescale(pair, shift)
    (s00, s01), (s10, s11) = pair
    return s00, s01, s10, s11, log_r + log_p + shift * math.log(2.0)


def log_norm_batch(
    s00: np.ndarray, s01: np.ndarray, s10: np.ndarray, s11: np.ndarray, log_scale: np.ndarray
) -> np.ndarray:
    """log spectral norms of a batch of scaled matrices."""
    frob2 = np.abs(s00) ** 2 + np.abs(s01) ** 2 + np.abs(s10) ** 2 + np.abs(s11) ** 2
    det2 = np.abs(s00 * s11 - s01 * s10) ** 2
    gap = np.maximum(frob2 * frob2 - 4.0 * det2, 0.0)
    return log_scale + 0.5 * np.log(0.5 * (frob2 + np.sqrt(gap)))


def log_det_abs_batch(
    s00: np.ndarray, s01: np.ndarray, s10: np.ndarray, s11: np.ndarray, log_scale: np.ndarray
) -> np.ndarray:
    """log |det(H - E)| of the underlying windows, read off the top-left
    product entry (equal in magnitude to the full-interval determinant)."""
    with np.errstate(divide="ignore"):
        return log_scale + np.log(np.abs(s00))


def vector_growth_logs(
    energy: complex | float | np.ndarray, windows: np.ndarray, checkpoints: tuple[int, ...]
) -> np.ndarray:
    """log norms of the propagated solution vector at given site counts.

    Starts from ``(1, 0)`` and applies the one-step recurrence across each
    row of ``windows`` (values, or :class:`AtomWindows`), read off the kernel
    at each checkpoint; ``energy`` broadcasts as in :func:`matrix_batch`.
    Returns an array of shape
    ``(len(checkpoints), *lanes)`` holding ``log || S_[1,k] (1,0) ||`` for
    each checkpoint ``k``; checkpoint 0 is the initial vector.
    """
    windows = _batch(windows)
    marks = _checked_marks(checkpoints, windows.shape[-1])
    pairs, shifts = _propagate(energy, windows, 1, marks)
    _rescale(pairs, shifts)
    ((x,), (y,)) = pairs
    logs = shifts * math.log(2.0) + 0.5 * np.log(np.abs(x) ** 2 + np.abs(y) ** 2)
    return logs[np.searchsorted(marks, checkpoints)]
