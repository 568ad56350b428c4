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

Both batched recurrences, the product rows and the determinant pair, hold
each lane's values times ``2**shift`` under one rule: a site grows or
shrinks them by at most ``max|V - E| + 1``, and they are scaled by exact
powers of two (:func:`_rescale`) only when the sum of ``log2(max|V - E| + 1)``
since the last rescale would pass :data:`_HEADROOM`.  A mark (a checkpoint
or a requested step) copies the values inside a block and canonicalises the
copy.  Power-of-two scaling is exact, so a lane's result is independent of
its batch.  The centered windows ``[-n, n]`` of a whole radius grid come
from one pass over each half of the largest window.  Values in ``[1, 2)``
times ``V - E`` overflow once ``|V - E|`` reaches :data:`MAGNITUDE_LIMIT`
(``2**1023``), so both kernels raise a ValueError naming the first site
where a finite potential does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")

#: once the recurrence terms agree to this relative level, the step is
#: recomputed in compensated double-double arithmetic
CANCELLATION_GUARD = 1e-13

#: sites per block of both recurrences, and lanes per tile when a block of
#: windows is transposed to site-major
_BLOCK, _TILE = 64, 512

#: log2 of the growth the stored rows may reach between two rescales
_HEADROOM = 500.0

#: both recurrences multiply values scaled into [1, 2) by ``V - E``, so a
#: finite potential with ``|V - E|`` at or above this raises a ValueError
MAGNITUDE_LIMIT = 2.0**1023


def _rescale(pair: np.ndarray, shift: np.ndarray) -> None:
    """Scale each lane of a ``(2, c, *lanes)`` row pair by a power of two so
    that its largest magnitude lies in ``[1, 2)``; the exponents go into
    ``shift``, shaped like the lanes."""
    _, exponent = np.frexp(np.abs(pair).max(axis=(0, 1)))
    exponent -= 1
    pair *= np.ldexp(1.0, -exponent)
    shift += exponent


def _check_magnitude(d: np.ndarray, values: np.ndarray, first: int) -> None:
    """Raise at the first site of a site-major block (site ``first`` on) whose
    finite potential puts ``|V - E|`` at or above :data:`MAGNITUDE_LIMIT`."""
    at = np.argwhere((np.abs(d) >= MAGNITUDE_LIMIT) & np.isfinite(values))
    if len(at):
        v = float(np.broadcast_to(values, d.shape)[tuple(at[0])])
        raise ValueError(
            f"|V - E| must stay below 2**1023 (MAGNITUDE_LIMIT): site {first + at[0][0]} "
            f"of the window has V = {v!r}"
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


def _det_lanes(
    energy: complex | float | np.ndarray, values: np.ndarray, steps: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and log magnitudes of the recurrence after each of ``steps``.

    ``values`` is site-major: shape ``(m,)`` for one window shared by every
    lane, or ``(m, L)`` with one column per lane; ``energy`` is a scalar or
    holds one value per lane.  ``steps`` are ascending prefix lengths in
    ``[1, m]``.  Returns two arrays of shape ``(len(steps), L)``.

    The pair ``(P_k, P_{k-1})`` follows the module's rescale rule: a block
    of at most :data:`_BLOCK` sites (and at least one) ends before the
    headroom would run out, so the pair is rescaled only at a block start.
    The plain three-term step runs over the block, then the guard is checked
    on the whole block at once; at the first site where a lane's
    double-double value differs from the plain one, that value replaces it
    and the rest of the block is run again.  The guard test is scale-free,
    so each lane holds its one-lane recurrence times ``2**shift``; ``log|P|``
    is the log of the :func:`numpy.frexp` fraction plus ``(exponent + shift) ln 2``.
    """
    e = np.atleast_1d(np.asarray(energy))
    is_complex = np.iscomplexobj(e) and bool(np.any(e.imag != 0))
    dtype = complex if is_complex else float
    e = e.astype(dtype) if is_complex else e.real.astype(float)
    values = values.reshape(len(values), -1)
    shape = np.broadcast_shapes(e.shape, values.shape[1:])
    run = np.empty((_BLOCK + 2,) + shape, dtype=dtype)  # P_{k-2}, P_{k-1}, P_k, ...
    run[0], run[1] = 0.0, 1.0  # negative length, empty interval
    terms = np.empty((_BLOCK,) + shape, dtype=dtype)  # (V_k - E) P_{k-1}
    shift = np.zeros(shape, dtype=np.int64)
    marks = np.asarray(steps)
    dets = np.empty((len(steps),) + shape, dtype=dtype)
    shifts = np.empty((len(steps),) + shape, dtype=np.int64)
    done = j = 0  # sites consumed, next step to record
    grown = 1.0  # log2 bound on the pair since the last rescale
    with np.errstate(all="ignore"):  # exact zeros meet log and 0 / 0 below
        while done < steps[-1]:
            d = values[done : done + min(_BLOCK, steps[-1] - done)] - e
            peak = np.abs(d).reshape(len(d), -1).max(axis=1)
            if peak.max() >= MAGNITUDE_LIMIT:
                _check_magnitude(d, values[done : done + len(d)], done)
            bound = np.cumsum(np.log2(peak + 1.0))
            if grown + bound[0] > _HEADROOM:
                _rescale(run[:2, None], shift)
                grown = 1.0
            size = max(1, int(np.searchsorted(grown + bound, _HEADROOM, side="right")))
            for k in range(size):
                np.multiply(d[k], run[k + 1], out=terms[k])
                np.subtract(terms[k], run[k], out=run[k + 2])
            kept = size
            if not is_complex:
                p, p2, t1 = run[2 : size + 2], run[:size], terms[:size]
                cancel = np.abs(p) < CANCELLATION_GUARD * np.maximum(np.abs(t1), np.abs(p2))
                if cancel.any():
                    hi, lo = _two_prod(d[:size][cancel], run[1 : size + 1][cancel])
                    s, err = _two_sum(hi, -p2[cancel])
                    guarded = p.copy()
                    guarded[cancel] = s + (err + lo)
                    changed = np.any(cancel & (guarded != p), axis=1)
                    if changed.any():
                        kept = int(np.argmax(changed)) + 1
                        p[kept - 1] = guarded[kept - 1]
            upto = j + int(np.searchsorted(marks[j:], done + kept, side="right"))
            dets[j:upto] = run[marks[j:upto] - done + 1]
            shifts[j:upto] = shift
            j = upto
            run[:2] = run[kept : kept + 2]
            grown += bound[kept - 1]
            done += kept
        fraction, exponent = np.frexp(np.abs(dets))
        sign = np.where(dets == 0, 0.0, dets / np.abs(dets))
        return sign, np.log(fraction) + (exponent + shifts) * math.log(2.0)


def _is_lanes(energy, values: np.ndarray) -> bool:
    return np.ndim(energy) > 0 or values.ndim == 2


def det_recurrence(energy: complex | float | np.ndarray, window, steps=None):
    """Prefix determinants ``det(H_[a,k] - E)`` of a window.

    Evaluates the three-term recurrence ``P_k = (V_k - E) P_{k-1} - P_{k-2}``
    (empty interval 1, negative-length interval 0) in scaled arithmetic.
    When the two recurrence terms nearly cancel, the step is recomputed in
    compensated double-double arithmetic.  The terms are scaled by exact
    powers of two before they can overflow or underflow (see
    :func:`_det_lanes`), so a ``-inf`` log only ever marks an exact zero.

    ``steps`` lists the prefix lengths to read (default: every prefix).  With
    a scalar energy and one window the result is a list of :class:`SignedLog`.
    Lanes (an array of energies, or a site-major ``(m, L)`` window with one
    column per lane) give a ``(sign, log_mag)`` pair of arrays of shape
    ``(len(steps), L)``, each lane equal bit for bit to its one-lane call.
    Non-finite potentials raise a ValueError naming the first one.
    """
    values = np.asarray(window.values if hasattr(window, "values") else window, dtype=float)
    if len(values) == 0:
        raise ValueError("det_recurrence requires a non-empty window")
    if not np.isfinite(values).all():
        at = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"potentials must be finite: window{at.tolist()} is {values[tuple(at)]}")
    steps = tuple(range(1, len(values) + 1)) if steps is None else tuple(sorted(set(steps)))
    if not steps or steps[0] < 1 or steps[-1] > len(values):
        raise ValueError("steps must lie in [1, window length]")
    sign, log_mag = _det_lanes(energy, values, steps)
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
    """Signed log of the bilinear form <u, S v> for unit vectors u, v."""
    u, v = require_unit("u", u), require_unit("v", v)
    ip = np.vdot(u, s.entries @ v)
    ip = complex(ip) if np.iscomplexobj(s.entries) else float(ip.real)
    if ip == 0:
        return SignedLog.zero()
    return _signed_log(ip, s.log_scale)


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

def _propagate(energy, windows: np.ndarray, columns: int, marks: list[int]):
    """The row pair after each of the ascending site counts ``marks``: the
    product applied to the first ``columns`` columns of the identity (the
    matrix for 2, the vector ``(1, 0)`` for 1).  Returns ``(pairs, shifts)``:
    ``pairs[:, :, i]`` holds the top and bottom rows at ``marks[i]``, each a
    ``(columns, *lanes)`` array scaled by :func:`_rescale`, true value
    ``row * 2**shifts[i]``.

    The lanes are ``energy`` broadcast against the leading axes of
    ``windows`` (numpy's rules; ``(E, 1)`` against ``(S, m)`` gives
    ``(E, S)``), read through a site-major broadcast view, never copied.

    A site maps ``top, bottom`` to ``d * top - bottom, top`` with
    ``d = E - V``, formed once per site-major block of :data:`_BLOCK` sites;
    each site costs two in-place ufunc calls.  The rows follow the module's
    rescale rule site by site (unit determinant bounds their shrinking); a
    mark copies the rows and rescales the copy, and the block goes on.
    """
    e = np.asarray(energy)
    dtype = complex if np.iscomplexobj(e) and np.any(e.imag != 0) else float
    lanes = np.broadcast_shapes(e.shape, windows.shape[:-1])
    e = np.broadcast_to(e if dtype is complex else e.real, lanes)
    sites = np.moveaxis(np.broadcast_to(windows, lanes + windows.shape[-1:]), -1, 0)
    rows = np.zeros((_BLOCK + 2, columns) + lanes, dtype=dtype)  # bottom, top, new tops
    rows[1, 0] = rows[0, 1:] = 1.0
    d = np.empty((_BLOCK, 1) + lanes, dtype=dtype)
    r, dk = list(rows), list(d)  # per-site views, built once
    shift = np.zeros(lanes, dtype=np.int64)
    pairs = np.empty((2, columns, len(marks)) + lanes, dtype=dtype)
    shifts = np.empty((len(marks),) + lanes, dtype=np.int64)
    j = int(marks[0] == 0)  # next mark to record
    pairs[:, :, 0], shifts[0] = rows[1::-1], 0  # the identity: mark 0, if marked
    grown = 1.0  # log2 bound on the stored rows
    done = 0
    while done < marks[-1]:
        size = min(_BLOCK, marks[-1] - done)
        block, peak = d[:size, 0], np.zeros(size)
        with np.errstate(over="ignore"):  # an overflowing E - V is named just below
            for a in range(0, lanes[-1], _TILE):  # transpose in cache-sized tiles
                z = min(a + _TILE, lanes[-1])
                np.subtract(e[..., a:z], sites[done : done + size, ..., a:z], out=block[..., a:z])
                np.maximum(peak, np.abs(block[..., a:z]).reshape(size, -1).max(axis=1), out=peak)
        if peak.max() >= MAGNITUDE_LIMIT:
            _check_magnitude(block, sites[done : done + size], done)
        bound = np.log2(peak + 1.0).tolist()
        start = 0
        while start < size:  # the sites up to the next mark or the block end
            stop = min(size, marks[j] - done)
            for k in range(start, stop):
                grown += bound[k]
                if grown > _HEADROOM:
                    _rescale(rows[k : k + 2], shift)
                    grown = 1.0 + bound[k]
                np.multiply(dk[k], r[k + 1], out=r[k + 2])
                np.subtract(r[k + 2], r[k], out=r[k + 2])
            if done + stop == marks[j]:
                pairs[:, :, j], shifts[j] = rows[stop + 1 : stop - 1 : -1], shift
                _rescale(pairs[:, :, j], shifts[j])
                j += 1
            start = stop
        rows[:2] = rows[size : size + 2]
        done += size
    return pairs, shifts


def _checked_marks(checkpoints, length: int) -> list[int]:
    marks = sorted({int(c) for c in checkpoints})
    if not marks or marks[0] < 0 or marks[-1] > length:
        raise ValueError("checkpoints must lie in [0, window length]")
    return marks


def matrix_batch(
    energy: complex | float | np.ndarray, windows: np.ndarray, checkpoints=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled interval products for a batch of windows.

    ``windows`` has one window per row; ``energy`` broadcasts against its
    leading axes: a scalar or one value per row, or ``(E, 1)`` for ``(E, S)``
    lanes over ``S`` rows.  Returns the four entry arrays, normalized once at
    the end so that each product's largest entry magnitude is 1, and the log
    scales, one value per lane.

    With ``checkpoints`` (site counts in ``[0, window length]``) the product
    over the first ``k`` sites of each window is read off the kernel at each
    checkpoint ``k``, in one pass: each of the five arrays gains a leading
    axis with one row per checkpoint, and the entries are scaled by an exact
    power of two so that each product's largest entry magnitude lies in
    ``[1, 2)`` (no rounding, so products composed from them keep exact zeros).
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if checkpoints is None:
        pairs, (shift,) = _propagate(energy, windows, 2, [windows.shape[-1]])
        peak = np.abs(pairs).max(axis=(0, 1, 2))
        (s00, s01), (s10, s11) = pairs[:, :, 0] / peak
        return s00, s01, s10, s11, shift * math.log(2.0) + np.log(peak)
    marks = _checked_marks(checkpoints, windows.shape[-1])
    pairs, shifts = _propagate(energy, windows, 2, marks)
    at = np.searchsorted(marks, checkpoints)
    (s00, s01), (s10, s11) = pairs[:, :, at]  # (2, 2, k, *lanes)
    return s00, s01, s10, s11, shifts[at] * math.log(2.0)


def centered_batch(
    energy: complex | float | np.ndarray, windows: np.ndarray, radii
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled products over the centered windows ``[-n, n]``, every radius
    ``n`` of ``radii`` from one kernel pass over each half.

    ``windows`` holds one window over ``[-m, m]`` per row (site 0 in the
    middle column); radii lie in ``[0, m]``.  The product over sites
    ``1 .. n`` is ``R_n``, read at checkpoint ``n`` of a pass over the right
    half.  The product over the reversed sites ``0, -1, .., -n`` is ``P_n``,
    read at checkpoint ``n + 1`` of a pass over a negative-stride view of the
    left half (no copy).  Every one-step factor satisfies ``T^t = J T J``
    with ``J = diag(1, -1)``, so ``S_[-n, 0] = J P_n^t J`` and
    ``S_[-n, n] = R_n J P_n^t J``.  Returns the five arrays of
    :func:`matrix_batch` with checkpoints, one row per radius.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    m = windows.shape[1] // 2
    if windows.shape[1] != 2 * m + 1:
        raise ValueError("centered windows must have odd length")
    r00, r01, r10, r11, log_r = matrix_batch(energy, windows[:, m + 1 :], radii)
    p00, p01, p10, p11, log_p = matrix_batch(energy, windows[:, m::-1], [n + 1 for n in radii])
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
    row of ``windows``, read off the kernel at each checkpoint; ``energy``
    broadcasts as in :func:`matrix_batch`.  Returns an array of shape
    ``(len(checkpoints), *lanes)`` holding ``log || S_[1,k] (1,0) ||`` for
    each checkpoint ``k``; checkpoint 0 is the initial vector.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    marks = _checked_marks(checkpoints, windows.shape[-1])
    ((x,), (y,)), shifts = _propagate(energy, windows, 1, marks)
    logs = shifts * math.log(2.0) + 0.5 * np.log(np.abs(x) ** 2 + np.abs(y) ** 2)
    return logs[np.searchsorted(marks, checkpoints)]
