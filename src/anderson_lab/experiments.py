"""Desk-scale end-to-end studies with reproducibility manifests.

Each experiment is a pure function of (scenario, seed): localization scans
of finite boxes, the singularity census over paired boxes, the edge-zone
potential-bound census, and the infimum of the growth rate over an energy
interval.  Results are packaged as tables whose CSV serialization is
byte-identical across re-runs and worker counts.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import checked_statistic, lyapunov_mc
from .measures import (
    BaseMeasure,
    DensitySequence,
    FiniteAtoms,
    Identity,
    PotentialWindow,
    ProductLaw,
    sample_window,
    sample_windows,
)
from .rng import RngStream
from .spectral import (
    EIGENVALUE_TOL_FACTOR,
    TridiagonalBox,
    classify_regularity,
    eigenpairs,
    sturm_counts,
)

#: minimum decay rate / regularity rate used in pass tests, so that the
#: free-operator negative control cannot pass on noise around zero
RATE_FLOOR = 0.02

LOCALIZATION_COLUMNS = (
    "scenario_id", "seed", "law_tag", "box_lo", "box_hi", "j", "eigenvalue",
    "gamma_hat", "gamma_stderr", "decay_rate", "center", "pass",
)
CENSUS_COLUMNS = ("scenario_id", "seed", "law_tag", "n", "site", "verdict")
EDGE_CENSUS_COLUMNS = (
    "scenario_id", "seed", "n", "trials", "zone_sites", "threshold",
    "site_violations", "site_freq", "site_pred",
    "event_count", "event_freq", "event_pred", "chebyshev_bound",
)


# ---------------------------------------------------------------------------
# scenarios and manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One fully specified experiment: law, energy window, grids, seed."""

    scenario_id: str
    kind: str
    base: BaseMeasure
    densities: DensitySequence
    seed: int
    samples: int = 1
    e_grid: tuple[float, ...] = ()
    n_grid: tuple[int, ...] = ()
    interval: tuple[float, float] | None = None
    box: tuple[int, int] | None = None
    energy: complex | float | None = None
    epsilon: float | None = None
    statistic: str = "log_norm"
    rate_power: float = 1.0
    edge_p: float | None = None
    edge_r: float | None = None
    edge_alpha: float | None = None  # edge census: moment order overriding the base's
    gamma_n: int = 1000
    gamma_samples: int = 200
    workers: int = 1
    expected: dict | None = None
    n_max: int | None = None  # conditions: trajectory range
    k_max: int | None = None  # conditions: center range
    u: tuple[float, float] | None = None  # matrix_element statistic: <u, S v>
    v: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        # each message leads with the argument it rejects; the CLI reports it there
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.interval is not None and not self.interval[0] < self.interval[1]:
            raise ValueError("interval requires s < t")
        if self.box is not None and self.box[0] > self.box[1]:
            raise ValueError("box requires lo <= hi")
        if self.n_grid and any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid entries must be >= 1")
        checked_statistic(self.statistic, self.u, self.v, self.rate_power)

    @property
    def law_tag(self) -> str:
        return "exact" if isinstance(self.densities, Identity) else "approximate"

    def law(self) -> ProductLaw:
        if isinstance(self.densities, Identity):
            return ProductLaw.exact(self.base)
        return ProductLaw.approximate(self.base, self.densities)

    def exact_law(self) -> ProductLaw:
        return ProductLaw.exact(self.base)

    def stream(self) -> RngStream:
        return RngStream(self.seed)


def config_digest(config: dict) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    seed: int
    config_digest: str
    code_version: str
    worker_count: int
    created_utc: str

    @classmethod
    def create(cls, config: dict, seed: int, workers: int) -> "RunManifest":
        return cls(
            seed=seed,
            config_digest=config_digest(config),
            code_version=__version__,
            worker_count=workers,
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# result tables and persistence
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@dataclass(frozen=True)
class ResultTable:
    """A tabular experiment result: fixed columns, rows, and a summary."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if tuple(row) != self.columns:
                raise ValueError(f"row {i} has keys {tuple(row)}, not the columns {self.columns}")

    @classmethod
    def from_values(cls, kind: str, columns: tuple[str, ...], values, summary=None) -> ResultTable:
        """The table whose rows zip each value tuple of ``values`` against
        ``columns``; a tuple of another length raises a ValueError."""
        rows = tuple(dict(zip(columns, row, strict=True)) for row in values)
        return cls(kind, columns, rows, {} if summary is None else summary)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json_dict(self, manifest: RunManifest | None = None) -> dict:
        out = {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [{c: _jsonable(row[c]) for c in self.columns} for row in self.rows],
            "summary": _jsonable(self.summary),
        }
        if manifest is not None:
            out["manifest"] = manifest.to_dict()
        return out

    def metrics(self) -> dict:
        """Numeric and null summary metrics, for pinned-expectation checks."""
        return {
            k: v
            for k, v in _jsonable(self.summary).items()
            if v is None or isinstance(v, (int, float, bool))
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def persist(table: ResultTable, manifest: RunManifest, path) -> list[Path]:
    """Write ``<stem>.csv``, ``<stem>.json`` and ``<stem>.manifest.json``,
    ``stem`` being ``path`` as given; returns the written paths.

    Re-running with the same scenario and seed reproduces the CSV byte for
    byte; only the manifest timestamp differs.
    """
    stem = Path(path)
    paths = [Path(f"{stem}{ext}") for ext in (".csv", ".json", ".manifest.json")]
    try:
        stem.parent.mkdir(parents=True, exist_ok=True)
        paths[0].write_text(table.csv_text())
        paths[1].write_text(json.dumps(table.to_json_dict(manifest), indent=1) + "\n")
        paths[2].write_text(json.dumps(manifest.to_dict(), indent=1) + "\n")
    except OSError as err:
        raise OSError(f"failed to persist results under {stem}: {err}") from err
    return paths


def load_report(path) -> dict:
    """Read back a persisted report (the JSON file, or its stem)."""
    p = Path(path)
    if p.suffix != ".json":
        p = Path(f"{p}.json")
    try:
        return json.loads(p.read_text())
    except OSError as err:
        raise OSError(f"failed to load report from {p}: {err}") from err


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def gamma_grid(scenario: Scenario, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Growth-rate estimates (and standard errors) on the scenario's energy
    grid, under the exact law of the scenario's base measure: one
    :func:`lyapunov_mc` call whose draws from ``stream.child(0)`` serve every
    energy, so the estimates are correlated across the grid."""
    est = lyapunov_mc(
        scenario.exact_law(), np.asarray(scenario.e_grid), scenario.gamma_n,
        scenario.gamma_samples, stream.child(0), workers=scenario.workers,
    )
    return est.mean, est.stderr


def require_interval_coverage(scenario: Scenario) -> None:
    """The energy grid must cover the interval at a spacing of at most 0.1."""
    if scenario.interval is None:
        raise ValueError(f"experiment {scenario.kind!r} needs an energy interval")
    if not scenario.e_grid:
        raise ValueError("energy grid must not be empty")
    s, t = scenario.interval
    grid = np.asarray(scenario.e_grid)
    if grid[0] > s or grid[-1] < t:
        raise ValueError("energy grid must cover the interval")
    if len(grid) > 1 and float(np.max(np.diff(grid))) > 0.1 + 1e-12:
        raise ValueError("energy grid spacing must be <= 0.1")


def nu_inf(scenario: Scenario) -> float:
    """Lower estimate of the infimum of the growth rate over the interval.

    Returns ``min over the grid of (gamma_hat - stderr)`` and warns when any
    grid estimate is not separated from zero by three standard errors.
    """
    require_interval_coverage(scenario)
    gammas, errs = gamma_grid(scenario, scenario.stream().child(2))
    if np.any(gammas < 3.0 * errs):
        warnings.warn(
            "growth rate is not separated from zero on the grid; "
            "the interval may contain extended states",
            stacklevel=2,
        )
    return float(np.min(gammas - errs))


def _epsilon0(nu_hat: float) -> float:
    return min(0.1, max(nu_hat, 0.0) / 10.0)


def _decay_rates(vectors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exponential decay rate of each column's |vector| away from its
    localization center: one closed-form least-squares slope per column over
    the middle 60% of the decay range, at least 10 sites from the center and
    excluding the last 5 sites.  A column with fewer than two such sites of
    nonzero amplitude, or with all of them at one distance, gets 0.0."""
    amp = np.abs(vectors)
    dist = np.abs(np.arange(len(amp))[:, None] - centers).astype(float)
    reach = np.maximum(centers, len(amp) - 1 - centers).astype(float)
    keep = (
        (dist >= np.maximum(10.0, 0.2 * reach))
        & (dist <= np.minimum(0.8 * reach, reach - 5.0))
        & (amp > 0.0)
    )
    count = np.maximum(np.count_nonzero(keep, axis=0), 1)
    log_amp = np.log(amp, out=np.zeros_like(amp), where=keep)
    dx = np.where(keep, dist - np.sum(dist, axis=0, where=keep) / count, 0.0)
    dy = np.where(keep, log_amp - np.sum(log_amp, axis=0) / count, 0.0)
    sxx = np.sum(dx * dx, axis=0)
    fit = sxx > 0.0
    return np.where(fit, -np.sum(dx * dy, axis=0) / np.where(fit, sxx, 1.0), 0.0)


# ---------------------------------------------------------------------------
# localization experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationRow:
    j: int
    eigenvalue: float
    gamma_hat: float
    gamma_stderr: float
    decay_rate: float
    center: int
    passed: bool
    largest_singular_n: int | None


@dataclass(frozen=True)
class LocalizationReport:
    scenario_id: str
    seed: int
    law_tag: str
    box: tuple[int, int]
    nu_hat: float
    epsilon0: float
    rows: tuple[LocalizationRow, ...]
    skips: tuple[tuple[int, int, int], ...]  # (j, n, site) with resonant energy

    @property
    def pass_fraction(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.passed for r in self.rows) / len(self.rows)

    def to_table(self) -> ResultTable:
        values = (
            (self.scenario_id, self.seed, self.law_tag, *self.box, r.j, r.eigenvalue,
             r.gamma_hat, r.gamma_stderr, r.decay_rate, r.center, r.passed)
            for r in self.rows
        )
        summary = {
            "pass_fraction": self.pass_fraction,
            "eigenfunctions": len(self.rows),
            "nu_hat": self.nu_hat,
            "epsilon0": self.epsilon0,
            "largest_singular_n": max(
                (r.largest_singular_n for r in self.rows if r.largest_singular_n is not None),
                default=None,
            ),
            "per_eigenfunction_largest_singular_n": [r.largest_singular_n for r in self.rows],
            "resonant_skips": len(self.skips),
        }
        return ResultTable.from_values("localization", LOCALIZATION_COLUMNS, values, summary)


def require_localization_box(scenario: Scenario) -> tuple[int, int]:
    """The scenario's box, which localization needs at dimension >= 200."""
    if scenario.box is None:
        raise ValueError("localization needs a box")
    box_lo, box_hi = scenario.box
    if box_hi - box_lo + 1 < 200:
        raise ValueError("localization box must have dimension >= 200")
    return box_lo, box_hi


def run_localization(scenario: Scenario) -> LocalizationReport:
    """Test eigenfunction decay in the energy interval on one sampled box.

    Only the ranks whose eigenvalues can lie in the interval are solved
    (:func:`eigenpairs` over a rank range), and ``j`` is the rank in the
    whole spectrum.  Each in-interval eigenfunction passes when its fitted
    decay rate reaches half the reference growth rate at its eigenvalue
    (with an absolute floor of :data:`RATE_FLOOR`).  Sites ``2n`` and
    ``2n+1`` are additionally classified for regularity at every grid
    radius with rate ``gamma_hat - 8 eps0``, and the largest radius still
    singular is reported per eigenfunction.
    """
    box_lo, box_hi = require_localization_box(scenario)
    require_interval_coverage(scenario)
    stream = scenario.stream()
    n_max = max(scenario.n_grid) if scenario.n_grid else 0
    win_lo = min(box_lo, 0)
    win_hi = max(box_hi, 3 * n_max + 1)
    window = sample_window(scenario.law(), win_lo, win_hi, stream.child(0))
    gammas, errs = gamma_grid(scenario, stream.child(1))
    nu_hat = float(np.min(gammas - errs))
    eps0 = _epsilon0(nu_hat)

    box = TridiagonalBox(window.slice(box_lo, box_hi))
    s, t = scenario.interval  # type: ignore[misc]
    # a bisected eigenvalue lies within the tolerance of where its rank's
    # Sturm count changes, so the ranks counted here hold every one in [s, t]
    tol = EIGENVALUE_TOL_FACTOR * box.scale
    below, upto = sturm_counts(box.diagonal, np.array([s - 2 * tol, t + 2 * tol])).tolist()
    values, vectors = eigenpairs(box, range(below, upto))
    keep = np.flatnonzero((values >= s) & (values <= t))
    in_interval = (below + keep).tolist()
    lams, vectors = values[keep], vectors[:, keep]
    g_hats = np.interp(lams, scenario.e_grid, gammas)
    g_errs = np.interp(lams, scenario.e_grid, errs)
    c_rates = np.maximum(g_hats - 8.0 * eps0, RATE_FLOOR)
    centers = np.argmax(np.abs(vectors), axis=0)
    rates = _decay_rates(vectors, centers)
    passed = rates >= np.maximum(0.5 * g_hats, RATE_FLOOR)
    # one regularity pass per radius over (eigenvalue, site) lanes, kept as
    # (eigenvalue, radius, site) arrays
    radii = np.asarray(scenario.n_grid, dtype=np.int64)
    singular = np.zeros((len(in_interval), len(radii), 2), dtype=bool)
    resonant = np.zeros_like(singular)
    for r, n in enumerate(scenario.n_grid if in_interval else ()):
        lanes = classify_regularity(
            window, (2 * n, 2 * n + 1), n, c_rates[:, None], lams[:, None]
        )
        singular[:, r], resonant[:, r] = ~(lanes.regular | lanes.resonant), lanes.resonant
    largest = np.max(np.where(singular, radii[:, None], 0), axis=(1, 2), initial=0)
    skips = [
        (in_interval[i], int(radii[r]), 2 * int(radii[r]) + k)
        for i, r, k in np.argwhere(resonant).tolist()
    ]
    rows = map(
        LocalizationRow, in_interval, lams.tolist(), g_hats.tolist(), g_errs.tolist(),
        rates.tolist(), (box_lo + centers).tolist(), passed.tolist(),
        [n or None for n in largest.tolist()],
    )
    return LocalizationReport(
        scenario.scenario_id, scenario.seed, scenario.law_tag,
        (box_lo, box_hi), nu_hat, eps0, tuple(rows), tuple(skips),
    )


# ---------------------------------------------------------------------------
# singularity census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusReport:
    scenario_id: str
    seed: int
    law_tag: str
    n_grid: tuple[int, ...]
    rows: tuple[tuple[int, int, str], ...]  # (n, site, verdict)
    counts: dict[int, int]
    zero_from: int | None
    skips: tuple[tuple[int, int, float], ...]

    def to_table(self) -> ResultTable:
        values = ((self.scenario_id, self.seed, self.law_tag, *row) for row in self.rows)
        summary = {
            "counts": {str(n): c for n, c in self.counts.items()},
            "zero_from": self.zero_from,
            "max_count": max(self.counts.values()) if self.counts else 0,
            "resonant_skips": len(self.skips),
        }
        return ResultTable.from_values("census", CENSUS_COLUMNS, values, summary)


def singularity_census(scenario: Scenario) -> CensusReport:
    """Count singular sites among ``{+-2n, +-(2n+1)}`` for each grid radius.

    A site is reported singular when the regularity test fails at any grid
    energy, with rate ``gamma_hat(E) - 8 eps0``.  Both signs are scanned:
    site-dependent densities break the reflection symmetry of the exact law.
    """
    require_interval_coverage(scenario)
    if not scenario.n_grid:
        raise ValueError("census needs a radius grid")
    stream = scenario.stream()
    n_max = max(scenario.n_grid)
    span = 3 * n_max + 1
    window = sample_window(scenario.law(), -span, span, stream.child(0))
    gammas, errs = gamma_grid(scenario, stream.child(1))
    nu_hat = float(np.min(gammas - errs))
    eps0 = _epsilon0(nu_hat)
    rows = []
    counts: dict[int, int] = {}
    skips = []
    rates = np.maximum(gammas - 8.0 * eps0, RATE_FLOOR)[:, None]
    energies = np.asarray(scenario.e_grid, dtype=float)[:, None]
    for n in scenario.n_grid:
        sites = (2 * n, 2 * n + 1, -2 * n, -(2 * n + 1))
        # one regularity pass per radius over (energy, site) lanes; each
        # site's scan ends at its first singular energy, and the resonant
        # energies before it are skipped
        lanes = classify_regularity(window, sites, n, rates, energies)
        singular = ~(lanes.regular | lanes.resonant).T
        scanned = ~np.logical_or.accumulate(singular, axis=1)
        skipped = np.argwhere(lanes.resonant.T & scanned).tolist()
        skips.extend((int(n), sites[i], scenario.e_grid[k]) for i, k in skipped)
        found = ~scanned[:, -1]
        verdicts = np.where(found, "singular", "regular").tolist()
        rows.extend((int(n), site, verdict) for site, verdict in zip(sites, verdicts))
        counts[int(n)] = int(np.count_nonzero(found))
    # zero from the smallest radius above the last one with a singular site
    last = max((n for n, c in counts.items() if c), default=0)
    zero_from = min((n for n in counts if n > last), default=None)
    return CensusReport(
        scenario.scenario_id, scenario.seed, scenario.law_tag,
        tuple(scenario.n_grid), tuple(rows), counts, zero_from, tuple(skips),
    )


# ---------------------------------------------------------------------------
# edge-zone potential bound census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeCensusReport:
    scenario_id: str
    seed: int
    p: float
    r: float
    alpha: float
    rows: tuple[dict, ...]
    last_violation_n: int | None
    persistent: bool

    def to_table(self) -> ResultTable:
        summary = {
            "p": self.p,
            "r": self.r,
            "alpha": self.alpha,
            "last_violation_n": self.last_violation_n,
            "persistent_violations": self.persistent,
        }
        return ResultTable("edge_census", EDGE_CENSUS_COLUMNS, self.rows, summary)


def _site_tail(scenario: Scenario, site: int, threshold: float) -> float:
    """Exact P[|V_site| > threshold] under the scenario law, when available."""
    densities = scenario.densities
    if densities.is_identity_at(site):
        return scenario.base.tail_probability(threshold)
    beta = densities.atom_weights_at(site)
    if beta is not None and isinstance(scenario.base, FiniteAtoms):
        return float(np.sum(beta[np.abs(scenario.base.locations) > threshold]))
    return math.nan


def edge_bound_census(
    scenario: Scenario, p: float, r: float, alpha: float | None = None
) -> EdgeCensusReport:
    """Count potential values beyond ``n^(r/alpha)`` near the window edges.

    For each grid radius ``n`` the two zones reach ``p log n`` sites in from
    the endpoints of ``[-n, n]``.  Violation frequencies are compared against
    the exact per-site tail probability (when computable) and against the
    moment/union upper bound ``2 C (1 + 2 p log n) / n^r``.  Passing an
    ``alpha`` larger than the true moment order makes the threshold too slow
    and the violations persist; the report flags that.
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    if p <= 0:
        raise ValueError("p must be positive")
    if alpha is not None and not alpha > 0:
        raise ValueError("alpha must be positive")
    if not scenario.n_grid:
        raise ValueError("edge census needs a radius grid")
    alpha = scenario.base.alpha_moment if alpha is None else float(alpha)
    stream = scenario.stream()
    law = scenario.law()
    moment = scenario.base.abs_moment(alpha)
    sups = [
        scenario.densities.sup_norm(s)
        for n in scenario.n_grid
        for s in scenario.densities.perturbed_sites(-n, n)
    ]
    moment *= max(sups, default=1.0)
    values = []
    last_violation = None
    for i, n in enumerate(scenario.n_grid):
        width = int(p * math.log(n)) if n > 1 else 0
        zone = sorted(
            set(range(-n, min(-n + width, n) + 1)) | set(range(max(n - width, -n), n + 1))
        )
        threshold = float(n) ** (r / alpha)
        wins = sample_windows(law, -n, n, scenario.samples, stream.child(i))
        cols = [s + n for s in zone]
        exceed = np.abs(wins[:, cols]) > threshold
        site_viol = int(np.count_nonzero(exceed))
        event_count = int(np.count_nonzero(np.any(exceed, axis=1)))
        tails = [_site_tail(scenario, s, threshold) for s in zone]
        if any(math.isnan(t) for t in tails):
            site_pred = event_pred = math.nan
        elif any(t >= 1.0 for t in tails):
            site_pred = math.fsum(tails) / len(zone)
            event_pred = 1.0
        else:
            site_pred = math.fsum(tails) / len(zone)
            event_pred = 1.0 - math.exp(math.fsum(math.log1p(-t) for t in tails))
        chebyshev = (
            2.0 * moment * (1.0 + 2.0 * p * math.log(n)) / float(n) ** r
            if math.isfinite(moment)
            else math.inf
        )
        if event_count > 0:
            last_violation = int(n)
        values.append((
            scenario.scenario_id, scenario.seed, int(n), scenario.samples, len(zone), threshold,
            site_viol, site_viol / (scenario.samples * len(zone)), site_pred,
            event_count, event_count / scenario.samples, event_pred, chebyshev,
        ))
    return EdgeCensusReport(
        scenario.scenario_id, scenario.seed, float(p), float(r), float(alpha),
        ResultTable.from_values("edge_census", EDGE_CENSUS_COLUMNS, values).rows,
        last_violation, persistent=event_count / scenario.samples > 0.05,  # at the largest n
    )
