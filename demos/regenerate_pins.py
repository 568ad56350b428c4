"""Recompute every pinned reference value used by configs and tests.

Run after an intentional change to sampling or numerics, compare the output
against the pinned constants (config ``expected`` blocks, the constants at
the top of tests/test_estimators.py, the smoke-size verdicts and localize
digests of tests/test_experiments.py, the eigensolve digests of
tests/test_spectral.py, the table-step digests of tests/test_transfer.py, the
lift-check counts digest of tests/test_estimators.py and the CSV digests of
configs/csv.sha256), and update them deliberately.
"""
import hashlib
import json
from pathlib import Path

import numpy as np

from anderson_lab.cli import COMMANDS, scenario_from_config
from anderson_lab.estimators import lift_check, lyapunov_mc
from anderson_lab.experiments import Scenario, run_localization, singularity_census
from anderson_lab.measures import (
    BumpSchedule,
    FiniteAtoms,
    Identity,
    PotentialWindow,
    PowersOfTwoSites,
    ProductLaw,
    UniformInterval,
)
from anderson_lab.rng import RngStream
from anderson_lab.spectral import TridiagonalBox, eigenpairs, eigenvector
from anderson_lab.transfer import AtomWindows, matrix_batch, vector_growth_logs


def sha256(*arrays) -> str:
    """Digest of the arrays' float64 little-endian bytes, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


bernoulli = FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5)))
law = ProductLaw.exact(bernoulli)

# Long single-trajectory reference for gamma at E = 0 (tests pin this),
# with a blocked standard error from 100 stretches of 1e5 steps.
burn = 64
blocks, block_len = 100, 100_000
steps = burn + blocks * block_len
gen = RngStream(123_457).generator()
window = np.empty((1, steps))
chunk = 1_000_000
for i in range(0, steps, chunk):
    m = min(chunk, steps - i)
    window[0, i : i + m] = np.where(gen.random(m) < 0.5, -1.0, 1.0)
marks = tuple(burn + k * block_len for k in range(blocks + 1))
logs = vector_growth_logs(0.0, window, marks)
increments = np.diff(logs[:, 0]) / block_len
gamma_long = float((logs[-1, 0] - logs[0, 0]) / (blocks * block_len))
se_long = float(np.std(increments, ddof=1) / np.sqrt(blocks))
print(f"long-trajectory gamma(0) over {blocks * block_len:.0e} steps: "
      f"{gamma_long!r} +- {se_long!r}")

# Batched estimate with its standard error, for the combined-error check.
est = lyapunov_mc(law, 0.0, 10_000, 200, RngStream(42))
print(f"batched gamma(0): {est.mean:.8f} +- {est.stderr:.2e}")

# Localization pass fractions and census thresholds at the shipped seeds.
e_grid = tuple(np.round(np.arange(-0.5, 0.51, 0.1), 10))
for label, densities in (
    ("exact", Identity()),
    ("bumps", BumpSchedule(sites=PowersOfTwoSites(), base=bernoulli, weights=(0.75, 0.25))),
):
    scenario = Scenario(
        scenario_id=f"pin_{label}", kind="localize", base=bernoulli,
        densities=densities, seed=90210, samples=1, e_grid=e_grid,
        n_grid=(10, 25, 40, 55, 70, 85, 100, 115, 130, 145),
        interval=(-0.5, 0.5), box=(-200, 199), gamma_n=1500, gamma_samples=200,
    )
    report = run_localization(scenario)
    census = singularity_census(scenario)
    print(
        f"{label}: pass_fraction={report.pass_fraction:.4f} "
        f"eigenfunctions={len(report.rows)} census_zero_from={census.zero_from}"
    )

configs = Path(__file__).resolve().parent.parent / "configs"


def run_lengths(values) -> str:
    """A list as the sum of run-length repeats it is pinned as, e.g.
    ``[10] * 2 + [None] * 4``."""
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return " + ".join(f"[{v!r}] * {k}" for v, k in runs) or "[]"


# Smoke-size bump studies pinned in tests/test_experiments.py
# (test_bump_studies_reproduce_pinned_verdicts): grids.n [10, 25],
# gamma_n 200, gamma_samples 20, at the configs' own seed.
for stem in ("census_bumps", "localize_bumps"):
    config = json.loads((configs / f"{stem}.json").read_text())
    config["grids"]["n"] = [10, 25]
    config["experiment"].update(gamma_n=200, gamma_samples=20)
    scenario = scenario_from_config(config)
    if scenario.kind == "census":
        report = singularity_census(scenario)
        print(f"smoke {stem}: rows={report.rows!r} skips={report.skips!r}")
    else:
        report = run_localization(scenario)
        singular = [r.largest_singular_n for r in report.rows]
        print(f"smoke {stem}: largest_singular_n={run_lengths(singular)} skips={report.skips!r}")
        # the verdicts apart from decay_rate, which reads the eigensolver's
        # round-off; None in largest_singular_n digests as NaN
        verdicts = ("j", "eigenvalue", "center", "passed", "largest_singular_n")
        for names in (verdicts, ("decay_rate",)):
            columns = ([getattr(r, c) for r in report.rows] for c in names)
            print(f"smoke {stem}: sha256 of {', '.join(names)}={sha256(*columns)}")

# Eigensolve digests pinned in tests/test_spectral.py
# (test_eigensolve_bytes_are_pinned): a 400-site Bernoulli box, a box of two
# identical blocks behind a barrier (clusters), and one cluster member
# orthogonalized against its predecessor.  They hold for one BLAS build.
rng = np.random.default_rng(218)
signs = np.where(rng.random(400) < 0.5, -1.0, 1.0)
values, vectors = eigenpairs(TridiagonalBox(PotentialWindow(0, 399, signs)))
print(f"eigenpairs bernoulli: sha256={sha256(values, vectors)}")
block = np.random.default_rng(209).uniform(-2, 2, 20)
box = TridiagonalBox(PotentialWindow(0, 40, np.concatenate([block, [1e3], block])))
values, vectors = eigenpairs(box)
print(f"eigenpairs cluster: sha256={sha256(values, vectors)}")
pair = eigenvector(box, float(values[7]), orthogonalize_against=(vectors[:, 6],))
print(f"eigenvector cluster rank 7: sha256={sha256(pair.vector, [pair.residual])}")

# Table-step digests pinned in tests/test_transfer.py
# (test_table_step_bytes_are_pinned): two-atom AtomWindows at 13 real
# energies as (E, 1) lanes and at one complex energy, and two-valued float
# windows read at checkpoints off the 8-site grid.
rng = np.random.default_rng(220)
windows = AtomWindows(rng.integers(0, 2, (17, 301)).astype(np.uint8), np.array([0.25, -2.5]))
marks = (0, 5, 8, 77, 150, 301)
energies = np.linspace(-2.4, 2.4, 13)[:, None]
print(f"vector_growth_logs real lanes: sha256={sha256(vector_growth_logs(energies, windows, marks))}")
logs = vector_growth_logs(0.4 + 0.6j, windows, marks)
print(f"vector_growth_logs complex: sha256={sha256(logs)}")
values = np.where(rng.random((9, 203)) < 0.5, -1.0, 1.0)
checkpoints = (1, 13, 99, 203)
batch = matrix_batch(0.37, values, checkpoints) + matrix_batch(energies[::4], values, checkpoints)
print(f"matrix_batch checkpoints: sha256={sha256(*batch)}")

# Lift-check counts pinned in tests/test_estimators.py
# (test_lift_check_counts_are_pinned): a two-atom and a three-atom bump law
# and a callable bump on a uniform base, each statistic, E in {0, 0.37, 2.5}.
three = FiniteAtoms(atoms=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5)))
uniform = UniformInterval(-1.0, 1.0)
lift_laws = (
    (BumpSchedule(sites=PowersOfTwoSites(), base=bernoulli, weights=(0.75, 0.25)), bernoulli),
    (BumpSchedule(sites=PowersOfTwoSites(), base=three, weights=(0.5, 0.25, 0.25)), three),
    (BumpSchedule(sites=PowersOfTwoSites(), base=uniform, density=lambda x: 1.0 + 0.5 * x,
                  density_sup=1.5), uniform),
)
u, v = np.array([0.6, 0.8]), np.array([1.0, 1.0]) / np.sqrt(2.0)
counts = []
for seq, base in lift_laws:
    for statistic in ("log_norm", "log_det", "matrix_element"):
        vectors = (u, v) if statistic == "matrix_element" else (None, None)
        for energy in (0.0, 0.37, 2.5):
            report = lift_check(seq, base, energy, 0.1, [3, 8, 20, 45], 400, RngStream(2401),
                                statistic, u=vectors[0], v=vectors[1])
            counts += [report.counts_exact, report.counts_approx]
print(f"lift_check counts sweep: sha256={sha256(*counts)}")

# Every metric named in a config ``expected`` block, and the sha256 of every
# config's CSV, at the config's own seed.
csv_sums = []
for path in sorted(configs.glob("*.json")):
    config = json.loads(path.read_text())
    scenario = scenario_from_config(config, default_id=path.stem)
    table = COMMANDS[scenario.kind].run(scenario)
    csv_sums.append(f"{hashlib.sha256(table.csv_text().encode()).hexdigest()}  {path.stem}.csv")
    metrics = table.metrics()
    for metric, bound in (config.get("expected") or {}).get("metrics", {}).items():
        print(f"{path.stem}: {metric}={metrics[metric]!r} (expected {bound})")
print("configs/csv.sha256 (sha256sum -c format):")
print("\n".join(csv_sums))
