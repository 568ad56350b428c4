"""The benchmark's workloads: which shipped configs each one drives, how they
are scaled, and which traced spans each one must exercise.

Every workload is a closed loop with one client: a pass runs the study list
in order through ``anderson_lab.cli.dispatch`` and the next study starts when
the previous one ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Study:
    command: str
    config: str  # stem of a file in configs/
    patch: dict = field(default_factory=dict)  # section -> keys replaced in the shipped config
    smoke_patch: dict = field(default_factory=dict)  # applied on top of patch in smoke mode


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    studies: tuple[Study, ...]
    #: spans that must record calls in a traced run, or the run fails
    required_spans: tuple[str, ...]
    #: also run one traced pass at --workers 2 and compare its CSV bytes
    workers2_pass: bool = False
    #: a pass runs the study list at this many seeds derived from --seed, for
    #: workloads whose work per study depends on the seed
    seeds_per_pass: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_tails",
            why=(
                "wide Monte Carlo batches (4096 lanes, windows of 51-801 sites): "
                "sampling and matrix_batch carry the time, spectral is idle"
            ),
            studies=(
                # 20 000 samples fit a pass into ~2 s; window lengths, grid,
                # law and energy stay as shipped since they set the per-site cost
                Study("lift-check", "lift_bumps", {"sampling": {"samples": 20000}},
                      {"sampling": {"samples": 1000}}),
                # unscaled, so that the pinned fitted_eta still checks at seed 31
                Study("lde", "lde_bernoulli", {}, {"sampling": {"samples": 1000}}),
            ),
            required_spans=(
                "measures.sample_windows", "transfer.matrix_batch",
                "transfer.vector_growth_logs", "estimators.lyapunov_mc",
                "estimators.lift_check", "estimators.lde_curve", "experiments.persist",
            ),
            workers2_pass=True,
        ),
        Workload(
            name="green_census",
            why=(
                "thousands of small determinant-ratio Green's functions plus one n=400 "
                "eigensolve: sturm_counts and det_recurrence carry the time"
            ),
            studies=(
                Study("census", "census_bumps", {},
                      {"grids": {"n": [10, 25]},
                       "experiment": {"gamma_n": 200, "gamma_samples": 20}}),
                Study("localize", "localize_bumps", {},
                      {"grids": {"n": [10, 20]},
                       "experiment": {"gamma_n": 200, "gamma_samples": 20}}),
            ),
            required_spans=(
                "spectral.sturm_counts", "transfer.det_recurrence", "transfer.interval_det",
                "spectral.green", "spectral.classify_regularity", "spectral.eigenpairs",
                "experiments.singularity_census", "experiments.run_localization",
                "experiments.gamma_grid", "transfer.vector_growth_logs",
            ),
            # singular sites end the census energy scan early and the number of
            # eigenvalues in the interval varies, so one seed's work is +-6% off
            seeds_per_pass=3,
        ),
        Workload(
            name="energy_scan",
            why=(
                "narrow lanes (300-400 per energy, 41 energies) over windows up to 8001 "
                "sites: per-site Python step cost dominates the same transfer kernels"
            ),
            studies=(
                Study("craig-simon", "craig_simon_bernoulli", {},
                      {"grids": {"n": [200]}, "experiment": {"gamma_n": 200, "gamma_samples": 20}}),
                Study("lyapunov", "bernoulli_lyapunov", {},
                      {"experiment": {"n": 200}, "sampling": {"samples": 50}}),
            ),
            required_spans=(
                "estimators.craig_simon_scan", "transfer.matrix_batch",
                "transfer.vector_growth_logs", "measures.sample_windows",
                "experiments.gamma_grid", "estimators.lyapunov_mc",
            ),
        ),
    )
}


def scaled_config(shipped: dict, study: Study, smoke: bool) -> dict:
    """The shipped config with the study's patches applied section by section."""
    config = {k: (dict(v) if isinstance(v, dict) else v) for k, v in shipped.items()}
    for patch in (study.patch, study.smoke_patch if smoke else {}):
        for section, values in patch.items():
            config[section].update(values)
    return config
