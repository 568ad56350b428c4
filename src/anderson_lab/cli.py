"""Command-line front end: JSON scenario configs in, CSV/JSON results out.

One config describes one scenario; batch studies are shell-level composition.
Every subcommand validates the config fully before any random draw, emits a
fixed documented column set, and is deterministic for a fixed seed across
worker counts.  Progress goes to stderr; stdout carries only data unless
``--out`` redirects results to files.

Validation is construction: one field table gives the type, range and default
of every key, and the pass that checks a config builds its :class:`Scenario`,
so each standing hypothesis is checked once, by its domain constructor.

Exit codes: 0 ok, 1 validation error, 2 runtime/numeric error, 3 pinned
expectation failed under ``--assert``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable

import numpy as np

from .estimators import (
    CS_FAMILIES,
    STATISTICS,
    craig_simon_scan,
    lde_curve,
    lift_check,
    lyapunov_mc,
)
from .experiments import (
    CENSUS_COLUMNS,
    EDGE_CENSUS_COLUMNS,
    LOCALIZATION_COLUMNS,
    ResultTable,
    RunManifest,
    Scenario,
    edge_bound_census,
    gamma_grid,
    persist,
    require_interval_coverage,
    require_localization_box,
    run_localization,
    singularity_census,
)
from .measures import (
    AtomReweight,
    BumpSchedule,
    ExplicitSites,
    FiniteAtoms,
    Identity,
    ParetoTail,
    PowersOfTwoSites,
    UniformInterval,
    condition_report,
    sample_window,
)
from .spectral import TridiagonalBox, eigenvalues

WORKERS_ENV = "ANDERSON_LAB_WORKERS"


class ExitStatus(IntEnum):
    OK = 0
    VALIDATION = 1
    RUNTIME = 2
    ASSERTION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="anderson-lab", add_help=True)
    sub = parser.add_subparsers(dest="command")
    for kind in COMMANDS:
        p = sub.add_parser(kind.replace("_", "-"), add_help=True)
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="worker count")
        p.add_argument("--out", default=None, help="directory for result files")
        p.add_argument(
            "--assert", dest="assert_mode", action="store_true",
            help="turn pinned expectations into the exit code",
        )
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`dispatch`, built on the first dispatch of a
    process and reused: parsing leaves it unchanged, a usage error included."""
    return build_parser()


# ---------------------------------------------------------------------------
# the config schema: field checks take (value, path, violations) and return
# the value as the domain wants it, or _BAD after reporting "<path>: <reason>"
# ---------------------------------------------------------------------------

REQUIRED = object()  #: default of a key the config must give
OPTIONAL = object()  #: default of a key that may be left out; the code reading it has the default
_BAD = object()  #: a value that failed its check; the reason is already reported


def _fail(out: list[str], path: str, reason: str):
    out.append(f"{path}: {reason}")
    return _BAD


def _check(ok: Callable[[object], bool], reason: str, convert: Callable = lambda x: x) -> Callable:
    """The field check that passes ``convert(x)`` when ``ok(x)``."""
    return lambda x, path, out: convert(x) if ok(x) else _fail(out, path, reason)


def _is_number(x) -> bool:
    """A finite JSON number: no bool, no integer beyond the float range."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _above(bound: float) -> Callable:
    return _check(lambda x: _is_number(x) and x > bound, f"must be a number > {bound}", float)


def _at_least(bound: int) -> Callable:
    return _check(lambda x: _is_integer(x) and x >= bound, f"must be an integer >= {bound}")


def _one_of(*options) -> Callable:
    """One of the given strings or numbers, as the options' type."""
    return _check(
        lambda x: isinstance(x, (str, int, float)) and not isinstance(x, bool) and x in options,
        f"must be one of {options}", type(options[0]),
    )


_NUMBER = _check(_is_number, "must be a number", float)
_INTEGER = _check(_is_integer, "must be an integer")
_TEXT = _check(lambda x: isinstance(x, str), "must be a string")
_FLAG = _check(lambda x: isinstance(x, bool), "must be true or false")
#: a name that ``--out DIR`` joins to ``DIR`` without leaving it, and that
#: every CSV row carries as one unquoted cell
_STEM = _check(
    lambda x: isinstance(x, str) and x not in ("", ".", "..")
    and not any(c in '/\\,"' or c < " " or "\x7f" <= c <= "\x9f" for c in x),
    "must be a string with no '/', '\\', ',', '\"' or control character, and not '', '.' or '..'",
)


def _listof(item: Callable, *, size: int | None = None, ascending=False, empty=False) -> Callable:
    """A JSON list of values checked by ``item``, as a tuple."""
    what = f"a list of {size} values" if size else "a list" if empty else "a non-empty list"

    def check(x, path, out):
        if not isinstance(x, list) or (size and len(x) != size) or not (x or empty):
            return _fail(out, path, f"must be {what}")
        start = len(out)
        items = tuple(item(v, f"{path}[{i}]", out) for i, v in enumerate(x))
        if len(out) > start:
            return _BAD
        if ascending and any(b <= a for a, b in zip(items, items[1:])):
            return _fail(out, path, "must be strictly ascending")
        return items

    return check


def _mapping(item: Callable, *, sites=False) -> Callable:
    """A JSON object with free keys, each value checked by ``item``; with
    ``sites`` the keys are distinct integer sites and there is at least one."""

    def check(x, path, out):
        if not isinstance(x, dict) or (sites and not x):
            return _fail(out, path, "must be a non-empty object" if sites else "must be an object")
        start, got = len(out), {}
        for key, value in x.items():
            try:
                name = int(key) if sites else key
            except ValueError:
                _fail(out, f"{path}.{key}", "site must be an integer")
                continue
            if name in got:
                _fail(out, f"{path}.{key}", f"site {name} is given more than once")
                continue
            got[name] = item(value, f"{path}.{key}", out)
        return got if len(out) == start else _BAD

    check.item = item  # type: ignore[attr-defined]
    return check


def _read(obj: dict, key: str, spec: tuple, path: str, out: list[str], **context):
    """Check ``obj[key]`` against ``spec = (check, default)``; an absent key
    is required, left OPTIONAL, or takes the default through the same check."""
    check, default = spec
    if key in obj:
        return check(obj[key], path, out, **context)
    if default is REQUIRED:
        return _fail(out, path, "required")
    return default if default is OPTIONAL else check(default, path, out, **context)


def _attempt(out: list[str], build: Callable, names: dict, path: str, *args, **kwargs):
    """``build(*args, **kwargs)``, or _BAD after reporting its ValueError.

    Domain constructors lead a message with the argument they reject, so the
    report goes to the path ``names`` gives for that first word, else to
    ``path``.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        return _fail(out, names.get(str(err).split(" ", 1)[0], path), str(err))


@dataclass(frozen=True)
class Section:
    """A JSON object of the config: ``fields`` maps each key to ``(check,
    default)``; with ``kinds``, the object's ``kind`` picks ``(build, fields)``
    extending them.  ``build``, called with the checked values and the
    caller's context, makes the domain object.  Other keys are rejected.
    """

    fields: dict = field(default_factory=dict)
    kinds: dict | None = None
    build: Callable | None = None

    def __call__(self, value, path: str, out: list[str], **context):
        if not isinstance(value, dict):
            return _fail(out, path, "must be an object")
        fields, build, suffix = self.fields, self.build, ""
        if self.kinds is not None:
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in self.kinds:
                return _fail(out, f"{path}.kind", f"must be one of {tuple(self.kinds)}")
            build, extra = self.kinds[kind]
            fields, suffix = {**fields, **extra}, f" for kind {kind!r}"
        start = len(out)
        out.extend(
            f"{path}.{key}: unknown key{suffix}" for key in value
            if key not in fields and not (key == "kind" and suffix)
        )
        got = {key: _read(value, key, spec, f"{path}.{key}", out) for key, spec in fields.items()}
        got = {key: checked for key, checked in got.items() if checked is not OPTIONAL}
        if len(out) > start or any(v is _BAD for v in context.values()):
            return _BAD
        if build is None:
            return got
        names = {key: f"{path}.{key}" for key in fields}
        return _attempt(out, build, names, path, **context, **got)


_WEIGHTS = _listof(_NUMBER)

MEASURE = Section({"alpha_moment": (_NUMBER, REQUIRED)}, kinds={
    "finite_atoms": (FiniteAtoms, {
        "atoms": (_listof(_listof(_NUMBER, size=2)), REQUIRED),
        "allow_trivial": (_FLAG, OPTIONAL),
    }),
    "uniform_interval": (UniformInterval, {"lo": (_NUMBER, REQUIRED), "hi": (_NUMBER, REQUIRED)}),
    "pareto_tail": (ParetoTail, {
        "scale": (_NUMBER, REQUIRED),
        "exponent": (_NUMBER, REQUIRED),
        "symmetric": (_FLAG, OPTIONAL),
    }),
})

DENSITIES = Section(kinds={
    "identity": (lambda base: Identity(), {}),
    "atom_reweight": (AtomReweight, {"schedule": (_mapping(_WEIGHTS, sites=True), REQUIRED)}),
    "bump": (BumpSchedule, {
        "sites": (Section(kinds={
            "powers_of_two": (PowersOfTwoSites, {}),
            "explicit": (
                lambda values: ExplicitSites(frozenset(values)),
                {"values": (_listof(_INTEGER, empty=True), REQUIRED)},
            ),
        }), REQUIRED),
        "weights": (_WEIGHTS, REQUIRED),
    }),
})

SAMPLING = Section({
    "seed": (_INTEGER, REQUIRED),
    "samples": (_INTEGER, OPTIONAL),
    "workers": (_at_least(1), OPTIONAL),
})

OUTPUT = Section({"path": (_TEXT, OPTIONAL), "format": (_one_of("csv", "json"), OPTIONAL)})


def _pinned(**spec) -> dict:
    tolerance = spec.keys() & {"abs_tol", "rel_tol"}
    if not ("min" in spec or "max" in spec or "value" in spec and tolerance):
        raise ValueError("needs value+abs_tol, value+rel_tol, min, or max")
    return spec


EXPECTED = Section({
    "metrics": (_mapping(Section(
        {key: (_NUMBER, OPTIONAL) for key in ("value", "abs_tol", "rel_tol", "min", "max")},
        build=_pinned,
    )), REQUIRED),
})

# per-kind experiment keys shared by several commands
_E_GRID = _listof(_NUMBER, ascending=True)
_N_GRID = _listof(_INTEGER, ascending=True)
_BOTH_GRIDS = {"energy": (_E_GRID, REQUIRED), "n": (_N_GRID, REQUIRED)}
_RADII = {"n": (_N_GRID, REQUIRED)}
_INTERVAL = (_listof(_NUMBER, size=2), REQUIRED)
_BOX = (_listof(_INTEGER, size=2), REQUIRED)
_GAMMA = {"gamma_n": (_at_least(1), OPTIONAL), "gamma_samples": (_at_least(1), OPTIONAL)}
_TAILS = {
    "energy": (_NUMBER, REQUIRED),
    "epsilon": (_above(0), REQUIRED),
    "statistic": (_one_of(*STATISTICS), OPTIONAL),
    "rate_power": (_one_of(1.0, 0.5), OPTIONAL),
    "u": (_listof(_NUMBER, size=2), OPTIONAL),
    "v": (_listof(_NUMBER, size=2), OPTIONAL),
}
#: experiment keys whose Scenario argument has another name
_SCENARIO_ARGS = {"p": "edge_p", "r": "edge_r", "alpha": "edge_alpha"}


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _energies(sc: Scenario) -> tuple:
    """The lyapunov energies: the energy grid, else the one experiment energy."""
    if not sc.e_grid and sc.energy is None:
        raise ValueError("energy is required unless grids.energy is given")
    return sc.e_grid or (sc.energy,)


def _run_lyapunov(sc: Scenario) -> ResultTable:
    n, energies = sc.n_grid[-1], _energies(sc)
    est = lyapunov_mc(sc.law(), np.asarray(energies), n, sc.samples, sc.stream().child(0),
                      workers=sc.workers)
    means, stderrs = est.mean.tolist(), est.stderr.tolist()
    values = (
        (sc.scenario_id, sc.seed, sc.law_tag, float(np.real(e)), float(np.imag(e)),
         n, sc.samples, mean, stderr)
        for e, mean, stderr in zip(energies, means, stderrs)
    )
    summary = {"min_mean": min(means), "max_mean": max(means)}
    if len(means) == 1:
        summary["mean"], summary["stderr"] = means[0], stderrs[0]
    return ResultTable.from_values("lyapunov", COLUMNS["lyapunov"], values, summary)


def _run_lde(sc: Scenario) -> ResultTable:
    curve = lde_curve(
        sc.law(), sc.energy, sc.epsilon, sc.n_grid, sc.samples, sc.stream(),
        sc.statistic, u=sc.u, v=sc.v, rate_power=sc.rate_power, workers=sc.workers,
    )
    values = (
        (sc.scenario_id, sc.seed, curve.law_tag, sc.statistic, sc.energy, sc.epsilon,
         curve.epsilon_eff, int(n), int(c), float(c) / sc.samples, curve.fit.eta,
         curve.fit.stderr, curve.fit.flag)
        for n, c in zip(curve.n_grid, curve.counts)
    )
    summary = {
        "fitted_eta": curve.fit.eta,
        "eta_stderr": curve.fit.stderr,
        "gamma_ref": curve.gamma_ref,
        "fit_flag": curve.fit.flag,
    }
    return ResultTable.from_values("lde", COLUMNS["lde"], values, summary)


def _run_lift(sc: Scenario) -> ResultTable:
    report = lift_check(
        sc.densities, sc.base, sc.energy, sc.epsilon, sc.n_grid, sc.samples,
        sc.stream(), sc.statistic, u=sc.u, v=sc.v, rate_power=sc.rate_power, workers=sc.workers,
    )
    violated = {v.n for v in report.violations}
    values = (
        (sc.scenario_id, sc.seed, sc.statistic, sc.energy, sc.epsilon, int(n),
         int(exact), int(approx), float(exact) / sc.samples, float(approx) / sc.samples,
         float(log_bound), int(n) in violated)
        for n, exact, approx, log_bound in zip(
            report.n_grid, report.counts_exact, report.counts_approx, report.log_bound
        )
    )
    summary = {
        "violations": len(report.violations),
        "gamma_ref": report.gamma_ref,
        "density_rate": report.density_rate,
        "fitted_eta_exact": report.fit_exact.eta,
        "fitted_eta_approx": report.fit_approx.eta,
        "lifted_rate_prediction": report.lifted_rate_prediction,
    }
    return ResultTable.from_values("lift_check", COLUMNS["lift-check"], values, summary)


def _run_conditions(sc: Scenario) -> ResultTable:
    report = condition_report(sc.densities, sc.n_max, sc.k_max)
    trajectories = {
        "mean_log_sup": report.mean,
        "uniform_mean_log_sup": report.uniform,
        "summable_log_sup": report.tail_increments,
    }
    values = (
        (sc.scenario_id, name, int(n), float(value), report.verdicts[name].verdict)
        for name, trajectory in trajectories.items()
        for n, value in zip(report.n_grid, trajectory)
    )
    summary = {
        f"{name}_verdict": v.verdict for name, v in report.verdicts.items()
    } | {f"{name}_end": v.value_end for name, v in report.verdicts.items()}
    return ResultTable.from_values("conditions", COLUMNS["conditions"], values, summary)


def _run_craig_simon(sc: Scenario) -> ResultTable:
    n_max = max(sc.n_grid)
    window = sample_window(sc.law(), -n_max, 3 * n_max + 1, sc.stream().child(0))
    gammas, _ = gamma_grid(sc, sc.stream().child(1))
    scan = craig_simon_scan(window, sc.e_grid, sc.n_grid, gammas)
    values = (
        (sc.scenario_id, sc.seed, family, float(e), int(n), float(scan.excess[f, i, j]))
        for f, family in enumerate(CS_FAMILIES)
        for i, e in enumerate(scan.e_grid)
        for j, n in enumerate(scan.n_grid)
    )
    summary = {"max_excess": scan.max_excess} | {
        f"max_excess_{k}": v for k, v in scan.family_max().items()
    }
    return ResultTable.from_values("craig_simon", COLUMNS["craig-simon"], values, summary)


def _run_spectrum(sc: Scenario) -> ResultTable:
    lo, hi = sc.box  # type: ignore[misc]
    window = sample_window(sc.law(), lo, hi, sc.stream().child(0))
    eigs = eigenvalues(TridiagonalBox(window))
    values = (
        (sc.scenario_id, sc.seed, sc.law_tag, lo, hi, int(j), float(v)) for j, v in enumerate(eigs)
    )
    summary = {"dim": len(eigs), "min": float(eigs[0]), "max": float(eigs[-1])}
    return ResultTable.from_values("spectrum", COLUMNS["spectrum"], values, summary)


@dataclass(frozen=True)
class Command:
    """A subcommand: runner, CSV columns, the experiment and grid keys its kind
    reads, and domain checks of the built scenario with the path each reports at."""

    run: Callable[[Scenario], ResultTable]
    columns: tuple[str, ...]
    experiment: dict
    grids: dict = field(default_factory=dict)
    checks: tuple = ()


#: keyed by experiment kind; the subcommand is the kind with "-" for "_"
COMMANDS = {
    "lyapunov": Command(
        _run_lyapunov,
        ("scenario_id", "seed", "law_tag", "energy_re", "energy_im",
         "n", "samples", "mean", "stderr"),
        {"n": (_INTEGER, REQUIRED), "energy": (_NUMBER, OPTIONAL)},
        {"energy": (_E_GRID, OPTIONAL), "n": (_N_GRID, OPTIONAL)},
        ((_energies, "experiment.energy"),),
    ),
    "lde": Command(
        _run_lde,
        ("scenario_id", "seed", "law_tag", "statistic", "energy", "epsilon",
         "epsilon_eff", "n", "count", "tail_prob", "fitted_eta", "eta_stderr", "fit_flag"),
        _TAILS, _RADII,
    ),
    "lift_check": Command(
        _run_lift,
        ("scenario_id", "seed", "statistic", "energy", "epsilon", "n",
         "count_exact", "count_approx", "tail_exact", "tail_approx", "log_bound", "violation"),
        _TAILS, _RADII,
    ),
    "conditions": Command(
        _run_conditions,
        ("scenario_id", "condition", "N", "value", "verdict"),
        {"n_max": (_at_least(1), REQUIRED), "k_max": (_at_least(0), REQUIRED)},
    ),
    "localize": Command(
        lambda sc: run_localization(sc).to_table(), LOCALIZATION_COLUMNS,
        {"interval": _INTERVAL, "box": _BOX, **_GAMMA}, _BOTH_GRIDS,
        ((require_interval_coverage, "grids.energy"), (require_localization_box, "experiment.box")),
    ),
    "census": Command(
        lambda sc: singularity_census(sc).to_table(), CENSUS_COLUMNS,
        {"interval": _INTERVAL, **_GAMMA}, _BOTH_GRIDS,
        ((require_interval_coverage, "grids.energy"),),
    ),
    "edge_census": Command(
        lambda sc: edge_bound_census(sc, sc.edge_p, sc.edge_r, sc.edge_alpha).to_table(),
        EDGE_CENSUS_COLUMNS,
        {"p": (_above(0), REQUIRED), "r": (_above(1), REQUIRED), "alpha": (_above(0), OPTIONAL)},
        _RADII,
    ),
    "craig_simon": Command(
        _run_craig_simon,
        ("scenario_id", "seed", "family", "energy", "n", "excess"),
        # the shifted inverse family spans sites [2n+2, 3n], empty below n = 2
        _GAMMA, {**_BOTH_GRIDS, "n": (_listof(_at_least(2), ascending=True), REQUIRED)},
    ),
    "spectrum": Command(
        _run_spectrum,
        ("scenario_id", "seed", "law_tag", "box_lo", "box_hi", "j", "eigenvalue"),
        {"box": _BOX},
    ),
}

COLUMNS = {kind.replace("_", "-"): command.columns for kind, command in COMMANDS.items()}

EXPERIMENT = Section(kinds={kind: (None, c.experiment) for kind, c in COMMANDS.items()})

#: the top level; sections are named by their key alone ("measure.atoms")
CONFIG = {
    "scenario_id": (_STEM, OPTIONAL),
    "measure": (MEASURE, REQUIRED),
    "densities": (DENSITIES, {"kind": "identity"}),
    "experiment": (EXPERIMENT, REQUIRED),
    # the grid keys are those the experiment kind reads
    "grids": (lambda value, path, out, kind: Section(COMMANDS[kind].grids)(value, path, out), {}),
    "sampling": (SAMPLING, REQUIRED),
    "output": (OUTPUT, {}),
    "expected": (EXPECTED, OPTIONAL),
}


# ---------------------------------------------------------------------------
# config -> scenario, in one pass
# ---------------------------------------------------------------------------

def _build(config, command_kind=None, *, seed=None, workers=None, default_id="scenario"):
    """``(scenario, [])``, or ``(None, violations)`` each led by the JSON path,
    flag or environment variable at fault; overrides go through the checks of
    the keys they replace (configs/SCHEMA.md).  No random number is drawn."""
    if not isinstance(config, dict):
        return None, ["config: must be a JSON object"]
    out = [f"config.{key}: unknown key" for key in config if key not in CONFIG]

    def read(key, spec=None, **context):
        return _read(config, key, spec or CONFIG[key], key, out, **context)

    scenario_id = read("scenario_id", (_STEM, default_id))
    base = read("measure")
    densities = read("densities", base=base)
    experiment = read("experiment")
    kind = config["experiment"].get("kind") if isinstance(config.get("experiment"), dict) else None
    grids = _BAD
    if isinstance(kind, str) and kind in COMMANDS:
        grids = read("grids", kind=kind)
        if command_kind is not None and kind != command_kind:
            out.append(f"experiment.kind: config is for {kind!r}, command expects {command_kind!r}")
    sampling = read("sampling")
    read("output")
    read("expected")

    names = {key: f"sampling.{key}" for key in SAMPLING.fields}
    overrides = [("seed", "--seed", seed), ("workers", "--workers", workers)]
    env = os.environ.get(WORKERS_ENV)
    if workers is None and env and sampling is not _BAD and "workers" not in sampling:
        value = int(env) if env.strip().removeprefix("-").isdecimal() else env
        overrides.append(("workers", WORKERS_ENV, value))
    for key, name, value in overrides:
        if value is not None:
            names[key] = name
            value = SAMPLING.fields[key][0](value, name, out)
            if sampling is not _BAD:
                sampling[key] = value
    if out:
        return None, out

    n = experiment.pop("n", None)
    n_grid = grids.get("n") or ((n,) if n is not None else ())
    names |= {_SCENARIO_ARGS.get(k, k): f"experiment.{k}" for k in COMMANDS[kind].experiment}
    names |= {"e_grid": "grids.energy", "n_grid": "grids.n" if "n" in grids else "experiment.n"}
    scenario = _attempt(
        out, Scenario, names, "experiment",
        scenario_id=scenario_id, kind=kind, base=base, densities=densities,
        e_grid=grids.get("energy", ()), n_grid=n_grid, expected=config.get("expected"),
        **sampling, **{_SCENARIO_ARGS.get(k, k): v for k, v in experiment.items()},
    )
    if scenario is not _BAD:
        for check, path in COMMANDS[kind].checks:
            _attempt(out, check, {}, path, scenario)
    return (None, out) if out else (scenario, out)


def validate(config, command_kind: str | None = None) -> list[str]:
    """Schema plus standing-hypothesis checks; empty list means valid.

    Each violation names the JSON path (or environment variable) it refers
    to.  No randomness is drawn here or anywhere before validation passes.
    """
    return _build(config, command_kind)[1]


def scenario_from_config(
    config: dict,
    *,
    seed: int | None = None,
    workers: int | None = None,
    default_id: str = "scenario",
) -> Scenario:
    """The scenario a config describes; a ValueError listing every violation
    when :func:`validate` would reject it."""
    scenario, violations = _build(config, seed=seed, workers=workers, default_id=default_id)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    return scenario


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def check_expected(metrics: dict, expected: dict | None) -> list[str]:
    """Compare summary metrics against a pinned-expectation block; an absent
    metric is reported missing, and a null one fails every bound."""
    if not expected:
        return []
    failures = []
    for name, spec in expected.get("metrics", {}).items():
        if name not in metrics:
            failures.append(f"expected metric {name!r} missing from results")
            continue
        got = metrics[name]
        x = math.nan if got is None else got  # NaN fails every comparison
        if "value" in spec:
            tol = spec.get("abs_tol", abs(spec["value"]) * spec.get("rel_tol", 0.0))
            if not (abs(x - spec["value"]) <= tol):
                failures.append(f"{name}: got {got!r}, expected {spec['value']!r} +- {tol!r}")
        if "min" in spec and not x >= spec["min"]:
            failures.append(f"{name}: got {got!r}, expected >= {spec['min']!r}")
        if "max" in spec and not x <= spec["max"]:
            failures.append(f"{name}: got {got!r}, expected <= {spec['max']!r}")
    return failures


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def dispatch(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.VALIDATION
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        print("error: a subcommand is required", file=sys.stderr)
        return ExitStatus.VALIDATION
    config_path = Path(args.config)
    try:
        config = json.loads(config_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config {config_path}: {err}", file=sys.stderr)
        return ExitStatus.VALIDATION
    kind = args.command.replace("-", "_")
    scenario, violations = _build(
        config, kind, seed=args.seed, workers=args.workers, default_id=config_path.stem
    )
    if violations:
        for v in violations:
            print(f"invalid config: {v}", file=sys.stderr)
        return ExitStatus.VALIDATION
    out_format = args.format or config.get("output", {}).get("format", "csv")
    print(
        f"# {args.command}: scenario={scenario.scenario_id} seed={scenario.seed} "
        f"workers={scenario.workers}",
        file=sys.stderr,
    )
    try:
        table = COMMANDS[kind].run(scenario)
    except (ValueError, ArithmeticError, RuntimeError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.RUNTIME
    manifest = RunManifest.create(config, scenario.seed, scenario.workers)
    out_dir = args.out or config.get("output", {}).get("path")
    if out_dir is not None:
        try:
            out_path = Path(out_dir)
            out_path.mkdir(parents=True, exist_ok=True)
            paths = persist(table, manifest, out_path / scenario.scenario_id)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return ExitStatus.RUNTIME
        for p in paths:
            print(f"# wrote {p}", file=sys.stderr)
    elif out_format == "json":
        print(table.json_text(manifest))
    else:
        sys.stdout.write(table.csv_text())
    failures = check_expected(table.metrics(), scenario.expected)
    if failures:
        for f in failures:
            print(f"expectation {'failed' if args.assert_mode else 'warning'}: {f}", file=sys.stderr)
        if args.assert_mode:
            return ExitStatus.ASSERTION
    return ExitStatus.OK


def main(argv: list[str] | None = None) -> int:
    return int(dispatch(argv))


if __name__ == "__main__":
    sys.exit(main())
