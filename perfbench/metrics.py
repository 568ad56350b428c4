"""The benchmark's metrics, computed from the workload processes' results.

Counts (calls and work units) are per pass and must repeat exactly from one
traced pass to the next; times are medians over passes.  A span a workload
does not run is reported as zero calls.
"""
from __future__ import annotations

import statistics

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB", "passed_frac": "frac"}

#: traced spans reported as <span>.calls and <span>.self_s, with the
#: work-normalised cost <span>.<metric> = self time per unit counted from the
#: call arguments
SPANS = (
    ("measures.sample_windows", "ns_per_site", "sites"),
    ("transfer.matrix_batch", "ns_per_site_lane", "site_lanes"),
    ("transfer.vector_growth_logs", "ns_per_site_lane", "site_lanes"),
    ("transfer.det_recurrence", "ns_per_site", "sites"),
    ("transfer.interval_det", None, None),
    ("spectral.sturm_counts", "ns_per_site_shift", "site_shifts"),
    ("spectral.sturm_counts.narrow", "ns_per_site_shift", "site_shifts"),
    ("spectral.sturm_counts.wide", "ns_per_site_shift", "site_shifts"),
    ("spectral.green", None, None),
    ("spectral.classify_regularity", None, None),
    ("spectral.eigenpairs", None, None),
    ("spectral.eigenvalues", None, None),
    ("spectral.eigenvector", None, None),
    ("estimators.lyapunov_mc", None, None),
    ("estimators.lift_check", None, None),
    ("estimators.lde_curve", None, None),
    ("estimators.craig_simon_scan", None, None),
    ("experiments.gamma_grid", None, None),
    ("experiments.singularity_census", None, None),
    ("experiments.run_localization", None, None),
    ("experiments.persist", None, None),
    ("cli.dispatch", None, None),
)
UNIT_COUNTS = (("measures.sample_windows", "redraw_columns"),)
MODULES = ("measures", "transfer", "spectral", "estimators", "experiments", "cli")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span, normalised, _ in SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
        if normalised:
            names[f"{span}.{normalised}"] = "ns"
    for span, unit in UNIT_COUNTS:
        names[f"{span}.{unit}"] = "count"
    for module in MODULES:
        names[f"{module}.total_self_s"] = "s"
    names.update({
        "spectral.resonant_skip_frac": "frac",
        "estimators.workers2_speedup": "x",
        "cli.import_s": "s",
        "cli.import_scipy_s": "s",
        "cli.validate_s": "s",
        "cli.scenario_s": "s",
        "trace_overhead_frac": "frac",
        "trace_attributed_frac": "frac",
    })
    return names


def quantile_summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        k = n - 11  # the highest rank with ten samples above it
        out[f"p{int(100 * (k + 1) / n)}"] = ordered[k]
    else:
        out["tail"] = "no percentile has 10 samples beyond it"
    return out


def end_to_end(setups: list[float], main: dict) -> dict[str, float]:
    """Times at the reference speed (see refloop.py).  ``study_s`` is a mean
    over passes, because the machine's speed is bimodal: the mean of the
    passes cancels against the mean of the loop, their medians do not.
    ``setup_s`` stays a median, since a cold first start is an outlier."""
    attempted = main["attempted"]
    scale = main["speed_scale"]
    return {
        "setup_s": scale * statistics.median(setups),
        "study_s": scale * statistics.mean(main["pass_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "passed_frac": (attempted - main["failed"]) / attempted,
    }


def _exact_counts(per_pass: list[dict]) -> dict[str, dict]:
    """Calls and units of one traced pass, checked equal across all passes."""
    first = {
        name: {"calls": v["calls"], "raised": v["raised"], **v["units"]}
        for name, v in per_pass[0]["layers"].items()
    }
    for i, p in enumerate(per_pass[1:], start=2):
        again = {
            name: {"calls": v["calls"], "raised": v["raised"], **v["units"]}
            for name, v in p["layers"].items()
        }
        if again != first:
            changed = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
            raise RuntimeError(f"traced pass {i} counts differ from pass 1 in {changed}")
    return first


def _median_self(per_pass: list[dict], names) -> float:
    return statistics.median(
        sum(p["layers"].get(n, {}).get("self_s", 0.0) for n in names) for p in per_pass
    )


def per_layer(main: dict, imports: dict, required: tuple[str, ...]) -> dict[str, float]:
    per_pass = main["per_pass"]
    counts = _exact_counts(per_pass)
    missing = [s for s in required if counts.get(s, {}).get("calls", 0) == 0]
    if missing:
        raise RuntimeError(f"spans this workload must exercise recorded zero calls: {missing}")
    out: dict[str, float] = {}
    for span, normalised, unit in SPANS:
        c = counts.get(span, {})
        self_s = _median_self(per_pass, [span])
        out[f"{span}.calls"] = c.get("calls", 0)
        out[f"{span}.self_s"] = self_s
        if normalised:
            units = c.get(unit, 0)
            out[f"{span}.{normalised}"] = 1e9 * self_s / units if units else 0.0
    for span, unit in UNIT_COUNTS:
        out[f"{span}.{unit}"] = counts.get(span, {}).get(unit, 0)
    # the .narrow/.wide split repeats sturm_counts, so module totals skip it
    names = [n for n in counts if n.count(".") == 1]
    for module in MODULES:
        out[f"{module}.total_self_s"] = _median_self(
            per_pass, [n for n in names if n.startswith(module + ".")]
        )
    classify = counts.get("spectral.classify_regularity", {})
    out["spectral.resonant_skip_frac"] = (
        classify["raised"] / classify["calls"] if classify.get("calls") else 0.0
    )
    traced = statistics.median(p["wall_s"] for p in per_pass)
    w2 = main["workers2"]
    out["estimators.workers2_speedup"] = traced / w2 if w2 else 0.0
    out["cli.import_s"] = imports["import_s"]
    out["cli.import_scipy_s"] = imports["import_scipy_s"]
    out["cli.validate_s"] = main["validate_s"]
    out["cli.scenario_s"] = main["scenario_s"]
    out["trace_overhead_frac"] = traced / statistics.median(main["untraced"]) - 1.0
    out["trace_attributed_frac"] = statistics.median(p["attributed_frac"] for p in per_pass)
    return out


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Import cost of ``anderson_lab.cli`` and the scipy share of it, from the
    output of ``python -X importtime -c 'import anderson_lab.cli'``."""
    stack: list[tuple[int, dict]] = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, package = line[len("import time:"):].split("|")
        depth = (len(package) - len(package.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop()[1])
        stack.append((depth, {"name": package.strip(), "us": int(cumulative), "children": children}))
    roots = [node for _, node in stack]

    def scipy_us(node: dict) -> int:
        if node["name"].split(".")[0] == "scipy":
            return node["us"]
        return sum(scipy_us(c) for c in node["children"])

    ours = [r for r in roots if r["name"].split(".")[0] == "anderson_lab"]
    if not ours:
        raise RuntimeError("importtime output holds no anderson_lab import")
    return {
        "import_s": sum(r["us"] for r in ours) / 1e6,
        "import_scipy_s": sum(scipy_us(r) for r in ours) / 1e6,
    }


def top_spans(per_pass: list[dict], wall: float, limit: int = 12) -> list[tuple[str, float]]:
    """Spans with the largest median self time, as shares of the traced pass."""
    names = {n for p in per_pass for n in p["layers"] if n.count(".") == 1}
    shares = [(n, _median_self(per_pass, [n]) / wall) for n in names]
    return sorted(shares, key=lambda x: -x[1])[:limit]
