"""Measured passes inside one workload process, with per-study checks.

A study passes only if the CLI exits with code 0 (run with ``--assert`` when
the seed is the config's own), the CSV header equals ``cli.COLUMNS[command]``,
and the CSV bytes equal those of the first untraced pass of the same seed in
this process: repeats, traced passes and the ``--workers 2`` pass must all
reproduce them.  No golden files are used.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refloop import NOMINAL_S, reference_s
from tracer import Tracer, self_times

CHILD = Path(__file__).with_name("child.py")
TRACED_MODULES = ("measures", "transfer", "spectral", "estimators", "experiments", "cli")
MIN_PASSES = 2


class Checker:
    def __init__(self, cli, studies: list[dict], out_dir: str):
        self.cli = cli
        self.studies = studies
        self.out_dir = Path(out_dir)
        self.digests: dict[int, str] = {}
        self.loop_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_study(self, index: int, workers: int | None, label: str) -> float:
        """Run one study through the CLI and check it; returns its wall time."""
        study = self.studies[index]
        csv_path = self.out_dir / f"{study['scenario_id']}.csv"
        csv_path.unlink(missing_ok=True)
        argv = [study["command"], "--config", study["config_path"],
                "--seed", str(study["seed"]), "--out", str(self.out_dir)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        if study["seed"] == study["own_seed"]:
            argv.append("--assert")
        self.attempted += 1
        log = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(log):
                code = self.cli.dispatch(argv)
        except Exception:
            self.failures.append(f"{label} {study['command']}: raised\n{traceback.format_exc()}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        problems = []
        if code != 0:
            problems.append(f"exit code {int(code)}")
        data = csv_path.read_bytes() if csv_path.exists() else b""
        header = data.split(b"\n", 1)[0].decode()
        if header != ",".join(self.cli.COLUMNS[study["command"]]):
            problems.append(f"CSV header {header!r} differs from cli.COLUMNS")
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.digests.setdefault(index, digest):
            problems.append("CSV bytes differ from the first untraced pass of this seed")
        if problems:
            self.failures.append(
                f"{label} {study['command']}: {'; '.join(problems)}\n{log.getvalue()}"
            )
        return wall

    def run_pass(self, workers: int | None = None, label: str = "pass") -> float:
        """One pass over the study list; returns its wall time.  The
        reference loop is timed after each study, outside the study's time."""
        wall = 0.0
        for i in range(len(self.studies)):
            wall += self.run_study(i, workers, label)
            self.loop_s.append(reference_s())
        return wall


def _setup_probe(setup_spec: str) -> float:
    """``setup_s`` of one fresh set-up-only interpreter."""
    with open(setup_spec) as fh:
        result_path = json.load(fh)["result_path"]
    spawned = time.perf_counter()
    subprocess.run([sys.executable, str(CHILD), setup_spec, repr(spawned)], check=True, timeout=60)
    with open(result_path) as fh:
        return json.load(fh)["setup_s"]


def _closed_loop(checker: Checker, until: float, setup_spec: str, probes: int) -> tuple[list, list]:
    """Closed loop: start another pass while one more is expected to fit.

    Set-up probes are spread evenly over the run, between passes, so that
    their median does not rest on one vCPU speed phase.
    """
    passes: list[float] = []
    took: list[float] = []
    setups: list[float] = []
    start = time.perf_counter()
    spacing = (until - start) / (probes + 1)
    probe_s = 0.5

    def fits() -> bool:
        left = probe_s * (probes - len(setups))
        return time.perf_counter() + statistics.median(took) + left <= until

    while len(passes) < MIN_PASSES or fits():
        t0 = time.perf_counter()
        passes.append(checker.run_pass())
        took.append(time.perf_counter() - t0)
        while len(setups) < probes and time.perf_counter() >= start + spacing * (len(setups) + 1):
            t0 = time.perf_counter()
            setups.append(_setup_probe(setup_spec))
            probe_s = time.perf_counter() - t0
    while len(setups) < probes:
        setups.append(_setup_probe(setup_spec))
    return passes, setups


def _layer_stats(spans, wall: float) -> dict:
    """Per-name calls, self time and summed units for one pass."""
    selfs = self_times(spans)
    negative = sorted({s.name for s in spans if selfs[s.sid] < -1e-9})
    if negative:
        raise RuntimeError(f"negative self time in spans {negative}")
    layers: dict[str, dict] = {}
    for s in spans:
        keys = [s.name]
        if s.name == "spectral.sturm_counts":
            keys.append(s.name + (".narrow" if s.units["narrow"] else ".wide"))
        for key in keys:
            entry = layers.setdefault(key, {"calls": 0, "self_s": 0.0, "raised": 0, "units": {}})
            entry["calls"] += 1
            entry["self_s"] += selfs[s.sid]
            entry["raised"] += s.raised is not None
            for unit, value in (s.units or {}).items():
                entry["units"][unit] = entry["units"].get(unit, 0) + value
    attributed = sum(selfs[s.sid] for s in spans if s.name != "cli.dispatch")
    return {"wall_s": wall, "layers": layers, "attributed_frac": attributed / wall}


def _traced(spec: dict, checker: Checker, until: float) -> dict:
    """Untraced and traced passes alternate, so that both sample the same
    machine conditions; the untraced ones are the base of the tracing
    overhead.  Then, if the workload asks, one traced pass at --workers 2."""
    tracer = Tracer("anderson_lab", TRACED_MODULES)

    def traced_pass(workers: int | None, label: str) -> dict:
        tracer.install()
        try:
            wall = checker.run_pass(workers, label)
        finally:
            tracer.restore()
        return _layer_stats(tracer.take(), wall)  # raises on negative self time

    untraced: list[float] = []
    per_pass: list[dict] = []
    took: list[float] = []
    # the time of one more pair, plus about one pass for the workers-2 pass
    headroom = 1.5 if spec["workers2_pass"] else 1.0
    while len(per_pass) < MIN_PASSES or time.perf_counter() + headroom * statistics.median(took) <= until:
        t0 = time.perf_counter()
        untraced.append(checker.run_pass(None, "pass"))
        per_pass.append(traced_pass(None, "traced pass"))
        took.append(time.perf_counter() - t0)
    workers2 = traced_pass(2, "workers-2 pass")["wall_s"] if spec["workers2_pass"] else None
    return {
        "untraced": untraced,
        "per_pass": per_pass,
        "workers2": workers2,
        "traced_names": tracer.names,
    }


def run(spec: dict, cli) -> dict:
    checker = Checker(cli, spec["studies"], spec["out_dir"])
    until = spec["deadline"]
    if spec["trace"]:
        result = _traced(spec, checker, until)
    else:
        passes, setups = _closed_loop(checker, until, spec["setup_spec"], spec["setup_probes"])
        result = {
            "pass_s": passes,
            "setup_probes": setups,
            "loop_s": checker.loop_s,
            "speed_scale": NOMINAL_S / statistics.mean(checker.loop_s),
        }
    for failure in checker.failures:
        print(f"study failed: {failure}", file=sys.stderr)
    result.update(
        attempted=checker.attempted,
        failed=len(checker.failures),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result
