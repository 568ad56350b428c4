"""Study benchmark for anderson-lab.

Drives whole studies through ``anderson_lab.cli.dispatch``, the same path as
``anderson-lab <command> --config ...``, in one fresh Python process per
workload, and prints one JSON object as the last line of standard output.

    python3 perfbench/run.py --workload mc_tails --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics (set-up time, time per pass over
the workload's studies, peak memory, share of studies that passed their
checks).  ``--trace 1`` wraps the package's public functions from outside and
reports per-layer metrics.  ``--smoke`` runs every workload at smoke size in
both modes and checks only that every metric named in BENCHMARK.json is
emitted; it never looks at speed.  Lines before the last one start with ``#``
and carry the machine record, the computed kernel intensity and the sample
counts behind each median.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import cache_from_source
from pathlib import Path

import machine
import metrics
from workloads import WORKLOADS, Workload, scaled_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "anderson_lab"
#: fresh set-up-only processes per untraced run, started by the workload
#: process between its passes; the workload process adds one more sample
SETUP_PROBES = 6
#: distance between the seeds of one pass, when a workload runs several
SEED_STRIDE = 100003
#: every child must have ended this many seconds after start
TIME_LIMIT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def note(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, default=str)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("ANDERSON_LAB_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Run:
    """One benchmark invocation: its working directory and its children."""

    def __init__(self, workload: Workload, seed: int | None, seeds: int, smoke: bool):
        self.workload = workload
        self.started = time.perf_counter()
        work = ROOT / ".perfbench_run"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
        self.specs = 0
        (self.dir / "configs").mkdir()
        (self.dir / "out").mkdir()
        configs = []
        for study in workload.studies:
            shipped = json.loads((ROOT / "configs" / f"{study.config}.json").read_text())
            config = scaled_config(shipped, study, smoke)
            path = self.dir / "configs" / f"{study.config}.json"
            path.write_text(json.dumps(config, indent=1))
            configs.append((study, config, path))
        self.studies = []
        for j in range(seeds):
            for study, config, path in configs:
                own = config["sampling"]["seed"]
                self.studies.append({
                    "command": study.command,
                    "config_path": str(path),
                    "scenario_id": config["scenario_id"],
                    "own_seed": own,
                    "seed": (own if seed is None else seed) + j * SEED_STRIDE,
                })

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _timeout(self) -> float:
        left = self.started + TIME_LIMIT - time.perf_counter()
        if left <= 0:
            raise BenchError("out of time before starting a workload process")
        return left

    def spec(self, mode: str, **fields) -> tuple[Path, Path]:
        """Write a spec for a workload process; returns it and its result path."""
        self.specs += 1
        spec_path = self.dir / f"spec-{self.specs}.json"
        result_path = self.dir / f"result-{self.specs}.json"
        spec = {
            "mode": mode,
            "studies": self.studies,
            "out_dir": str(self.dir / "out"),
            "result_path": str(result_path),
            "workers2_pass": self.workload.workers2_pass,
            **fields,
        }
        spec_path.write_text(json.dumps(spec))
        return spec_path, result_path

    def child(self, mode: str, **fields) -> dict:
        spec_path, result_path = self.spec(mode, **fields)
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                argv + [repr(spawned)], env=child_env(), stdout=sys.stderr,
                timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"workload process ran past the time limit: {err}") from err
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"workload process ({mode}) exited with code {proc.returncode}")
        return json.loads(result_path.read_text())

    def import_times(self) -> dict:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import anderson_lab.cli"],
            env=child_env(), capture_output=True, text=True, timeout=self._timeout(),
        )
        if proc.returncode != 0:
            raise BenchError(f"importing anderson_lab.cli failed:\n{proc.stderr[-2000:]}")
        return metrics.import_times(proc.stderr)


def measure(workload: Workload, seed: int | None, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    # traced passes alternate with untraced ones, so a traced run keeps one
    # seed per pass to fit its time; its counts are per pass either way
    run = Run(workload, seed, 1 if trace else workload.seeds_per_pass, smoke)
    try:
        deadline = run.started + seconds
        if not Path(cache_from_source(str(PACKAGE / "cli.py"))).exists():
            run.child("setup")  # compile the package once, untimed
        if trace:
            imports = run.import_times()
            main = run.child("measure", trace=1, deadline=deadline)
            values = metrics.per_layer(main, imports, workload.required_spans)
            units = metrics.per_layer_names()
            note("untraced pass wall_s", metrics.quantile_summary(main["untraced"]))
            note("traced pass wall_s", metrics.quantile_summary([p["wall_s"] for p in main["per_pass"]]))
            note("workers-2 pass wall_s", main["workers2"])
            wall = statistics.median(p["wall_s"] for p in main["per_pass"])
            note("top self-time shares of a traced pass", [
                [name, round(share, 4)] for name, share in metrics.top_spans(main["per_pass"], wall)
            ])
            note("traced functions", len(main["traced_names"]))
        else:
            main = run.child(
                "measure", trace=0, deadline=deadline, setup_spec=str(run.spec("setup")[0]),
                setup_probes=0 if smoke else SETUP_PROBES,
            )
            setups = main["setup_probes"] + [main["setup_s"]]
            values = metrics.end_to_end(setups, main)
            units = metrics.END_TO_END_UNITS
            note("setup wall_s", metrics.quantile_summary(setups))
            note("pass wall_s", metrics.quantile_summary(main["pass_s"]))
            note("reference loop s", metrics.quantile_summary(main["loop_s"]))
            note("speed scale", main["speed_scale"])
    finally:
        run.close()
    note("machine", machine.machine_record())
    note("kernel intensity (computed)", machine.kernel_intensity())
    note("studies", [{k: s[k] for k in ("command", "scenario_id", "seed")} for s in run.studies])
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Every workload at smoke size, both modes: schema only, never speed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        return 1
    status = 0
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            result = measure(workload, 1, 1.0, trace, smoke=True)
            got = set(result["metrics"])
            ok = got == wanted[trace] and result["correct"]
            status |= not ok
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}"
                  f" missing={sorted(wanted[trace] - got)} extra={sorted(got - wanted[trace])}"
                  f" correct={result['correct']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="study seed, passed on as --seed (default: each config's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in (PACKAGE / "cli.py", ROOT / "configs") if not p.exists()]
    if missing:
        print(f"error: not an anderson-lab checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
