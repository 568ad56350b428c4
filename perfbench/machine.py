"""Machine record and computed kernel intensity.

The intensity figures are *computed* from the kernels' source, dtypes and
array shapes, not measured: each numpy ufunc call in a kernel's per-site step
streams whole arrays of ``lanes`` elements, so the bytes it moves per
site-lane are its operand and result item sizes.  Cache misses are ignored.
"""
from __future__ import annotations

import importlib.metadata
import os
import platform
import re
import shutil
import subprocess

F8 = 8  # float64 / int64 item size
B1 = 1  # bool item size

#: per site step and lane: (step, ufunc calls, elementwise ops, bytes read, bytes written)
KERNEL_STEPS = {
    "transfer.matrix_batch": (
        ("d = e - windows[:, k]", 1, 1, F8, F8),
        ("t00 = d*s00 - s10", 2, 2, 4 * F8, 2 * F8),
        ("t01 = d*s01 - s11", 2, 2, 4 * F8, 2 * F8),
        ("peak = |s00|", 1, 1, F8, F8),
        ("peak = max(peak, |s01|, |s10|, |s11|)", 6, 6, 9 * F8, 6 * F8),
        ("inv = 1/peak", 1, 1, F8, F8),
        ("s.. *= inv (4 entries)", 4, 4, 8 * F8, 4 * F8),
        ("log_scale += log(peak)", 2, 2, 3 * F8, 2 * F8),
    ),
    "transfer.vector_growth_logs": (
        ("d = energy - windows[:, k]", 1, 1, F8, F8),
        ("x, y = d*x - y, x", 2, 2, 4 * F8, 2 * F8),
        ("peak = max(|x|, |y|)", 3, 3, 4 * F8, 3 * F8),
        ("inv = 1/peak", 1, 1, F8, F8),
        ("x *= inv; y *= inv", 2, 2, 4 * F8, 2 * F8),
        ("acc += log(peak)", 2, 2, 3 * F8, 2 * F8),
    ),
    "spectral.sturm_counts": (
        ("q = (v - shifts) - 1/q", 3, 3, 4 * F8, 3 * F8),
        ("mask = |q| < pivmin", 2, 2, 2 * F8, F8 + B1),
        ("copyto(q, -pivmin, where=mask)", 1, 0, B1, F8),
        ("count += q < 0", 2, 2, 2 * F8 + B1, F8 + B1),
    ),
}

#: one mc_tails batch: estimators.BATCH_SIZE lanes of the longest lift_bumps
#: window, [-400, 400]
MC_BATCH_LANES = 4096
MC_MAX_WINDOW = 801


def kernel_intensity() -> dict:
    out = {}
    for name, steps in KERNEL_STEPS.items():
        ops = sum(s[2] for s in steps)
        moved = sum(s[3] + s[4] for s in steps)
        out[name] = {
            "ufunc_calls_per_site": sum(s[1] for s in steps),
            "ops_per_site_lane": ops,
            "bytes_per_site_lane": moved,
            "ops_per_byte": round(ops / moved, 4),
            "source": "computed",
        }
    return out


def _lscpu() -> dict:
    if shutil.which("lscpu") is None:
        return {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _bytes(size: str) -> int | None:
    match = re.match(r"([\d.]+)\s*([KMG]i?B)", size)
    if not match:
        return None
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}[match.group(2)[0]]
    return int(float(match.group(1)) * scale)


def machine_record() -> dict:
    cpu = _lscpu()
    caches = {k: cpu[k] for k in ("L1d cache", "L2 cache", "L3 cache") if k in cpu}
    working_set = MC_BATCH_LANES * MC_MAX_WINDOW * F8
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", platform.processor()),
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "mc_batch_working_set": {
            "bytes": working_set,
            "shape": [MC_BATCH_LANES, MC_MAX_WINDOW],
            "dtype": "float64",
            "vs_cache": {
                k: round(working_set / b, 2)
                for k, v in caches.items()
                if (b := _bytes(v))
            },
        },
    }
