"""One fresh workload process: set up every study, then (unless the spec says
set-up only) run the measured passes.

Usage: python3 child.py <spec.json> <spawn time>

The spawn time is the parent's ``time.perf_counter()`` just before it started
this interpreter; on Linux that clock is system-wide, so ``setup_s`` below
runs from the start of a fresh interpreter until every study has a validated
``Scenario``.  Only modules the set-up itself needs are imported before that
point; the pass loop lives in ``passes`` and is imported afterwards.
"""
import json
import sys
import time


def main() -> int:
    spec_path, spawned = sys.argv[1], float(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    from anderson_lab import cli

    t_import = time.perf_counter()
    validate_s = scenario_s = 0.0
    for study in spec["studies"]:
        a = time.perf_counter()
        with open(study["config_path"]) as fh:
            config = json.load(fh)
        violations = cli.validate(config, command_kind=study["command"].replace("-", "_"))
        b = time.perf_counter()
        if violations:
            print(f"invalid benchmark config {study['config_path']}: {violations}", file=sys.stderr)
            return 1
        cli.scenario_from_config(config, seed=study["seed"])
        c = time.perf_counter()
        validate_s += b - a
        scenario_s += c - b
    ready = time.perf_counter()
    result = {
        "setup_s": ready - spawned,
        "import_s": t_import - t0,
        "validate_s": validate_s,
        "scenario_s": scenario_s,
    }
    if spec["mode"] != "setup":
        import passes

        result.update(passes.run(spec, cli))
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
