"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure14 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics; both names and units come from
``BENCHMARK.json``.  Human-readable report lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported
from ``src/`` of the same checkout; without it the run exits 2 and
prints no result.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figure14", "montecarlo", "service")
#: Fresh child processes that repeat the set-up; ``setup_s`` is the
#: median of their reference-speed set-up times.
SETUP_SAMPLES = 3
#: Units of the report-only figures a workload may describe.
FIGURE_UNITS = {"op_p50_host_s": "s", "op_p90_s": "s",
                "sim_instr_per_s": "1/s", "sim_instr_per_host_s": "1/s",
                "lanes_per_s": "1/s", "lanes_per_host_s": "1/s",
                "goodput_per_s": "1/s", "host_factor_median": "ratio",
                "loadgen_lag_p90_s": "s", "loadgen_backlog": "count"}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload(args, workdir):
    if args.workload == "figure14":
        from perfbench.figure14 import Figure14 as cls
    elif args.workload == "montecarlo":
        from perfbench.montecarlo import MonteCarlo as cls
    else:
        from perfbench.service import Service as cls
    return cls(args.seed, args.seconds, bool(args.trace), workdir)


def _metric(value, unit):
    # JSON has no NaN: a metric nothing measured reads 0.
    value = float(value)
    return {"value": value if math.isfinite(value) else 0.0, "unit": unit}


def main(argv=None):
    args = _parse(argv)
    # The checkout's own sources, never an installed copy.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import host

    cleared = host.clear_repro_env()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} has no src/repro or BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workdir = ROOT / ".perfbench"

    workload = _workload(args, workdir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(f"{host.SETUP_MARKER} {setup_s!r}", flush=True)
            return 0
        return _run(args, spec, workload, setup_s, cleared, workdir)
    finally:
        workload.close()


def _run(args, spec, workload, setup_s, cleared, workdir):
    from perfbench import host, stats

    env = host.environment(ROOT, args.seed, cleared)
    setups = []
    if not args.trace:
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds)]
        setups = host.child_setups(Path(__file__).resolve(), child_args,
                                   SETUP_SAMPLES, workload.probe)
    calib_start = workload.probe.calibrate()
    workload.measure()
    calib_end = workload.probe.calibrate()
    workload.verify()
    attempted = workload.attempted()
    ok = workload.ok()
    checked = list(workload.outcomes) + list(workload.traced_outcomes)
    correct = attempted >= 1 and all(o.finished and o.ok for o in checked)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("setup_s " + json.dumps(
        {"this_process_host": setup_s,
         "children_host": [host_s for host_s, _ in setups],
         "children_reference": [ref_s for _, ref_s in setups]}))
    print("calibration_s " + json.dumps(
        {"start": {"py": calib_start[0], "np": calib_start[1]},
         "end": {"py": calib_end[0], "np": calib_end[1]}}))
    report = dict(workload.report)
    report["ops"] = attempted
    report["ops_ok"] = ok
    report["work_unit"] = workload.work_unit
    report.update(workload.describe())
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, unit in FIGURE_UNITS.items():
        if report.get(name) is not None:
            print(f"figure {name} {report[name]!r} {unit}")

    if args.trace:
        layers = workload.layer_metrics()
        layers["host.calib_py_s"] = stats.median([calib_start[0],
                                                 calib_end[0]])
        layers["host.calib_np_s"] = stats.median([calib_start[1],
                                                 calib_end[1]])
        layers["trace.overhead_s"] = workload.tracing_overhead_s()
        metrics = {m["name"]: _metric(layers.get(m["name"], 0.0), m["unit"])
                   for m in spec["per_layer"]}
        workload.tracer.write(
            workdir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "setup_s": stats.median([ref_s for _, ref_s in setups]),
            "op_p50_s": workload.op_p50_s(),
            "work_per_s": workload.work_per_s(),
            "peak_rss_mb": host.peak_rss_mb(),
            "ok_ratio": ok / attempted if attempted else 0.0,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
