"""Timed rounds of one workload in a fresh process: `python3 worker.py PLAN RESULT`.

PLAN is a JSON file written by run.py.  The worker computes the reference
values, warms up on the smoke-size model, then runs rounds: one pass over
the workload's command list on each drawn model, through `lindgap.cli.main`,
one call after another (closed loop, one client), checking every call's
reports.  With tracing on, untraced and traced rounds alternate.  Everything
it measures goes to the RESULT JSON file.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import traceback
from time import perf_counter

from checks import check_call, reference
from tracing import Tracer
from workloads import command_argv


def _environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def run_round(cli, plan: dict, models: list, out: str) -> dict:
    """The command list on each (spec, reference) model; only cli.main is timed."""
    shutil.rmtree(out, ignore_errors=True)
    calls = []
    for draw, (spec, ref) in enumerate(models):
        draw_out = os.path.join(out, str(draw))
        os.makedirs(draw_out)
        for command in plan["commands"]:
            argv = command_argv(command, spec, draw_out, plan["seed"])
            error = None
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed call, not a failed benchmark
                rc, error = None, traceback.format_exc(limit=3)
            seconds = perf_counter() - t0
            if rc == 0:
                try:
                    problems = check_call(command, plan["model"], draw_out, ref)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    problems = [f"{command}: unreadable report: {exc!r}"]
            else:
                problems = [f"{command}: exit code {rc}"
                            + (f"\n{error}" if error else "")]
            call = {"command": command, "draw": draw, "seconds": seconds,
                    "exit": rc, "problems": problems}
            calls.append(call)
    report_bytes = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, files in os.walk(out) for f in files)
    return {"seconds": sum(c["seconds"] for c in calls), "calls": calls,
            "report_bytes": report_bytes}


def _snapshot(tracer: Tracer) -> dict:
    return {"calls": dict(tracer.calls), "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s),
            "per_command": {f"{c}/{w}": n for (c, w), n in tracer.per_command.items()},
            "distinct": dict(tracer.distinct)}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import lindgap.cli as cli

    env = _environment()
    models = [(m["spec"], reference(plan["model"], m["params"], m["spec"]))
              for m in plan["models"]]
    s = plan["smoke"]
    smoke = [(s["spec"], reference(plan["model"], s["params"], s["spec"]))]
    out = os.path.join(plan["workdir"], "out")
    warmup = run_round(cli, plan, smoke, out)

    tracer = Tracer() if plan["trace"] else None
    rounds, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(cli, plan, models, out))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                p = run_round(cli, plan, models, out)
            finally:
                tracer.uninstall()
            p["trace"] = _snapshot(tracer)
            traced.append(p)
        step = perf_counter() - t0
        # Start another step only if it is expected to end within half a
        # step of the deadline, so a run lasts about `seconds`.
        if perf_counter() - start + step / 2 > plan["seconds"]:
            break

    result = {"environment": env, "reference": [ref for _, ref in models],
              "warmup": warmup, "rounds": rounds, "traced_rounds": traced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
