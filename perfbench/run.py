"""lindgap's benchmark: CLI workloads, per-command latency, traced layer timings.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a checkout.  The seed draws the model parameters and
is passed on as the CLI --seed; the program receives only the generated
spec files.  The run measures the set-up cost in fresh interpreters, then
starts worker.py, which runs rounds for about S seconds and checks every
call against reference values.  A round is one pass over the workload's
command list on each drawn model; `pass_s` is the median pass.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of BENCHMARK.json.  --smoke runs the same code path on tiny models.  Every
run writes a results file stamped with its environment to perfbench/out/.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from workloads import WORKLOADS, model_params, write_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# One BLAS thread: on a 2-CPU machine shared with other tenants, two threads
# made validate about twice as slow (10-11 s against 5-6 s) and less steady.
BLAS_THREADS = 1
# Set-up samples taken before and after the worker: the machine's speed
# drifts over tens of seconds, and two sampling points halve its effect.
SETUP_REPEATS = (4, 3)
WORKER_TIMEOUT_S = 150
# What a user pays before any command does work: a fresh interpreter that
# imports the CLI and loads and builds the spec.
SETUP_CODE = ("import sys, lindgap.cli; from lindgap.modelspec import "
              "build_model, load_spec; build_model(load_spec(sys.argv[1]))")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _time_runs(argv: list[str], env: dict, n: int) -> list[float]:
    """Wall seconds of n runs of a command, each in a fresh process."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def _pass_seconds(rounds: list[dict]) -> list[float]:
    """Seconds of each pass: the command list on one drawn model."""
    totals = Counter()
    for i, r in enumerate(rounds):
        for c in r["calls"]:
            totals[i, c["draw"]] += c["seconds"]
    return list(totals.values())


def _end_to_end(setup: list[float], result: dict) -> dict:
    return {"setup_s": statistics.median(setup),
            "pass_s": statistics.median(_pass_seconds(result["rounds"])),
            "peak_rss_mb": result["peak_rss_mb"]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(result: dict, names: list[str]) -> dict:
    """Per-layer metrics of one traced run, per traced round.

    `<span>.calls` and `<span>.self_s` come from the spans of tracing.py;
    `cli.<command>.frames|superops` are per call of that command.
    """
    traced = result["traced_rounds"]
    t0 = traced[0]["trace"]
    calls, per_command, distinct = t0["calls"], t0["per_command"], t0["distinct"]
    command_calls = Counter(c["command"] for c in traced[0]["calls"])
    special = {
        "operators.frame_distinct_ratio": _ratio(
            distinct.get("frames", 0), calls.get("operators.KmsFrame", 0)),
        "lindblad.generator_matrix_distinct_ratio": _ratio(
            distinct.get("generators", 0), calls.get("lindblad.generator_matrix", 0)),
        "cli.report_bytes": traced[0]["report_bytes"],
        "trace.overhead_s": statistics.median(_pass_seconds(traced))
        - statistics.median(_pass_seconds(result["rounds"])),
        "trace.span_coverage": statistics.median(
            (p["trace"]["total_s"]["cli.main"] - p["trace"]["self_s"]["cli.main"])
            / p["seconds"] for p in traced),
    }

    def value(name: str) -> float:
        if name in special:
            return special[name]
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            return calls.get(span, 0)
        if kind == "self_s":
            return statistics.median(p["trace"]["self_s"].get(span, 0.0)
                                     for p in traced)
        command = span.split(".", 1)[1]  # cli.<command>.frames|superops
        return _ratio(per_command.get(f"{command}/{kind}", 0), command_calls[command])

    return {name: value(name) for name in names}


def _counts_repeat(result: dict) -> bool:
    keys = ("calls", "per_command", "distinct")
    first = [result["traced_rounds"][0]["trace"][k] for k in keys]
    return all([p["trace"][k] for k in keys] == first
               for p in result["traced_rounds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny models (tfim n=2, Haar N=4), for a self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lindgap", "cli.py")):
        print(f"run.py: no lindgap sources under {ROOT}/src", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        size = wl.smoke_size if args.smoke else wl.size
        models = [{"spec": os.path.join(workdir, f"model-{d}.json"),
                   "params": model_params(wl.model, size, args.seed, d)}
                  for d in range(wl.draws)]
        smoke = {"spec": os.path.join(workdir, "smoke.json"),
                 "params": model_params(wl.model, wl.smoke_size, args.seed)}
        for m in models + [smoke]:
            write_spec(m["spec"], wl.model, m["params"])
        plan = {"model": wl.model, "commands": wl.commands, "models": models,
                "smoke": smoke, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workdir": workdir}
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        env = _child_env()
        setup_argv = [sys.executable, "-c", SETUP_CODE, models[0]["spec"]]
        setup = _time_runs(setup_argv, env, SETUP_REPEATS[0])
        result_path = os.path.join(workdir, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        plan_path, result_path], env=env, cwd=ROOT, check=True,
                       timeout=WORKER_TIMEOUT_S)
        setup += _time_runs(setup_argv, env, SETUP_REPEATS[1])
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [c for p in result["rounds"] + result["traced_rounds"] for c in p["calls"]]
    checked = result["warmup"]["calls"] + timed
    problems = [msg for c in checked for msg in c["problems"]]
    failed = sum(1 for c in checked if c["problems"])
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        metrics = _per_layer(result, list(units))
    else:
        metrics = _end_to_end(setup, result)

    per_command = {}
    for command in wl.commands:
        per_command[command] = _quartiles([c["seconds"] for p in result["rounds"]
                                           for c in p["calls"]
                                           if c["command"] == command])
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "model": wl.model,
        "params": [m["params"] for m in models], "commands": list(wl.commands),
        "environment": dict(result["environment"], nproc=os.cpu_count(),
                            cpus_allowed=len(os.sched_getaffinity(0)),
                            cpu_model=_cpu_model(), blas_threads=BLAS_THREADS,
                            loop="closed, one client"),
        "metrics": metrics, "setup_samples_s": setup,
        "pass_s": _quartiles(_pass_seconds(result["rounds"])),
        "command_s": per_command,
        "attempted": len(checked), "failed": failed,
        "fail_frac": failed / len(checked), "problems": problems,
        "reference": result["reference"],
    }
    if args.trace:
        record["counts_repeat"] = _counts_repeat(result)
        record["spans"] = result["traced_rounds"][0]["trace"]
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for command, q in per_command.items():
        print(f"{command:>10}  median {q['median']:.3f} s  "
              f"q1 {q['q1']:.3f}  q3 {q['q3']:.3f}  n={q['n']}")
    for msg in problems:
        print(f"FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checked),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
