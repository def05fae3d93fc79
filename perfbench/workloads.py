"""Workload definitions and seeded model specs (standard library only)."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SCHEMA = "lindgap-model/1"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str          # "tfim" or "haar_gibbs"
    size: int           # tfim: qubits n; haar_gibbs: number of levels N
    smoke_size: int     # same model at a size that runs in well under a second
    commands: tuple[str, ...]
    draws: int = 1      # models drawn per seed; a pass runs the commands on each


WORKLOADS = {w.name: w for w in (
    # `validate` is left out: with default flags it exits 3 (quadrature
    # flag) on the draws with gamma/h above about 1.15, a third of the
    # range.  A pass over three draws averages the parameter-dependent cost.
    Workload("tfim16-certify", "tfim", 4, 2, ("certify", "stp", "gap"),
             draws=3),
    Workload("tfim16-structure", "tfim", 4, 2, ("structure",)),
    Workload("haar12-coercive", "haar_gibbs", 12, 4, ("structure", "gap", "stp")),
)}


def model_params(model: str, size: int, seed: int, draw: int = 0) -> dict:
    """Model parameters drawn from the seed; `draw` numbers the models of a seed.

    tfim: h and gamma uniform in [0.75, 1.25].  haar_gibbs: `size` distinct
    levels from the grid {0, 0.01, ..., 2} and beta = 1.
    """
    rng = random.Random(f"{model}-{size}-{seed}-{draw}")
    if model == "tfim":
        return {"n": size, "h": 0.75 + 0.5 * rng.random(),
                "gamma": 0.75 + 0.5 * rng.random()}
    if model == "haar_gibbs":
        levels = sorted(rng.sample(range(201), size))
        return {"spectrum": [v / 100.0 for v in levels], "beta": 1.0}
    raise ValueError(f"unknown model {model!r}")


def write_spec(path: str, model: str, params: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "model": model, "params": params}, fh,
                  sort_keys=True, indent=2)


def command_argv(command: str, spec: str, out: str, seed: int) -> list[str]:
    """The CLI call for one command, with default flags."""
    return [command, "--spec", spec, "--out", out, "--seed", str(seed)]
