"""JSON model specifications for the command-line tools.

A spec file is a JSON object with "schema": "lindgap-model/1" and either an
explicit generator (dim/qubits, hamiltonian, jumps, sigma) or a named model
with parameters.  Matrix entries are numbers or [re, im] pairs.  Parse
failures raise SpecError naming the offending field; a failed eigensolve
while a model is built stays a LinAlgError.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import models
from .lindblad import Lindbladian, build_gksl
from .operators import QuantumState, require_hermitian

SCHEMA = "lindgap-model/1"

NAMED_MODELS = ("single_jump", "dephasing_walk", "tfim", "graph",
                "birth_death", "haar_gibbs", "lift")


class SpecError(ValueError):
    """Malformed model specification; `field` names the bad entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@contextmanager
def _naming(field: str):
    """Turn a ValueError raised inside into a SpecError naming `field`; a
    SpecError and a failed eigensolve (LinAlgError) pass through."""
    try:
        yield
    except (SpecError, np.linalg.LinAlgError):
        raise
    except ValueError as exc:
        raise SpecError(field, str(exc)) from exc


def load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError("<file>", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SpecError("<file>", f"invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(spec, dict):
        raise SpecError("<root>", "spec must be a JSON object")
    return spec


def model_hash(spec: dict) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require(spec: dict, key: str, field: str | None = None):
    if key not in spec:
        raise SpecError(field or key, "missing required field")
    return spec[key]


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(field, f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise SpecError(field, "expected a finite number")
    return float(value)


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(field, f"expected an integer, got {type(value).__name__}")
    return value


def _entry(value, field: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, field))
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(_number(value[0], field), _number(value[1], field))
    raise SpecError(field, "matrix entries must be numbers or [re, im] pairs")


def parse_matrix(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SpecError(field, "expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecError(f"{field}[{i}]", "expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SpecError(f"{field}[{i}]", f"row length {len(row)} != {width}")
        rows.append([_entry(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_sigma(obj, field: str, dim: int, H: np.ndarray | None) -> QuantumState:
    if not isinstance(obj, dict):
        raise SpecError(field, "expected an object with a 'type' key")
    kind = obj.get("type")
    if kind == "maximally_mixed":
        return QuantumState.maximally_mixed(dim)
    if kind == "eigenvalues":
        values = obj.get("values")
        if not isinstance(values, list) or len(values) != dim:
            raise SpecError(f"{field}.values", f"expected {dim} eigenvalues")
        vals = [_number(v, f"{field}.values[{i}]") for i, v in enumerate(values)]
        basis = None
        if "basis" in obj:
            basis = parse_matrix(obj["basis"], f"{field}.basis")
        with _naming(field):
            return QuantumState.from_eigenvalues(vals, basis=basis)
    if kind == "gibbs":
        beta = _number(_require(obj, "beta", f"{field}.beta"), f"{field}.beta")
        if H is None:
            raise SpecError(field, "gibbs state needs a hamiltonian in the spec")
        with _naming(field):
            return QuantumState.gibbs(H, beta)
    raise SpecError(f"{field}.type",
                    "expected one of maximally_mixed/eigenvalues/gibbs")


@dataclass
class ModelBundle:
    name: str
    lind: Lindbladian
    state: QuantumState
    hash: str
    detail: object | None = None


def _build_explicit(spec: dict) -> tuple[str, Lindbladian, QuantumState, object]:
    if "dim" in spec and "qubits" in spec:
        raise SpecError("dim", "give either dim or qubits, not both")
    if "dim" in spec:
        dim = _integer(spec["dim"], "dim")
    elif "qubits" in spec:
        dim = 2 ** _integer(spec["qubits"], "qubits")
    else:
        raise SpecError("dim", "missing required field (dim or qubits)")
    if dim < 2:
        raise SpecError("dim", "dimension must be at least 2")
    H = None
    if "hamiltonian" in spec and spec["hamiltonian"] is not None:
        H = parse_matrix(spec["hamiltonian"], "hamiltonian")
        if H.shape != (dim, dim):
            raise SpecError("hamiltonian", f"expected shape {(dim, dim)}")
        with _naming("hamiltonian"):
            H = require_hermitian(H, what="H")
    jumps = []
    raw_jumps = spec.get("jumps", [])
    if not isinstance(raw_jumps, list):
        raise SpecError("jumps", "expected a list")
    for i, item in enumerate(raw_jumps):
        if not isinstance(item, dict):
            raise SpecError(f"jumps[{i}]", "expected an object")
        w = _number(_require(item, "weight", f"jumps[{i}].weight"),
                    f"jumps[{i}].weight")
        if w <= 0:
            raise SpecError(f"jumps[{i}].weight", "weight must be positive")
        M = parse_matrix(_require(item, "matrix", f"jumps[{i}].matrix"),
                         f"jumps[{i}].matrix")
        if M.shape != (dim, dim):
            raise SpecError(f"jumps[{i}].matrix", f"expected shape {(dim, dim)}")
        jumps.append((w, M))
    alpha = _number(spec.get("alpha", 1.0), "alpha")
    state = _parse_sigma(_require(spec, "sigma"), "sigma", dim, H)
    if H is None:
        H = np.zeros((dim, dim))
    return "explicit", build_gksl(H, jumps, alpha=alpha), state, None


def _graph_from_params(params: dict, prefix: str) -> models.GraphModel:
    n = _integer(_require(params, "n_vertices", f"{prefix}.n_vertices"),
                 f"{prefix}.n_vertices")
    raw_edges = _require(params, "edges", f"{prefix}.edges")
    if not isinstance(raw_edges, list):
        raise SpecError(f"{prefix}.edges", "expected a list of [r, s] pairs")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, list) or len(e) != 2:
            raise SpecError(f"{prefix}.edges[{i}]", "expected a [r, s] pair")
        edges.append((_integer(e[0], f"{prefix}.edges[{i}][0]"),
                      _integer(e[1], f"{prefix}.edges[{i}][1]")))
    weights = {}
    if "weights" in params and params["weights"] is not None:
        raw_w = params["weights"]
        if not isinstance(raw_w, list) or len(raw_w) != len(edges):
            raise SpecError(f"{prefix}.weights",
                            "expected one weight per edge")
        for i, w in enumerate(raw_w):
            weights[edges[i]] = _number(w, f"{prefix}.weights[{i}]")
    raw_sigma = _require(params, "sigma", f"{prefix}.sigma")
    if not isinstance(raw_sigma, list) or len(raw_sigma) != n:
        raise SpecError(f"{prefix}.sigma",
                        f"expected {n} diagonal stationary weights")
    mu = np.array([_number(v, f"{prefix}.sigma[{i}]")
                   for i, v in enumerate(raw_sigma)])
    if np.any(mu <= 0):
        raise SpecError(f"{prefix}.sigma", "stationary weights must be positive")
    with _naming(prefix):
        spec_obj = models.GraphSpec(n_vertices=n, edges=edges, weights=weights)
        state = QuantumState(np.diag(mu / mu.sum()))
        return models.graph_lindblad(spec_obj, state)


def _build_named(spec: dict) -> tuple[str, Lindbladian, QuantumState, object]:
    name = spec["model"]
    if name not in NAMED_MODELS:
        raise SpecError("model", f"unknown model '{name}'; "
                                 f"expected one of {', '.join(NAMED_MODELS)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("params", "expected an object")
    with _naming("params"):
        if name == "single_jump":
            A = parse_matrix(_require(params, "A", "params.A"), "params.A")
            H = parse_matrix(_require(params, "H", "params.H"), "params.H")
            m = models.single_jump_model(A, H)
            return name, m.lind, m.state, m
        if name == "dephasing_walk":
            n = _integer(_require(params, "n", "params.n"), "params.n")
            gamma = _number(_require(params, "gamma", "params.gamma"),
                            "params.gamma")
            graph = params.get("graph", "cycle")
            if graph == "cycle":
                adj = models.cycle_graph(2**n)
            elif graph == "hypercube":
                adj = models.hypercube_graph(n)
            elif isinstance(graph, list):
                adj = parse_matrix(graph, "params.graph").real
            else:
                raise SpecError("params.graph",
                                "expected 'cycle', 'hypercube', or a matrix")
            m = models.dephasing_walk(n, gamma, adj)
            return name, m.lind, m.state, m
        if name == "tfim":
            n = _integer(_require(params, "n", "params.n"), "params.n")
            h = _number(_require(params, "h", "params.h"), "params.h")
            gamma = _number(_require(params, "gamma", "params.gamma"),
                            "params.gamma")
            m = models.tfim(n, h, gamma)
            return name, m.lind, m.state, m
        if name == "graph":
            gm = _graph_from_params(params, "params")
            lind = gm.lind
            if "hamiltonian" in params and params["hamiltonian"] is not None:
                H = parse_matrix(params["hamiltonian"], "params.hamiltonian")
                if H.shape != (gm.state.dim, gm.state.dim):
                    raise SpecError("params.hamiltonian",
                                    f"expected shape {(gm.state.dim,) * 2}")
                alpha = _number(params.get("alpha", 1.0), "params.alpha")
                with _naming("params.hamiltonian"):
                    lind = build_gksl(H, gm.lind.jumps, alpha=alpha)
            return name, lind, gm.state, gm
        if name == "birth_death":
            sizes = _require(params, "sizes", "params.sizes")
            if not isinstance(sizes, list) or not sizes:
                raise SpecError("params.sizes", "expected a list of chain sizes")
            sizes = [_integer(v, f"params.sizes[{i}]")
                     for i, v in enumerate(sizes)]
            beta = _number(_require(params, "beta", "params.beta"), "params.beta")
            m = models.birth_death_spectrum(sizes, beta)
            return name, m.model.lind, m.model.state, m
        if name == "haar_gibbs":
            raw = _require(params, "spectrum", "params.spectrum")
            if not isinstance(raw, list):
                raise SpecError("params.spectrum", "expected a list of levels")
            levels = [_number(v, f"params.spectrum[{i}]")
                      for i, v in enumerate(raw)]
            beta = _number(_require(params, "beta", "params.beta"), "params.beta")
            m = models.haar_avg_gibbs(levels, beta)
            return name, m.lind, m.state, m
        if name == "lift":
            base_params = _require(params, "base", "params.base")
            if not isinstance(base_params, dict):
                raise SpecError("params.base", "expected a graph object")
            base = _graph_from_params(base_params, "params.base")
            A = parse_matrix(_require(params, "A", "params.A"), "params.A")
            m = models.lift_model(base, A)
            return name, m.lind, m.state, m
    raise SpecError("model", f"unhandled model '{name}'")


def build_model(spec: dict) -> ModelBundle:
    schema = spec.get("schema")
    if schema != SCHEMA:
        raise SpecError("schema", f"expected '{SCHEMA}', got {schema!r}")
    if "model" in spec:
        name, lind, state, detail = _build_named(spec)
    else:
        name, lind, state, detail = _build_explicit(spec)
    return ModelBundle(name=name, lind=lind, state=state,
                       hash=model_hash(spec), detail=detail)
