"""Reference values and the checks every CLI call's reports must pass.

The gap reference is the harness's own row-major Kronecker-form generator
i(H x I - I x H^T) + sum w (L^dag x L^T - 1/2 L^dag L x I - 1/2 I x (L^dag L)^T),
built from the model definition, not from lindgap's assembly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from lindgap.modelspec import build_model, load_spec

# The gap command's default coupling grid (cli.py: --alpha-grid 1,10,100,1000).
ALPHA_GRID = (1.0, 10.0, 100.0, 1000.0)
# Relative tolerance of a certified number against its reference.  The
# program's gaps agree with the Kronecker-form reference to about 1e-13.
REF_RTOL = 1e-9


def _on_qubit(M, i: int, n: int):
    return np.kron(np.kron(np.eye(2 ** (n - 1 - i)), M), np.eye(2 ** i))


def _tfim_generator(n: int, h: float, gamma: float):
    """H = sum Z_i Z_{i+1} + h sum X_i; jumps Z_i with weight gamma."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    H = sum(_on_qubit(Z, i, n) @ _on_qubit(Z, i + 1, n) for i in range(n - 1))
    H = H + h * sum(_on_qubit(X, i, n) for i in range(n))
    return H, [(gamma, _on_qubit(Z, i, n)) for i in range(n)]


def _haar_generator(levels, beta: float):
    """Haar average of the filtered Gibbs sampler with q = 1.

    Jumps e_ij over all ordered pairs with weight exp(-beta (l_i - l_j) / 2) / N.
    """
    lam = np.asarray(levels, dtype=float)
    N = len(lam)
    jumps = []
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            jumps.append((math.exp(-beta * (lam[i] - lam[j]) / 2.0) / N, E))
    return np.zeros((N, N), dtype=complex), jumps


def _kron_parts(H, jumps):
    """Row-major Kronecker forms of i(H x I - I x H^T) and the dissipator."""
    N = H.shape[0]
    eye = np.eye(N)
    GH = 1j * (np.kron(H, eye) - np.kron(eye, H.T))
    GD = np.zeros((N * N, N * N), dtype=complex)
    for w, L in jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        GD += w * (np.kron(Ld, L.T) - 0.5 * np.kron(LdL, eye)
                   - 0.5 * np.kron(eye, LdL.T))
    return GH, GD


def _smallest_decay_rate(G) -> float:
    decay = np.sort(-np.linalg.eigvals(G).real)
    scale = max(np.abs(decay).max(), 1.0)
    return float(decay[decay > 1e-9 * scale][0])


def reference(model: str, params: dict, spec_path: str) -> dict:
    """Values every call's output is checked against, computed once per run."""
    if model == "tfim":
        H, jumps = _tfim_generator(params["n"], params["h"], params["gamma"])
        ref = {"lambda_D": 2.0 * params["gamma"], "s_H": 2.0 * params["h"],
               "classification": "hypocoercive"}
    else:
        H, jumps = _haar_generator(params["spectrum"], params["beta"])
        ref = {"lambda_D": build_model(load_spec(spec_path)).detail.model.lambda_D,
               "classification": "coercive"}
    GH, GD = _kron_parts(H, jumps)
    ref["gaps"] = [_smallest_decay_rate(a * GH + GD) for a in ALPHA_GRID]
    return ref


# ---------------------------------------------------------------------------
# checks


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and \
        abs(got - want) <= REF_RTOL * max(abs(want), 1e-300)


def _report(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)["report"]


def check_call(command: str, model: str, out: str, ref: dict) -> list[str]:
    """Reasons this call's reports disagree with the reference (empty if none)."""
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{command}: {what}")

    if command == "certify":
        c = _report(out, "certificate.json")["constants"]
        expect(_close(c["lambda_D"], ref["lambda_D"]),
               f"lambda_D {c['lambda_D']!r} != {ref['lambda_D']!r}")
        expect(_close(c["s_H"], ref["s_H"]), f"s_H {c['s_H']!r} != {ref['s_H']!r}")
    elif command == "stp":
        expect(_report(out, "stp.json")["passed"] is True, "passed is not true")
    elif command == "structure":
        r = _report(out, "structure.json")
        expect(r["classification"] == ref["classification"],
               f"classification {r['classification']!r}")
        expect(r["primitive"] is True, "not primitive")
        if model == "haar_gibbs":
            expect(r["kms_db"] is True and r["gns_db"] is True,
                   "kms_db or gns_db is not true")
    elif command == "gap":
        gaps = _report(out, "gap.json")["gaps"]
        expect(len(gaps) == len(ref["gaps"]), f"{len(gaps)} gaps")
        for a, g, want in zip(ALPHA_GRID, gaps, ref["gaps"]):
            expect(_close(g, want), f"gap at alpha={a:g} is {g!r}, "
                                    f"Kronecker reference {want!r}")
            if model == "haar_gibbs":
                expect(_close(g, ref["lambda_D"]), f"gap at alpha={a:g} is "
                       f"{g!r}, model lambda_D {ref['lambda_D']!r}")
    return problems

