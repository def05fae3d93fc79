"""Command-line front end: model specs in, JSON/CSV reports out.

Outputs are deterministic for fixed (spec, seed, flags): keys are sorted,
no timestamps are embedded, and files are written atomically.  Exit codes:
0 success, 1 validation failure, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .certify import certify, certify_coercive, structural_constants
from .evolve import _random_mean_zero, semigroup_norm_curve, stp_verify, \
    time_avg_check
from .lindblad import kernel_projection, structure_report
from .modelspec import ModelBundle, SpecError, Tolerances, build_model, load_spec
from .spectral import gap_curve, singular_relaxation_check, spectral_gap

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_ENV_HELP = """\
environment overrides:
  LINDGAP_CERT_SLACK     multiplicative slack for certificate checks (default 1e-6)
  LINDGAP_DB_TOL         detailed-balance defect flag threshold (default 1e-8)
"""


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        # NaN and infinities are not valid JSON
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(_sanitize(payload), sort_keys=True, indent=2)
                + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _envelope(command: str, bundle: ModelBundle, seed: int,
              tols: Tolerances, report: dict) -> dict:
    return {"tool": "lindgap", "version": __version__, "command": command,
            "model": bundle.name, "model_hash": bundle.hash, "seed": seed,
            "tolerances": tols.as_dict(), "report": report}


def _effective_hamiltonian(bundle: ModelBundle):
    return bundle.lind.alpha * bundle.lind.hamiltonian


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise SpecError("--alpha-grid", f"expected comma-separated floats: {exc}") \
            from exc
    if not values:
        raise SpecError("--alpha-grid", "empty grid")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise SpecError("--alpha-grid", "grid must be strictly increasing")
    return values


def _cmd_structure(args, bundle: ModelBundle, tols: Tolerances) -> int:
    report = structure_report(bundle.lind, bundle.state, db_tol=tols.db_tol)
    payload = _envelope("structure", bundle, args.seed, tols, report.as_dict())
    _write_json(os.path.join(args.out, "structure.json"), payload)
    return EXIT_OK


def _cmd_gap(args, bundle: ModelBundle, tols: Tolerances) -> int:
    alphas = _parse_grid(args.alpha_grid)
    curve = gap_curve(_effective_hamiltonian(bundle), bundle.lind.dissipator(),
                      bundle.state, alphas)
    report = {"alphas": curve.alphas, "gaps": curve.gaps,
              "singular_gaps": curve.singular_gaps, "limit": curve.limit,
              "final_deviation": curve.final_deviation}
    if args.format in ("json", "both"):
        _write_json(os.path.join(args.out, "gap.json"),
                    _envelope("gap", bundle, args.seed, tols, report))
    if args.format in ("csv", "both"):
        rows = [(a, g, curve.limit, s) for a, g, s in
                zip(curve.alphas, curve.gaps, curve.singular_gaps)]
        _write_csv(os.path.join(args.out, "gap.csv"),
                   ["alpha", "gap", "limit", "singular_gap"], rows)
    return EXIT_OK


def _certificate_report(bundle: ModelBundle, T: float | None) -> dict:
    H = _effective_hamiltonian(bundle)
    LD = bundle.lind.dissipator()
    split = kernel_projection(LD, bundle.state)
    if split.dim0 == 0:
        raise SpecError("model", "coercive model: ker(L^D|h) is trivial, so "
                        "the hypocoercive assumption fails; the spectral gap "
                        "itself is the rate (certify_coercive in the library)")
    cert = certify(H, LD, bundle.state, T=T)
    report = cert.as_dict()
    ok, lhs, s = singular_relaxation_check(report["nu"], report["T"],
                                           bundle.lind, bundle.state)
    report["singular_check"] = {"ok": ok, "lhs": lhs, "singular_gap": s}
    return report


def _cmd_certify(args, bundle: ModelBundle, tols: Tolerances) -> int:
    report = _certificate_report(bundle, args.T)
    payload = _envelope("certify", bundle, args.seed, tols, report)
    _write_json(os.path.join(args.out, "certificate.json"), payload)
    return EXIT_OK


def _load_certificate(path: str) -> tuple[float, float, float, float, str | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError("--certificate", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SpecError("--certificate", f"invalid JSON: {exc.msg}") from exc
    report = data.get("report", data) if isinstance(data, dict) else None
    if not isinstance(report, dict):
        raise SpecError("--certificate", "expected a certificate JSON object")
    try:
        nu = float(report["nu"])
        T = float(report["T"])
        C_T = float(report.get("C_T", report.get("prefactor")))
        beta = float(report.get("beta", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("--certificate",
                        "missing or malformed nu/T/C_T fields") from exc
    model_hash = data.get("model_hash") if isinstance(data, dict) else None
    return nu, T, C_T, beta, model_hash


def _cmd_validate(args, bundle: ModelBundle, tols: Tolerances) -> int:
    nu, T, C_T, beta, doc_hash = _load_certificate(args.certificate)
    if nu <= 0 or T <= 0 or C_T < 1.0:
        raise SpecError("--certificate", "need nu > 0, T > 0, C_T >= 1")
    if doc_hash is not None and doc_hash != bundle.hash:
        raise SpecError("--certificate",
                        "certificate was issued for a different model "
                        f"(hash {doc_hash} != {bundle.hash})")
    # A certificate is valid only if this tool would emit it for this model:
    # recompute at the certificate's own T and compare.
    expected = _certificate_report(bundle, T)
    consistent = (abs(expected["nu"] - nu) <= 1e-9 * expected["nu"]
                  and abs(expected["C_T"] - C_T) <= 1e-9 * expected["C_T"])
    rng = np.random.default_rng(args.seed)
    X0 = _random_mean_zero(rng, bundle.state)
    t_max = args.t_max if args.t_max is not None else 4.0 / nu
    ts = np.linspace(0.0, t_max, args.samples)
    report = time_avg_check(bundle.lind, bundle.state, X0, T, nu, ts, C_T,
                            slack=tols.cert_slack)
    ok, lhs, s = singular_relaxation_check(nu, T, bundle.lind, bundle.state)
    # The rate fit needs times on the scale of the true decay, which can be
    # orders of magnitude faster than the certified rate.
    gap = spectral_gap(bundle.lind, bundle.state).spectral_gap
    t_fit = min(t_max, 12.0 / gap) if gap > 0 else t_max
    norm_curve = semigroup_norm_curve(bundle.lind, bundle.state,
                                      np.linspace(t_fit / 30.0, t_fit, 30))
    payload = _envelope("validate", bundle, args.seed, tols, {
        "time_avg": report.as_dict(),
        "singular_check": {"ok": ok, "lhs": lhs, "singular_gap": s},
        "consistency": {"ok": consistent, "nu_expected": expected["nu"],
                        "nu_given": nu, "C_T_expected": expected["C_T"],
                        "C_T_given": C_T},
        "empirical_rate": norm_curve.empirical_rate,
        "passed": bool(report.passed and ok and consistent),
    })
    _write_json(os.path.join(args.out, "validate.json"), payload)
    _write_csv(os.path.join(args.out, "decay.csv"),
               ["t", "norm2", "window_avg"],
               zip(report.times, report.pointwise_values, report.window_values))
    _write_csv(os.path.join(args.out, "norms.csv"),
               ["t", "opnorm", "log_rate"],
               [(t, n, (-np.log(n) / t) if t > 0 and n > 0 else None)
                for t, n in zip(norm_curve.times, norm_curve.norms)])
    if not (report.passed and ok and consistent):
        return EXIT_VALIDATION
    return EXIT_OK


def _default_window(bundle: ModelBundle) -> float:
    H = _effective_hamiltonian(bundle)
    LD = bundle.lind.dissipator()
    split = kernel_projection(LD, bundle.state)
    if split.dim0 == 0:
        return certify_coercive(LD, bundle.state).T
    sc = structural_constants(H, LD, bundle.state, split=split)
    return 3.0 / sc.s_H


def _cmd_stp(args, bundle: ModelBundle, tols: Tolerances) -> int:
    if args.beta <= 0:
        raise SpecError("--beta", "beta must be positive")
    T = args.T if args.T is not None else _default_window(bundle)
    report = stp_verify(_effective_hamiltonian(bundle), bundle.lind.dissipator(),
                        bundle.state, T, args.beta, n_samples=args.samples,
                        poly_degree=args.poly_degree, seed=args.seed,
                        slack=tols.cert_slack)
    payload = _envelope("stp", bundle, args.seed, tols, report.as_dict())
    _write_json(os.path.join(args.out, "stp.json"), payload)
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindgap",
        description="Mixing diagnostics and convergence certificates for "
                    "Lindblad generators.",
        epilog=_ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"lindgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="model spec JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed recorded in outputs")

    p = sub.add_parser("structure",
                       help="detailed balance, primitivity, kernel diagnostics")
    common(p)
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("gap", help="spectral gap over a coupling grid")
    common(p)
    p.add_argument("--alpha-grid", default="1,10,100,1000",
                   help="comma-separated increasing coupling values")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("certify", help="emit a decay-rate certificate")
    common(p)
    p.add_argument("--T", type=float, default=None,
                   help="window length (default 3/s_H)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("validate",
                       help="check a certificate against the exact evolution")
    common(p)
    p.add_argument("--certificate", required=True,
                   help="certificate JSON from the certify command")
    p.add_argument("--samples", type=int, default=20,
                   help="number of sampled times")
    p.add_argument("--t-max", type=float, default=None,
                   help="largest sampled time (default 4/nu)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("stp",
                       help="sample the space-time variance inequality")
    common(p)
    p.add_argument("--T", type=float, default=None,
                   help="window length (default 3/s_H)")
    p.add_argument("--beta", type=float, default=1.0,
                   help="regularization shift (must be positive)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--poly-degree", type=int, default=3)
    p.set_defaults(handler=_cmd_stp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tols = Tolerances.from_env()
        spec = load_spec(args.spec)
        bundle = build_model(spec)
        os.makedirs(args.out, exist_ok=True)
        return args.handler(args, bundle, tols)
    except SpecError as exc:
        print(f"lindgap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"lindgap: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"lindgap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
