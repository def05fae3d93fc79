"""Command-line front end: model specs in, JSON/CSV reports out.

Outputs are deterministic for fixed (spec, seed, flags): keys are sorted,
no timestamps are embedded, and files are written atomically.  Exit codes:
0 success, 1 validation failure, 2 input error, 3 numerical failure or no memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .certify import certify
from .evolve import CERT_SLACK, _random_mean_zero, semigroup_norm_curve, \
    stp_verify, time_avg_check
from .lindblad import DB_DEFECT_TOL, Analysis, structure_report
from .modelspec import ModelBundle, SpecError, build_model, load_spec
from .spectral import gap_curve, singular_relaxation_check, spectral_gap

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


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
    return obj


def _write_text(path: str, text: str) -> None:
    # the output directory is made with the first report, so a command
    # refused before it writes makes none
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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


def _envelope(command: str, bundle: ModelBundle, seed: int, report: dict) -> dict:
    return {"tool": "lindgap", "version": __version__, "command": command,
            "model": bundle.name, "model_hash": bundle.hash, "seed": seed,
            "tolerances": {"cert_slack": CERT_SLACK, "db_tol": DB_DEFECT_TOL},
            "report": report}


def _require_positive(value: float | None, flag: str) -> None:
    if value is not None and not (np.isfinite(value) and value > 0):
        raise SpecError(flag, "must be a finite positive number")


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise SpecError("--alpha-grid", f"expected comma-separated floats: {exc}") \
            from exc
    if not values:
        raise SpecError("--alpha-grid", "empty grid")
    if not np.all(np.isfinite(values)):
        raise SpecError("--alpha-grid", "entries must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise SpecError("--alpha-grid", "grid must be strictly increasing")
    return values


def _cmd_structure(args, bundle: ModelBundle) -> int:
    report = structure_report(Analysis(bundle.lind, bundle.state))
    payload = _envelope("structure", bundle, args.seed, report.as_dict())
    _write_json(os.path.join(args.out, "structure.json"), payload)
    return EXIT_OK


def _cmd_gap(args, bundle: ModelBundle) -> int:
    alphas = _parse_grid(args.alpha_grid)
    curve = gap_curve(Analysis(bundle.lind, bundle.state), alphas)
    report = {"alphas": curve.alphas, "gaps": curve.gaps,
              "singular_gaps": curve.singular_gaps, "limit": curve.limit,
              "final_deviation": curve.final_deviation}
    _write_json(os.path.join(args.out, "gap.json"),
                _envelope("gap", bundle, args.seed, report))
    rows = [(a, g, curve.limit, s) for a, g, s in
            zip(curve.alphas, curve.gaps, curve.singular_gaps)]
    _write_csv(os.path.join(args.out, "gap.csv"),
               ["alpha", "gap", "limit", "singular_gap"], rows)
    return EXIT_OK


def _certificate_report(an: Analysis, T: float | None) -> dict:
    report = certify(an, T=T).as_dict()
    ok, lhs, s = singular_relaxation_check(an, report["nu"], report["T"])
    report["singular_check"] = {"ok": ok, "lhs": lhs, "singular_gap": s}
    return report


def _cmd_certify(args, bundle: ModelBundle) -> int:
    _require_positive(args.T, "--T")
    report = _certificate_report(Analysis(bundle.lind, bundle.state), args.T)
    payload = _envelope("certify", bundle, args.seed, report)
    _write_json(os.path.join(args.out, "certificate.json"), payload)
    return EXIT_OK


def _load_certificate(path: str) -> tuple[float, float, float, str | None]:
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
        C_T = float(report["C_T"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("--certificate",
                        "missing or malformed nu/T/C_T fields") from exc
    model_hash = data.get("model_hash") if isinstance(data, dict) else None
    return nu, T, C_T, model_hash


def _cmd_validate(args, bundle: ModelBundle) -> int:
    # t = 0 alone is no test: its window ratio is exactly 1
    if args.samples < 2:
        raise SpecError("--samples", "need at least 2 sampled times")
    _require_positive(args.t_max, "--t-max")
    nu, T, C_T, doc_hash = _load_certificate(args.certificate)
    if not (np.all(np.isfinite([nu, T, C_T])) and nu > 0 and T > 0 and C_T >= 1.0):
        raise SpecError("--certificate", "need finite nu > 0, T > 0, C_T >= 1")
    if doc_hash is not None and doc_hash != bundle.hash:
        raise SpecError("--certificate",
                        "certificate was issued for a different model "
                        f"(hash {doc_hash} != {bundle.hash})")
    # A certificate is valid only if this tool would emit it for this model:
    # recompute at the certificate's own T and compare.
    an = Analysis(bundle.lind, bundle.state)
    expected = _certificate_report(an, T)
    consistent = (abs(expected["nu"] - nu) <= 1e-9 * expected["nu"]
                  and abs(expected["C_T"] - C_T) <= 1e-9 * expected["C_T"])
    rng = np.random.default_rng(args.seed)
    X0 = _random_mean_zero(rng, bundle.state)
    t_max = args.t_max if args.t_max is not None else 4.0 / nu
    report = time_avg_check(an, X0, T, nu, t_max / (args.samples - 1),
                            args.samples, C_T)
    ok, lhs, s = singular_relaxation_check(an, nu, T)
    # The rate fit needs times on the scale of the true decay, which can be
    # orders of magnitude faster than the certified rate.
    gap = spectral_gap(an)
    t_fit = min(t_max, 12.0 / gap) if gap > 0 else t_max
    norm_curve = semigroup_norm_curve(an, t_fit / 30.0, 30)
    passed = bool(report.passed and ok and consistent)
    payload = _envelope("validate", bundle, args.seed, {
        "time_avg": report.as_dict(),
        "singular_check": {"ok": ok, "lhs": lhs, "singular_gap": s},
        "consistency": {"ok": consistent, "nu_expected": expected["nu"],
                        "nu_given": nu, "C_T_expected": expected["C_T"],
                        "C_T_given": C_T},
        "empirical_rate": norm_curve.empirical_rate,
        "empirical_rate_warning": norm_curve.range_warning,
        "passed": passed,
    })
    _write_json(os.path.join(args.out, "validate.json"), payload)
    _write_csv(os.path.join(args.out, "decay.csv"),
               ["t", "norm2", "window_avg"],
               zip(report.times, report.pointwise_values, report.window_values))
    _write_csv(os.path.join(args.out, "norms.csv"),
               ["t", "opnorm", "log_rate"],
               [(t, n, (-np.log(n) / t) if t > 0 and n > 0 else None)
                for t, n in zip(norm_curve.times, norm_curve.norms)])
    return EXIT_OK if passed else EXIT_VALIDATION


def _cmd_stp(args, bundle: ModelBundle) -> int:
    _require_positive(args.beta, "--beta")
    _require_positive(args.T, "--T")
    if args.samples < 1:
        raise SpecError("--samples", "need at least 1 sampled path")
    if args.poly_degree < 0:
        raise SpecError("--poly-degree", "must be a nonnegative integer")
    an = Analysis(bundle.lind, bundle.state)
    T = args.T if args.T is not None else an.constants.default_window
    report = stp_verify(an, T, args.beta, n_samples=args.samples,
                        poly_degree=args.poly_degree, seed=args.seed)
    payload = _envelope("stp", bundle, args.seed, report.as_dict())
    _write_json(os.path.join(args.out, "stp.json"), payload)
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindgap",
        description="Mixing diagnostics and convergence certificates for "
                    "Lindblad generators.")
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
                   help="comma-separated increasing coupling values, each a "
                        "multiple of the model's own alpha")
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
                   help="window length (default 3/s_H; 1/(2 gap) if coercive)")
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
        if args.seed < 0:
            raise SpecError("--seed", "must be a nonnegative integer")
        spec = load_spec(args.spec)
        bundle = build_model(spec)
        return args.handler(args, bundle)
    except SpecError as exc:
        print(f"lindgap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, MemoryError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print("lindgap: numerical failure:", str(exc) or type(exc).__name__, file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"lindgap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
