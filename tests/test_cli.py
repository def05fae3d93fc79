"""Command-line interface: outputs, exit codes, diagnostics, determinism."""

import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from functools import cached_property
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from lindgap import Analysis, KmsFrame, Lindbladian
from lindgap.cli import main
from lindgap.evolve import CERT_SLACK
from lindgap.lindblad import DB_DEFECT_TOL
from lindgap.modelspec import build_model, load_spec

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

QUBIT_EXPLICIT = {
    "schema": "lindgap-model/1",
    "qubits": 1,
    "hamiltonian": [[0.0, 1.0], [1.0, 0.0]],
    "jumps": [{"weight": 2.0, "matrix": [[1.0, 0.0], [0.0, -1.0]]}],
    "sigma": {"type": "maximally_mixed"},
}

QUBIT_NAMED = {
    "schema": "lindgap-model/1",
    "model": "single_jump",
    "params": {"A": [[1.0, 0.0], [0.0, -1.0]],
               "H": [[0.0, 1.0], [1.0, 0.0]]},
}

HAAR_COERCIVE = {
    "schema": "lindgap-model/1",
    "model": "haar_gibbs",
    "params": {"spectrum": [0.0, 1.0, 2.5], "beta": 1.0},
}

TFIM3 = {
    "schema": "lindgap-model/1",
    "model": "tfim",
    "params": {"n": 3, "h": 0.75, "gamma": 1.25},
}

CERT_NU = 0.002757570502323634
CERT_CT = 1.0041449222802734


def write_spec(path, spec):
    path.write_text(json.dumps(spec))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def qubit_spec(tmp_path):
    return write_spec(tmp_path / "qubit.json", QUBIT_NAMED)


# ---------------------------------------------------------------------------
# structure


def test_structure_reports_flags(tmp_path):
    spec = write_spec(tmp_path / "m.json", QUBIT_EXPLICIT)
    assert main(["structure", "--spec", spec, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "structure.json")
    assert doc["tool"] == "lindgap"
    assert doc["command"] == "structure"
    assert doc["model"] == "explicit"
    assert len(doc["model_hash"]) == 64
    rep = doc["report"]
    assert rep["primitive"] is True
    assert rep["kms_db"] is False
    assert rep["standard_dbc"] is True
    assert rep["kernel_dim_LD"] == 2


# ---------------------------------------------------------------------------
# gap


def test_gap_json_and_csv(tmp_path, qubit_spec):
    out = tmp_path / "out"
    assert main(["gap", "--spec", qubit_spec, "--out", str(out)]) == 0
    doc = read_json(out / "gap.json")
    rep = doc["report"]
    assert rep["alphas"] == [1.0, 10.0, 100.0, 1000.0]
    assert rep["limit"] == pytest.approx(2.0, abs=1e-9)
    assert rep["final_deviation"] < 1e-9
    lines = (out / "gap.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,gap,limit,singular_gap"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0
    assert first[1] == pytest.approx(2.0, abs=1e-9)
    assert first[3] == pytest.approx(0.8284271247461902, abs=1e-9)


def test_gap_without_limit_leaves_limit_empty(tmp_path):
    # driven damped qubit at its steady state [[5, 2i], [-2i, 4]] / 9: it does
    # not commute with H = X, so there is no strong-coupling limit
    mu, U = np.linalg.eigh(np.array([[5.0, 2.0j], [-2.0j, 4.0]]) / 9.0)
    spec = {"schema": "lindgap-model/1", "qubits": 1,
            "hamiltonian": [[0.0, 1.0], [1.0, 0.0]],
            "jumps": [{"weight": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
            "sigma": {"type": "eigenvalues", "values": mu.tolist(),
                      "basis": [[[z.real, z.imag] for z in row] for row in U]}}
    path = write_spec(tmp_path / "driven.json", spec)
    out = tmp_path / "out"
    assert main(["gap", "--spec", path, "--out", str(out)]) == 0
    rep = read_json(out / "gap.json")["report"]
    assert rep["limit"] is None
    assert rep["final_deviation"] is None
    rows = [line.split(",") for line in
            (out / "gap.csv").read_text().strip().splitlines()]
    assert rows[0] == ["alpha", "gap", "limit", "singular_gap"]
    assert len(rows) == 5
    assert all(row[2] == "" for row in rows[1:])


def test_gap_grid_multiplies_the_spec_alpha(tmp_path):
    # the grid scales alpha * hamiltonian: grid value 1 at alpha 2 is grid
    # value 2 at alpha 1, and the report lists the grid as given.  sigma is
    # uniform, so any H leaves it invariant; the unequal weights make the
    # gap depend on the coupling
    reports = {}
    for alpha, grid in ((2.0, "1,10"), (1.0, "2,20"), (1.0, "1,10")):
        spec = {"schema": "lindgap-model/1", "model": "graph",
                "params": {"n_vertices": 3, "edges": [[0, 1], [1, 2]],
                           "weights": [1.0, 3.0], "sigma": [1, 1, 1], "alpha": alpha,
                           "hamiltonian": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}}
        path = write_spec(tmp_path / f"graph-{alpha}-{grid}.json", spec)
        out = tmp_path / f"out-{alpha}-{grid}"
        assert main(["gap", "--spec", path, "--out", str(out), "--alpha-grid", grid]) == 0
        reports[alpha, grid] = read_json(out / "gap.json")["report"]
    doubled, ref, plain = reports[2.0, "1,10"], reports[1.0, "2,20"], reports[1.0, "1,10"]
    assert doubled["alphas"] == [1.0, 10.0]
    assert doubled["gaps"] == pytest.approx(ref["gaps"], rel=1e-12)
    assert doubled["gaps"][0] == pytest.approx(7.4201881097940126, rel=1e-12)
    assert plain["gaps"][0] == pytest.approx(5.967016765257956, rel=1e-12)


def test_gap_rejects_bad_grid(tmp_path, qubit_spec, capsys):
    assert main(["gap", "--spec", qubit_spec, "--out", str(tmp_path),
                 "--alpha-grid", "3,2"]) == 2
    assert "increasing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify


def test_certify_emits_pinned_certificate(tmp_path, qubit_spec):
    out = tmp_path / "cert"
    assert main(["certify", "--spec", qubit_spec, "--out", str(out)]) == 0
    doc = read_json(out / "certificate.json")
    rep = doc["report"]
    assert rep["method"] == "hypocoercive"
    assert rep["nu"] == pytest.approx(CERT_NU, rel=1e-12)
    assert rep["T"] == pytest.approx(1.5)
    assert rep["C_T"] == pytest.approx(CERT_CT, rel=1e-12)
    assert rep["singular_check"]["ok"] is True


@pytest.mark.parametrize("command", ["structure", "gap", "certify", "validate", "stp"])
def test_certify_is_deterministic(tmp_path, qubit_spec, command):
    extra = []
    if command == "validate":
        extra = ["--certificate", str(emit_certificate(tmp_path, qubit_spec))]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--spec", qubit_spec, "--out", str(out1)] + extra) == 0
    assert main([command, "--spec", qubit_spec, "--out", str(out2)] + extra) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_refuses_coercive_model(tmp_path, capsys):
    spec = write_spec(tmp_path / "haar.json", HAAR_COERCIVE)
    assert main(["certify", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "coercive" in capsys.readouterr().err


# sigma = diag(0.4, 0.3, 0.2, 0.1) with an H that does not commute with it
NON_INVARIANT = {
    "schema": "lindgap-model/1",
    "model": "graph",
    "params": {"n_vertices": 4, "edges": [[0, 1], [2, 3]], "sigma": [0.4, 0.3, 0.2, 0.1],
               "hamiltonian": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]},
}


@pytest.mark.parametrize("command", ["structure", "gap", "certify", "validate", "stp"])
def test_every_command_refuses_a_non_invariant_sigma(tmp_path, capsys, command):
    spec = write_spec(tmp_path / "graph.json", NON_INVARIANT)
    extra = []
    if command == "validate":
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"nu": 1e-3, "T": 1.0, "C_T": 1.0}))
        extra = ["--certificate", str(bare)]
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out", str(out)] + extra) == 2
    assert "sigma is not invariant for this generator (residual 2.449e-01)" \
        in capsys.readouterr().err
    assert not out.exists()


# sigma is not invariant under H = sigma_x on vertices 0 and 1, and H moves
# no kernel vector (s_H ~ 1e-16): every command names the first failed
# precondition in the one order, invariance before the coupling
UNMOVED_AND_NON_INVARIANT = {
    "schema": "lindgap-model/1",
    "model": "graph",
    "params": {"n_vertices": 4, "edges": [[0, 1], [2, 3]], "sigma": [0.4, 0.3, 0.2, 0.1],
               "hamiltonian": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
}


@pytest.mark.parametrize("argv", [["stp"], ["stp", "--T", "1"], ["certify"]],
                         ids=" ".join)
def test_refusals_follow_one_precondition_order(tmp_path, capsys, argv):
    spec = write_spec(tmp_path / "graph.json", UNMOVED_AND_NON_INVARIANT)
    assert main(argv + ["--spec", spec, "--out", str(tmp_path / "out")]) == 2
    assert "sigma is not invariant" in capsys.readouterr().err


@pytest.mark.parametrize("model,command,calls", [
    pytest.param(TFIM3, "certify", 1, id="tfim-certify"),
    pytest.param(TFIM3, "stp", 1, id="tfim-stp"),
    pytest.param(TFIM3, "validate", 1, id="tfim-validate"),
    pytest.param(HAAR_COERCIVE, "stp", 0, id="haar_gibbs-stp"),
])
def test_certificate_preconditions_are_decided_once(tmp_path, monkeypatch, model,
                                                    command, calls):
    # check_assumption only for a nontrivial kernel
    spec = write_spec(tmp_path / "m.json", model)
    argv = [command, "--spec", spec, "--out", str(tmp_path / command)]
    if command == "validate":
        argv += ["--certificate", str(emit_certificate(tmp_path, spec))]
    certify_module, counts = import_module("lindgap.certify"), Counter()
    for name in ("check_assumption", "structural_constants"):
        fn = getattr(certify_module, name)
        monkeypatch.setattr(certify_module, name,
                            lambda an, _fn=fn, _name=name: counts.update([_name]) or _fn(an))
    assert main(argv) == 0
    assert (counts["check_assumption"], counts["structural_constants"]) == (calls, 1)


# ---------------------------------------------------------------------------
# validate


def emit_certificate(tmp_path, spec_path):
    out = tmp_path / "issued"
    assert main(["certify", "--spec", spec_path, "--out", str(out)]) == 0
    return out / "certificate.json"


def test_validate_accepts_emitted_certificate(tmp_path, qubit_spec):
    cert = emit_certificate(tmp_path, qubit_spec)
    out = tmp_path / "val"
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(cert)]) == 0
    doc = read_json(out / "validate.json")
    rep = doc["report"]
    assert rep["passed"] is True
    assert rep["consistency"]["ok"] is True
    assert rep["time_avg"]["passed"] is True
    assert rep["singular_check"]["ok"] is True
    # empirical rate tracks the true gap scale (the slow mode is defective,
    # so the short fit window sees -2 + 1/t), far above the certified rate
    assert 1.5 <= rep["empirical_rate"] <= 2.05
    decay = (out / "decay.csv").read_text().splitlines()
    assert decay[0] == "t,norm2,window_avg"
    assert len(decay) == 21
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,opnorm,log_rate"


def test_validate_ignores_the_certificate_beta(tmp_path, qubit_spec):
    # validate reads nu, T and C_T; a beta that is not a number is no error
    cert = emit_certificate(tmp_path, qubit_spec)
    doc = read_json(cert)
    doc["report"]["beta"] = "n/a"
    cert.write_text(json.dumps(doc))
    assert main(["validate", "--spec", qubit_spec, "--out", str(tmp_path / "val"),
                 "--certificate", str(cert)]) == 0


def test_validate_passes_on_tfim_with_default_flags(tmp_path):
    spec = write_spec(tmp_path / "tfim.json", TFIM3)
    cert = emit_certificate(tmp_path, spec)
    out = tmp_path / "val"
    assert main(["validate", "--spec", spec, "--out", str(out),
                 "--certificate", str(cert)]) == 0
    assert read_json(out / "validate.json")["report"]["passed"] is True


TFIM2 = dict(TFIM3, params={"n": 2, "h": 0.75, "gamma": 1.25})


@pytest.mark.parametrize("flags,warning", [
    ([], None),
    (["--t-max", "0.1"], "time range shorter than five decay times; "
                         "the empirical rate may not be asymptotic"),
])
def test_validate_reports_the_rate_fit_warning(tmp_path, flags, warning):
    spec = write_spec(tmp_path / "tfim2.json", TFIM2)
    cert = emit_certificate(tmp_path, spec)
    out = tmp_path / "val"
    main(["validate", "--spec", spec, "--out", str(out), "--certificate", str(cert)]
         + flags)
    assert read_json(out / "validate.json")["report"]["empirical_rate_warning"] == warning


def test_validate_takes_one_exponential_per_distinct_step(tmp_path, monkeypatch):
    # e^{(k+1)hM} = e^{hM} e^{khM}: the decay and norm curves each step one
    # propagator of fixed step h, and the window Gramian takes one more of
    # the doubled Van Loan block; each is one stacked exponential per sector
    # size, so the 63 traceless coordinates are covered 1 + 1 + 2 times
    evolve = import_module("lindgap.evolve")
    expm = evolve._expm
    calls = []
    monkeypatch.setattr(evolve, "_expm", lambda A: calls.append(A.shape) or expm(A))
    for draw, (h, gamma) in enumerate(((0.75, 1.25), (1.1, 0.8), (0.9, 1.05))):
        spec = write_spec(tmp_path / f"tfim-{draw}.json",
                          dict(TFIM3, params={"n": 3, "h": h, "gamma": gamma}))
        cert = emit_certificate(tmp_path, spec)
        bundle = build_model(load_spec(spec))
        sectors = Analysis(bundle.lind, bundle.state).sectors
        calls.clear()
        assert main(["validate", "--spec", spec, "--out", str(tmp_path / "val"),
                     "--certificate", str(cert)]) == 0
        expected = Counter()
        for S in sectors:
            expected[S.shape[0], S.shape[1]] += 2
            expected[S.shape[0], 2 * S.shape[1]] += 1
        assert Counter((k, side) for k, side, _ in calls) == expected
        assert sum(k * side for k, side, _ in calls) == 63 * 4


def test_validate_rejects_inflated_rate(tmp_path, qubit_spec):
    cert = emit_certificate(tmp_path, qubit_spec)
    doc = read_json(cert)
    doc["report"]["nu"] *= 2.0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    out = tmp_path / "val"
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(tampered)]) == 1
    rep = read_json(out / "validate.json")["report"]
    assert rep["passed"] is False
    assert rep["consistency"]["ok"] is False


def test_validate_rejects_foreign_certificate(tmp_path, qubit_spec, capsys):
    other = write_spec(tmp_path / "other.json", QUBIT_EXPLICIT)
    cert = emit_certificate(tmp_path, other)
    assert main(["validate", "--spec", qubit_spec, "--out", str(tmp_path),
                 "--certificate", str(cert)]) == 2
    assert "different model" in capsys.readouterr().err


def test_validate_accepts_bare_certificate_object(tmp_path, qubit_spec):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"nu": CERT_NU, "T": 1.5, "C_T": CERT_CT}))
    out = tmp_path / "val"
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(bare)]) == 0


def test_validate_rejects_malformed_certificate(tmp_path, qubit_spec, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"T": 1.5}))
    assert main(["validate", "--spec", qubit_spec, "--out", str(tmp_path),
                 "--certificate", str(bad)]) == 2
    assert "nu/T/C_T" in capsys.readouterr().err
    for nu in (-1.0, float("nan"), float("inf")):
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps({"nu": nu, "T": 1.5, "C_T": 1.1}))
        assert main(["validate", "--spec", qubit_spec, "--out", str(tmp_path),
                     "--certificate", str(neg)]) == 2
        assert "--certificate: need finite" in capsys.readouterr().err


def test_validate_rejects_prefactor_in_place_of_C_T(tmp_path, qubit_spec, capsys):
    # certify writes C_T; a certificate that names it `prefactor` is malformed
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"nu": CERT_NU, "T": 1.5, "prefactor": CERT_CT}))
    out = tmp_path / "val"
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(old)]) == 2
    err = capsys.readouterr().err
    assert "--certificate: missing or malformed nu/T/C_T fields" in err
    assert not (out / "validate.json").exists()


@pytest.mark.parametrize("flags, name", [
    (["--samples", "0"], "--samples"),
    (["--samples", "1"], "--samples"),
    (["--t-max", "0"], "--t-max"),
    (["--t-max", "-1.5"], "--t-max"),
    (["--t-max", "inf"], "--t-max"),
])
def test_validate_rejects_vacuous_sample_grid(tmp_path, qubit_spec, capsys,
                                              flags, name):
    # no samples, or only t = 0 (window ratio exactly 1), checks nothing
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"nu": CERT_NU, "T": 1.5, "C_T": CERT_CT}))
    out = tmp_path / "val"
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(bare)] + flags) == 2
    assert f"input error: {name}:" in capsys.readouterr().err
    assert not (out / "validate.json").exists()


# ---------------------------------------------------------------------------
# stp


def test_stp_qubit(tmp_path, qubit_spec):
    out = tmp_path / "stp"
    assert main(["stp", "--spec", qubit_spec, "--out", str(out),
                 "--samples", "10"]) == 0
    rep = read_json(out / "stp.json")["report"]
    assert rep["passed"] is True
    assert rep["trivial_kernel"] is False
    assert rep["C1"] == pytest.approx(34.09621995090444, rel=1e-9)
    assert rep["T"] == pytest.approx(1.5)
    assert rep["n_samples"] == 10


def test_stp_rejects_bad_beta(tmp_path, qubit_spec, capsys):
    assert main(["stp", "--spec", qubit_spec, "--out", str(tmp_path),
                 "--beta", "-1.0"]) == 2
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("stp", ["--samples", "0"]),
    ("stp", ["--poly-degree", "-1"]),
    ("stp", ["--beta", "0"]),
    ("certify", ["--T", "-1"]),
    ("validate", ["--samples", "1", "--certificate", "unread.json"]),
])
def test_flag_refusals_name_the_flag_and_make_no_directory(tmp_path, qubit_spec, capsys,
                                                         command, flags):
    out = tmp_path / "out"
    assert main([command, "--spec", qubit_spec, "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"lindgap: input error: {flags[0]}: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# cold start

# Run in a fresh interpreter: the test session has imported scipy already.
COLD_START = """
import json, sys
spec, out = sys.argv[1:]
seen = {}
import lindgap
seen["import lindgap"] = "scipy.linalg" in sys.modules
from lindgap.cli import main
seen["import lindgap.cli"] = "scipy.linalg" in sys.modules
for command in ("structure", "gap", "certify", "stp"):
    seen[command] = [main([command, "--spec", spec, "--out", out]),
                     "scipy.linalg" in sys.modules]
seen["validate"] = [main(["validate", "--spec", spec, "--out", out,
                          "--certificate", out + "/certificate.json"]),
                    "scipy.linalg" in sys.modules]
print(json.dumps(seen))
"""


def test_only_validate_loads_scipy_linalg(tmp_path):
    spec = write_spec(tmp_path / "tfim.json", {
        "schema": "lindgap-model/1", "model": "tfim",
        "params": {"n": 2, "h": 0.75, "gamma": 1.25}})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", COLD_START, spec, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen == {"import lindgap": False, "import lindgap.cli": False,
                    "structure": [0, False], "gap": [0, False],
                    "certify": [0, False], "stp": [0, False],
                    "validate": [0, True]}


# ---------------------------------------------------------------------------
# one analysis per command


# (frames, unit matrices) per call.  Each command assembles the unit matrix of
# L^D once, for M_D.  In the joint frame M_H is a formula, with no assembly,
# and so is the coherent term that structure adds to that unit matrix to get
# the one of L, from which it reads the KMS and GNS defects and the
# standard-DBC fit.  The model builders assemble nothing.
BUILDS = {("tfim", "structure"): (1, 1), ("tfim", "gap"): (1, 1),
          ("tfim", "certify"): (1, 1), ("tfim", "stp"): (1, 1),
          ("tfim", "validate"): (1, 1), ("haar_gibbs", "structure"): (1, 1),
          ("haar_gibbs", "gap"): (1, 1), ("haar_gibbs", "stp"): (1, 1)}


@pytest.mark.parametrize("model,command", [
    pytest.param(model, command, id=command if model == "tfim" else f"{model}-{command}")
    for model, command in BUILDS])
def test_each_command_builds_one_analysis(tmp_path, monkeypatch, model, command):
    spec = write_spec(tmp_path / "m.json",
                      TFIM3 if model == "tfim" else HAAR_COERCIVE)
    argv = [command, "--spec", spec, "--out", str(tmp_path / command)]
    if command == "validate":
        argv += ["--certificate", str(emit_certificate(tmp_path, spec))]
    counts = Counter()

    def counted(what, fn):
        def wrapper(*args, **kwargs):
            counts[what] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patching the classes sees every call site, whatever name it imported
    monkeypatch.setattr(KmsFrame, "__init__", counted("frames", KmsFrame.__init__))
    monkeypatch.setattr(Lindbladian, "unit_matrix",
                        counted("units", Lindbladian.unit_matrix))
    assert main(argv) == 0
    assert (counts["frames"], counts["units"]) == BUILDS[model, command]


GRAPH_FAMILY = {
    "graph": {"model": "graph",
              "params": {"n_vertices": 3, "edges": [[0, 1], [1, 2]],
                         "weights": [0.5, 2.0], "sigma": [0.5, 0.3, 0.2]}},
    "birth_death": {"model": "birth_death", "params": {"sizes": [2, 3], "beta": 0.7}},
    "lift": {"model": "lift",
             "params": {"base": {"n_vertices": 2, "edges": [[0, 1]], "sigma": [0.6, 0.4]},
                        "A": [[1.0, 0.0], [0.0, 2.0]]}},
    "haar_gibbs": HAAR_COERCIVE,
}


@pytest.mark.parametrize("command", ["structure", "gap", "certify", "stp"])
@pytest.mark.parametrize("model", GRAPH_FAMILY)
def test_graph_family_commands_assemble_once(tmp_path, monkeypatch, model, command):
    # the builders construct their jumps and closed forms and assemble
    # nothing: one unit matrix per command, as on tfim, whether the command
    # reports or refuses (certify on every one, and stp on the two whose
    # kernel no Hamiltonian moves)
    spec = write_spec(tmp_path / "m.json",
                      dict(GRAPH_FAMILY[model], schema="lindgap-model/1"))
    calls = []
    unit_matrix = Lindbladian.unit_matrix
    monkeypatch.setattr(Lindbladian, "unit_matrix",
                        lambda *a, **k: calls.append(1) or unit_matrix(*a, **k))
    refused = command == "certify" or (command == "stp" and model in ("birth_death", "lift"))
    assert main([command, "--spec", spec, "--out", str(tmp_path / "out")]) == 2 * refused
    assert len(calls) == 1


def test_non_finite_jump_weight_is_one_input_error(tmp_path, capsys):
    # 4 w sqrt(mu_r / mu_s) overflows at w = 1e308: refused while the model is
    # built, on one line and with no numpy warning
    graph = GRAPH_FAMILY["graph"]
    spec = write_spec(tmp_path / "m.json", dict(
        graph, schema="lindgap-model/1", params=dict(graph["params"], weights=[1e308, 1.0])))
    for command in ("structure", "gap", "stp"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main([command, "--spec", spec, "--out", str(tmp_path / "out")]) == 2
        assert not seen
        assert capsys.readouterr().err == (
            "lindgap: input error: params: edge (0, 1) of weight 1e+308 gives a "
            "jump weight or walk rate that is not finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,command", [
    pytest.param(model, command, id=command if model == "tfim" else f"{model}-{command}")
    for model, command in BUILDS])
def test_each_command_takes_one_generator_scale(tmp_path, monkeypatch, model, command):
    # the scale of the invariance refusal, one SVD per jump, is taken once
    # per command, validate's two refusals (certify, spectral_gap) included
    spec = write_spec(tmp_path / "m.json",
                      TFIM3 if model == "tfim" else HAAR_COERCIVE)
    argv = [command, "--spec", spec, "--out", str(tmp_path / command)]
    if command == "validate":
        argv += ["--certificate", str(emit_certificate(tmp_path, spec))]
    magnitude, calls = Analysis.magnitude.func, []
    counted = cached_property(lambda self: calls.append(1) or magnitude(self))
    counted.__set_name__(Analysis, "magnitude")
    monkeypatch.setattr(Analysis, "magnitude", counted)
    assert main(argv) == 0
    assert len(calls) == 1


def test_validate_takes_one_svd_of_the_generator_matrix(tmp_path, monkeypatch):
    # the singular gap is solved sector by sector, each sector block once:
    # one stacked SVD per sector size, and together they cover the traceless
    # block (63 x 63 on tfim n=3) exactly once.  The other SVDs are those of
    # the kernel couplings Vp^T M_H V0, rectangular and per sector too, and
    # no solve of any kind is whole-space
    spec = write_spec(tmp_path / "tfim.json", TFIM3)
    cert = emit_certificate(tmp_path, spec)
    bundle = build_model(load_spec(spec))
    sectors = Analysis(bundle.lind, bundle.state).sectors
    sizes = sorted(S.shape[1] for S in sectors for _ in S)
    assert sum(sizes) == 8 * 8 - 1 and len(sizes) > 1
    shapes = {"svd": [], "eigvalsh": [], "eigh": [], "eigvals": []}
    for name, seen in shapes.items():
        def counted(a, *args, _fn=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["validate", "--spec", spec, "--out", str(tmp_path / "val"),
                 "--certificate", str(cert)]) == 0
    square = [shape for shape in shapes["svd"] if shape[-1] == shape[-2]]
    assert len(square) == len(sectors)
    assert sorted(s for k, s, _ in square for _ in range(k)) == sizes
    assert all(len(shape) == 3 for shape in shapes["svd"])
    assert max(max(shape[-2:]) for seen in shapes.values() for shape in seen) < 63


@pytest.mark.parametrize("model,command", [
    *(pytest.param(TFIM3, command, id=command)
      for command in ("structure", "certify", "stp", "validate")),
    pytest.param(HAAR_COERCIVE, "structure", id="haar_gibbs-structure"),
])
def test_no_solve_is_whole_space(tmp_path, monkeypatch, model, command):
    # tfim n=3 splits into several sectors: no eigensolve, SVD or matrix
    # exponential of a command takes the 63 traceless or 64 full coordinates
    # (or the doubled Van Loan block) at once.  On haar_gibbs (N = 3, a
    # non-uniform sigma) that includes the GNS defect: no solve takes 8 or 9
    spec = write_spec(tmp_path / "m.json", model)
    N = build_model(load_spec(spec)).state.dim
    argv = [command, "--spec", spec, "--out", str(tmp_path / command)]
    if command == "validate":
        argv += ["--certificate", str(emit_certificate(tmp_path, spec))]
    sides = []
    for name in ("eigh", "eigvalsh", "eigvals", "svd"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            sides.append(max(np.shape(a)[-2:]))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    evolve = import_module("lindgap.evolve")
    expm = evolve._expm
    monkeypatch.setattr(evolve, "_expm", lambda A: sides.append(A.shape[-1]) or expm(A))
    assert main(argv) == 0
    assert sides and max(sides) < N * N - 1


@pytest.mark.parametrize("model,command", [
    pytest.param(TFIM3, "certify", id="tfim-certify"),
    pytest.param(TFIM3, "stp", id="tfim-stp"),
    pytest.param(HAAR_COERCIVE, "stp", id="haar_gibbs-stp"),
])
def test_dissipator_is_decomposed_once(tmp_path, monkeypatch, model, command):
    # the kernel split's eigh serves lambda_D, ||L^D||, the coercive gap and
    # the STP weights: one stacked eigh per sector size, covering the
    # traceless coordinates exactly once, no whole-space eigh and no eigvalsh
    # beyond those of the model builder.  The Gram eigensolve of real_norm2,
    # a 2-norm such as ||M_H Pi_+||, is not one.
    spec = write_spec(tmp_path / "m.json", model)
    bundle = build_model(load_spec(spec))
    sectors = Analysis(bundle.lind, bundle.state).sectors
    sizes = sorted(S.shape[1] for S in sectors for _ in S)
    in_norm = []
    real_norm2 = import_module("lindgap.lindblad").real_norm2

    def flagged(A):
        in_norm.append(True)
        try:
            return real_norm2(A)
        finally:
            in_norm.pop()

    for name in ("lindblad", "certify", "evolve"):
        monkeypatch.setattr(import_module(f"lindgap.{name}"), "real_norm2", flagged)
    shapes = {"eigh": [], "eigvalsh": []}
    for name, seen in shapes.items():
        def counted(a, *args, _fn=getattr(np.linalg, name), _seen=seen, **kwargs):
            if not in_norm:
                _seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    build_model(load_spec(spec))
    builder = {name: list(seen) for name, seen in shapes.items()}
    for seen in shapes.values():
        seen.clear()
    assert main([command, "--spec", spec, "--out", str(tmp_path / command)]) == 0
    # stp's Gauss-Legendre nodes (degree 3) are the eigenvalues of a 4 x 4
    # Jacobi matrix
    assert shapes["eigvalsh"] == builder["eigvalsh"] + [(4, 4)] * (command == "stp")
    eigh = shapes["eigh"][len(builder["eigh"]):]
    assert shapes["eigh"][:len(builder["eigh"])] == builder["eigh"]
    # besides the split, the joint eigenbasis of sigma and H: N x N at most
    split = [shape for shape in eigh if len(shape) == 3]
    N = bundle.state.dim
    assert all(max(shape) <= N for shape in eigh if len(shape) == 2)
    assert len(split) == len(sectors)
    assert sorted(s for k, s, _ in split for _ in range(k)) == sizes


@pytest.mark.parametrize("command, flags, report", [
    ("certify", ["--T", "nan"], "certificate.json"),
    ("stp", ["--T", "nan"], "stp.json"),
    ("stp", ["--beta", "nan"], "stp.json"),
    ("stp", ["--beta", "inf"], "stp.json"),
    ("gap", ["--alpha-grid", "1,nan,10"], "gap.json"),
])
def test_non_finite_flags_are_input_errors(tmp_path, qubit_spec, capsys,
                                           command, flags, report):
    out = tmp_path / "out"
    assert main([command, "--spec", qubit_spec, "--out", str(out)] + flags) == 2
    assert f"input error: {flags[0]}:" in capsys.readouterr().err
    assert not (out / report).exists()


# ---------------------------------------------------------------------------
# spec and environment errors


def test_bad_param_type_names_the_field(tmp_path, capsys):
    spec = write_spec(tmp_path / "t.json", {
        "schema": "lindgap-model/1",
        "model": "tfim",
        "params": {"n": 2, "h": "strong", "gamma": 1.0},
    })
    assert main(["structure", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "params.h: expected a number, got str" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_non_finite_spec_number_names_the_field(tmp_path, capsys, gamma):
    # json writes and reads these as the NaN and Infinity literals
    spec = write_spec(tmp_path / "t.json", dict(TFIM3, params={"n": 2, "h": 1.0,
                                                               "gamma": gamma}))
    assert main(["structure", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "params.gamma: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "structure.json").exists()


def test_schema_and_model_errors(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", {"schema": "nope"})
    assert main(["structure", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "schema" in capsys.readouterr().err
    spec = write_spec(tmp_path / "m.json",
                      {"schema": "lindgap-model/1", "model": "quux"})
    assert main(["structure", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_invalid_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"schema\": ,\n}")
    assert main(["structure", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_spec_file(tmp_path, capsys):
    assert main(["structure", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    (dict(QUBIT_EXPLICIT, hamiltonian=[[0, 1], [0, 0]]), "hamiltonian"),
    ({"schema": "lindgap-model/1", "model": "graph",
      "params": {"n_vertices": 2, "edges": [[0, 1]], "sigma": [1, 1],
                 "hamiltonian": [[0, 1], [0, 0]]}}, "params.hamiltonian"),
])
def test_non_hermitian_hamiltonian_names_the_field(tmp_path, capsys, spec, field):
    path = write_spec(tmp_path / "h.json", spec)
    assert main(["structure", "--spec", path, "--out", str(tmp_path)]) == 2
    assert f"input error: {field}: H is not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [
    {"type": "eigenvalues", "values": [1.0, 0.0]},
    # H = X: e^{-1000} underflows beside e^{1000}
    {"type": "gibbs", "beta": 1000},
], ids=["eigenvalues", "gibbs"])
def test_refused_sigma_names_the_field(tmp_path, capsys, sigma):
    path = write_spec(tmp_path / "s.json", dict(QUBIT_EXPLICIT, sigma=sigma))
    assert main(["structure", "--spec", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "lindgap: input error: sigma: all eigenvalues must be positive\n"


def test_explicit_spec_validation(tmp_path, capsys):
    spec = dict(QUBIT_EXPLICIT)
    spec["dim"] = 2
    path = write_spec(tmp_path / "both.json", spec)
    assert main(["structure", "--spec", path, "--out", str(tmp_path)]) == 2
    assert "either dim or qubits" in capsys.readouterr().err
    spec = dict(QUBIT_EXPLICIT)
    spec["sigma"] = {"type": "thermal"}
    path = write_spec(tmp_path / "sig.json", spec)
    assert main(["structure", "--spec", path, "--out", str(tmp_path)]) == 2
    assert "maximally_mixed/eigenvalues/gibbs" in capsys.readouterr().err


def test_linalg_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    # a failed eigensolve exits 3 wherever it happens: in the gap's eigvals,
    # inside the strong-coupling limit (eigvalsh on tfim), or while the
    # model is built (eigvalsh of the single-jump model)
    def fail(*_a, **_k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    qubit = write_spec(tmp_path / "qubit.json", QUBIT_NAMED)
    tfim3 = write_spec(tmp_path / "tfim3.json", TFIM3)
    for spec, routine in ((qubit, "eigvals"), (tfim3, "eigvalsh"), (qubit, "eigvalsh")):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, routine, fail)
            assert main(["gap", "--spec", spec, "--out", str(tmp_path)]) == 3, \
                (spec, routine)
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 256. GiB for an array"),
     "Unable to allocate 256. GiB for an array"),
    (MemoryError(), "MemoryError")])
def test_out_of_memory_exits_numerical(tmp_path, monkeypatch, capsys, error, line):
    # an allocation that fails is a numerical failure, reported on one line
    def fail(_spec):
        raise error

    monkeypatch.setattr("lindgap.cli.build_model", fail)
    spec = write_spec(tmp_path / "tfim3.json", TFIM3)
    assert main(["structure", "--spec", spec, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"lindgap: numerical failure: {line}\n"


@pytest.mark.parametrize("command", ["structure", "stp"])
def test_negative_seed_names_the_flag(tmp_path, capsys, command):
    spec = write_spec(tmp_path / "tfim3.json", TFIM3)
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "lindgap: input error: --seed: must be a nonnegative integer\n"
    assert not out.exists()


def test_reports_record_the_applied_tolerances(tmp_path, qubit_spec, monkeypatch):
    # the gates read the module constants, so a tolerance variable left in
    # the environment changes no byte of a report
    cert = emit_certificate(tmp_path, qubit_spec)
    applied = {"cert_slack": CERT_SLACK, "db_tol": DB_DEFECT_TOL}
    for command in ("structure", "gap", "certify", "validate", "stp"):
        out = tmp_path / command
        extra = ["--certificate", str(cert)] if command == "validate" else []
        assert main([command, "--spec", qubit_spec, "--out", str(out)] + extra) == 0
        (report,) = out.glob("*.json")
        assert read_json(report)["tolerances"] == applied
    monkeypatch.setenv("LINDGAP_DB_TOL", "1e-30")
    monkeypatch.setenv("LINDGAP_CERT_SLACK", "1e-3")
    env = tmp_path / "env"
    assert main(["certify", "--spec", qubit_spec, "--out", str(env)]) == 0
    assert (env / "certificate.json").read_bytes() == cert.read_bytes()


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_version_and_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lindgap" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(c in out for c in ("structure", "gap", "certify", "validate", "stp"))
