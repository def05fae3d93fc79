"""Command-line interface: outputs, exit codes, diagnostics, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from lindgap.cli import build_parser, main
from lindgap.modelspec import _ENV_VARS, Tolerances

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_gap_csv_only(tmp_path, qubit_spec):
    out = tmp_path / "csvout"
    assert main(["gap", "--spec", qubit_spec, "--out", str(out),
                 "--format", "csv", "--alpha-grid", "1,10"]) == 0
    assert (out / "gap.csv").exists()
    assert not (out / "gap.json").exists()


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


def test_certify_is_deterministic(tmp_path, qubit_spec):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--spec", qubit_spec, "--out", str(out1)]) == 0
    assert main(["certify", "--spec", qubit_spec, "--out", str(out2)]) == 0
    assert (out1 / "certificate.json").read_bytes() \
        == (out2 / "certificate.json").read_bytes()


def test_certify_refuses_coercive_model(tmp_path, capsys):
    spec = write_spec(tmp_path / "haar.json", HAAR_COERCIVE)
    assert main(["certify", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "coercive" in capsys.readouterr().err


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


def test_validate_passes_on_tfim_with_default_flags(tmp_path):
    spec = write_spec(tmp_path / "tfim.json", {
        "schema": "lindgap-model/1",
        "model": "tfim",
        "params": {"n": 3, "h": 0.75, "gamma": 1.25},
    })
    cert = emit_certificate(tmp_path, spec)
    out = tmp_path / "val"
    assert main(["validate", "--spec", spec, "--out", str(out),
                 "--certificate", str(cert)]) == 0
    assert read_json(out / "validate.json")["report"]["passed"] is True


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
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"nu": -1.0, "T": 1.5, "C_T": 1.1}))
    assert main(["validate", "--spec", qubit_spec, "--out", str(tmp_path),
                 "--certificate", str(neg)]) == 2


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


def test_linalg_failure_exits_numerical(tmp_path, qubit_spec, monkeypatch, capsys):
    def fail(*_a, **_k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    assert main(["gap", "--spec", qubit_spec, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_env_override_recorded(tmp_path, qubit_spec, monkeypatch):
    monkeypatch.setenv("LINDGAP_CERT_SLACK", "1e-3")
    out = tmp_path / "env"
    cert = emit_certificate(tmp_path, qubit_spec)
    assert main(["validate", "--spec", qubit_spec, "--out", str(out),
                 "--certificate", str(cert)]) == 0
    doc = read_json(out / "validate.json")
    assert doc["tolerances"]["cert_slack"] == 1e-3


def test_env_override_rejects_garbage(tmp_path, qubit_spec, monkeypatch, capsys):
    monkeypatch.setenv("LINDGAP_CERT_SLACK", "abc")
    assert main(["structure", "--spec", qubit_spec,
                 "--out", str(tmp_path)]) == 2
    assert "LINDGAP_CERT_SLACK" in capsys.readouterr().err


def test_env_overrides_are_one_list():
    assert set(Tolerances().as_dict()) == set(_ENV_VARS)
    for name, var in _ENV_VARS.items():
        assert Tolerances.from_env({var: "0.25"}).as_dict()[name] == 0.25
    documented = set(re.findall(r"LINDGAP_\w+", build_parser().epilog))
    assert documented == set(_ENV_VARS.values())
    section = README.read_text(encoding="utf-8") \
        .split("### Environment overrides", 1)[1].split("\n#", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert set(re.findall(r"`(LINDGAP_\w+)`", "\n".join(table))) \
        == set(_ENV_VARS.values())


def test_version_and_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lindgap" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "LINDGAP_CERT_SLACK" in capsys.readouterr().out
