"""The benchmark's tracer wraps the library from outside and changes no report.

perfbench/tracing.py patches every public layer function and, by name,
KmsFrame.__init__(self, state), KmsFrame.coords and Lindbladian.apply; a
renamed or re-signed one breaks its hooks.  Here it runs around `structure`
and `stp` on two models, and each command must exit 0 and write the report
and print the output of an untraced call, byte for byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import lindgap.cli as cli

ROOT = Path(__file__).resolve().parents[1]

SPECS = {
    "tfim2": {"schema": "lindgap-model/1", "model": "tfim",
              "params": {"n": 2, "h": 0.9, "gamma": 1.1}},
    "haar4": {"schema": "lindgap-model/1", "model": "haar_gibbs",
              "params": {"spectrum": [0.0, 0.5, 1.25, 2.0], "beta": 1.0}},
}
COMMANDS = {"structure": "structure.json", "stp": "stp.json"}


def _tracer():
    """A fresh perfbench Tracer, loaded from its file and left unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


def _run(tmp_path, capsys) -> list[tuple[int, str, bytes]]:
    out = []
    for cmd, report in COMMANDS.items():
        code = cli.main([cmd, "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path / "out")])
        out.append((code, capsys.readouterr().out, (tmp_path / "out" / report).read_bytes()))
    return out


@pytest.mark.parametrize("model", sorted(SPECS))
def test_traced_commands_report_as_untraced_ones(tmp_path, capsys, model):
    (tmp_path / "spec.json").write_text(json.dumps(SPECS[model]))
    main = cli.main
    tracer = _tracer()
    tracer.install()
    try:
        traced = _run(tmp_path, capsys)
    finally:
        tracer.uninstall()
    assert cli.main is main
    # the hooks ran: one span per command, frames built and coordinates taken
    assert tracer.calls["cli.main"] == len(COMMANDS)
    assert tracer.calls["operators.KmsFrame"] >= len(COMMANDS)
    assert tracer.calls["operators.KmsFrame.coords"] > 0
    assert [code for code, _, _ in traced] == [0] * len(COMMANDS)
    assert _run(tmp_path, capsys) == traced
