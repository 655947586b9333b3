"""Each CLI subcommand loads only the modules it runs, and the package's
exports resolve lazily to the objects their submodules define."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxcert
from ctxcert.nogo import system_from_theory
from ctxcert.operational import hexagon_theory

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints, as its last line, the ``ctxcert`` submodules and whether numpy is
#: loaded after ``import ctxcert`` and, given arguments, one ``cli.main`` run.
SCRIPT = """
import json, sys
import ctxcert
code = None
if sys.argv[1:]:
    from ctxcert.cli import main
    code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ctxcert.")),
    "numpy": "numpy" in sys.modules,
}))
"""

NOGO = ["cli", "nogo", "operational", "qmath"]


def _fresh(*argv: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_ctxcert_loads_no_submodule_and_no_numpy():
    assert _fresh() == {"code": None, "modules": [], "numpy": False}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    theory = hexagon_theory()
    (directory / "system.json").write_text(json.dumps(system_from_theory(theory).to_json()))
    (directory / "theory.json").write_text(json.dumps(theory.to_json()))
    return directory


@pytest.mark.parametrize(
    "command, code, modules",
    [
        ("figure-bloch", 0, ["cli", "operational", "qmath"]),
        (
            "simulate-bb --prep 0.5:a,0.5:A --povm b --samples 1000",
            0,
            ["bbmodel", "cli", "operational", "qmath"],
        ),
        ("nogo prep", 0, NOGO),
        ("nogo meas", 0, NOGO),
        ("nogo gleason", 0, NOGO),
        ("nogo transf", 0, sorted(NOGO + ["kraus"])),
        ("nogo od-unsharp", 0, sorted(NOGO + ["ontomodel"])),
        ("feasibility system.json", 3, NOGO),
        ("feasibility theory.json", 3, NOGO),
    ],
)
def test_each_subcommand_loads_only_its_modules(inputs, tmp_path, command, code, modules):
    argv = command.split()
    if argv[0] == "feasibility":
        argv[1] = str(inputs / argv[1])
    report = _fresh(*argv, "--out", str(tmp_path / "out"))
    assert (report["code"], report["modules"]) == (code, modules)


def test_every_export_is_its_submodules_object():
    assert ctxcert.__all__
    for name in ctxcert.__all__:
        module = importlib.import_module(f"ctxcert.{ctxcert._EXPORTS[name]}")
        assert getattr(ctxcert, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert {*ctxcert.__all__, "__version__"} <= set(dir(ctxcert))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ctxcert' has no attribute 'no_such_name'$"):
        ctxcert.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from ctxcert import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from ctxcert import *", namespace)
    assert set(ctxcert.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(ctxcert, name) for name in ctxcert.__all__)


def test_running_the_cli_module_raises_no_runtime_warning(tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ctxcert.cli", "figure-bloch", "--out", str(tmp_path / "f.svg")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
