"""The README's code samples name what the package exports, and its test
commands are the ones the CI workflow runs."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_entry_points_import():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from ctxcert import" in block
    exec(compile(block, str(README), "exec"), {})


def test_ci_runs_the_readme_test_commands_on_the_dependency_floor():
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())["jobs"]["tests"]
    runs = [step["run"] for step in job["steps"] if "pytest" in step.get("run", "")]
    section = README.read_text().split("## Tests", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = {line.split(" #", 1)[0].strip() for line in block.splitlines()}
    assert runs and set(runs) <= commands
    pyproject = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'requires-python = ">=([\d.]+)"', pyproject).group(1)
    numpy = re.search(r'"numpy>=([\d.]+)"', pyproject).group(1)
    assert python in job["strategy"]["matrix"]["python"]
    assert f"numpy=={numpy}.*" in job["strategy"]["matrix"]["numpy"]
