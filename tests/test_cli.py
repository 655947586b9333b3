import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ctxcert import bbmodel, nogo
from ctxcert.cli import main
from ctxcert.nogo import MAX_DISJOINT_PAIRS
from ctxcert.operational import (
    MixtureDecl,
    OperationalTheory,
    hexagon_states,
    hexagon_theory,
    render_bloch_disk_svg,
)
from ctxcert.qmath import DensityOperator, matrix_to_json


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def theory_file(tmp_path):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(hexagon_theory().to_json()))
    return path


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["a", "A"],
                "disjoint_pairs": [["a", "A"]],
                "equality_groups": [{"a": "1/2", "A": "1/2"}],
            }
        )
    )
    return path


class TestNogoCommand:
    def test_prep_writes_full_certificate(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, stdout, _ = _run(capsys, "nogo", "prep", "--out", str(out))
        assert code == 0
        assert "Infeasible" in stdout
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Infeasible"
        assert len(doc["cases"]) == 8
        assert all(case["conclusion"] == "all-zero" for case in doc["cases"])

    def test_meas_lists_eight_assignments(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = _run(capsys, "nogo", "meas", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["cases"]) == 8
        assert all(case["values"] != ["1/2", "1/2"] for case in doc["cases"])

    def test_transf_reports_premises_and_verdict(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = _run(capsys, "nogo", "transf", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Infeasible"
        names = {check["name"] for check in doc["premise_checks"]}
        assert {"K1", "K2", "K3", "K4", "K5", "disjoint-image"} <= names

    def test_gleason_and_od_unsharp(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, _, _ = _run(capsys, "nogo", "gleason", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["forced_value"] == pytest.approx(0.25)
        code, _, _ = _run(capsys, "nogo", "od-unsharp", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["contradiction"] is True

    def test_stdout_mode_moves_summary_to_stderr(self, capsys):
        code, stdout, stderr = _run(capsys, "nogo", "prep")
        assert code == 0
        assert json.loads(stdout)["verdict"] == "Infeasible"
        assert "Infeasible" in stderr

    def test_text_format(self, capsys):
        code, stdout, _ = _run(capsys, "nogo", "od-unsharp", "--format", "text")
        assert code == 0
        assert "contradiction: True" in stdout

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        _run(capsys, "nogo", "transf", "--out", str(first))
        _run(capsys, "nogo", "transf", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()


class TestFeasibilityCommand:
    def test_canonical_theory_is_infeasible_exit_three(self, capsys, theory_file, tmp_path):
        out = tmp_path / "cert.json"
        code, stdout, _ = _run(capsys, "feasibility", str(theory_file), "--out", str(out))
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Infeasible"
        assert len(doc["cases"]) == 8
        assert set(doc["system"]["variables"]) == set("aAbBcC")

    def test_toy_system_is_feasible_exit_zero(self, capsys, toy_file, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = _run(capsys, "feasibility", str(toy_file), "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Feasible"
        assert doc["witness"]["ontic_size"] == 2

    def test_truncated_file_exits_two_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variables": [')
        code, _, stderr = _run(capsys, "feasibility", str(bad))
        assert code == 2
        assert "line" in stderr and "column" in stderr

    def test_unrecognized_document_exits_two(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"something": 1}')
        code, _, _ = _run(capsys, "feasibility", str(other))
        assert code == 2

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = _run(capsys, "feasibility", str(tmp_path / "absent.json"))
        assert code == 2

    def test_one_pair_over_the_enumeration_bound_exits_two(self, capsys, tmp_path):
        n = MAX_DISJOINT_PAIRS + 1
        path = tmp_path / "large.json"
        path.write_text(
            json.dumps(
                {
                    "variables": [f"v{i}" for i in range(2 * n)],
                    "disjoint_pairs": [[f"v{2 * i}", f"v{2 * i + 1}"] for i in range(n)],
                }
            )
        )
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "exceed the enumeration bound" in stderr

    def test_stage_one_over_its_work_bound_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(nogo, "MAX_STAGE1_WORK", 0)
        path = tmp_path / "system.json"
        system = {"variables": ["a", "b"], "equality_groups": [{"a": 1}, {"b": 1}]}
        path.write_text(json.dumps(system))
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "over the work bound" in stderr

    @pytest.mark.parametrize(
        "text",
        [
            '{"variables": "abc"}',
            '{"variables": ["a", "b"], "disjoint_pairs": ["ab"]}',
            '{"variables": ["a"], "equality_groups": [["a", 1]]}',
            '{"variables": ["a"], "equality_groups": [{"a": 1e400}]}',
            '{"variables": ["a"], "equality_groups": [{"a": "1/0"}]}',
            '{"variables": ["a"], "equality_groups": [{"a": true}]}',
        ],
    )
    def test_malformed_system_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "system.json"
        path.write_text(text)
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "doc, named",
        [
            (
                {"variables": ["a", "A"], "disjoint_pairs": [["a", "a"]]},
                "a disjointness pair needs two distinct variables, got 'a'",
            ),
            (
                {"variables": ["a", "b"], "disjoint_pairs": [["a", "b"], ["b", "a"]]},
                "duplicate pair ('b', 'a')",
            ),
            (
                {"variables": ["a"], "equality_groups": [{"a": 1, "z": 1}]},
                "form references undeclared variable 'z'",
            ),
        ],
        ids=["same-pair", "repeated-pair", "undeclared-form-variable"],
    )
    def test_refused_system_exits_two_naming_the_fault(self, capsys, tmp_path, doc, named):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert stderr.startswith(f"error: {named}")

    def test_text_format_renders_an_empty_object_as_braces(self, capsys, toy_file):
        code, stdout, _ = _run(capsys, "feasibility", str(toy_file), "--format", "text")
        assert code == 0
        assert "\n  measurements:\n    {}\n  transformations:\n    {}\n" in stdout
        assert "\npremise_checks:\n  []\n" in stdout

    @staticmethod
    def _theory_file(tmp_path, mixtures, states=("a", "A", "b")):
        """A theory of the given hexagon states and the given
        ``(target, components)`` mixtures."""
        hexagon = hexagon_states()
        preps = {name: hexagon[name] for name in states}
        decls = []
        for target, components in mixtures:
            preps[target] = DensityOperator(sum(w * preps[l].matrix for w, l in components))
            decls.append(MixtureDecl("prep", target, components))
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(OperationalTheory(preps, mixtures=decls).to_json()))
        return path

    def test_targets_in_two_equivalence_classes_exit_two(self, capsys, tmp_path):
        path = self._theory_file(
            tmp_path, [("aA", ((0.5, "a"), (0.5, "A"))), ("ab", ((0.5, "a"), (0.5, "b")))]
        )
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "mixture targets fall into more than one equivalence class" in stderr

    def test_component_that_is_a_target_exits_two(self, capsys, tmp_path):
        path = self._theory_file(
            tmp_path, [("aA", ((0.5, "a"), (0.5, "A"))), ("again", ((1.0, "aA"),))]
        )
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "mixture component 'aA' is itself a mixture target" in stderr

    def test_non_finite_density_matrix_exits_two(self, capsys, tmp_path):
        path = self._theory_file(tmp_path, [("aA", ((0.5, "a"), (0.5, "A")))], states=("a", "A"))
        doc = json.loads(path.read_text())
        doc["preparations"][0]["rho"] = [[[float("nan"), 0.0]] * 2] * 2
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "finite" in stderr

    @pytest.mark.parametrize("tol", [[], ["--tol", "nan"], ["--tol", "inf"]])
    def test_false_mixture_exits_two_at_every_tolerance(self, capsys, tmp_path, tol):
        path = self._theory_file(tmp_path, [("aA", ((0.5, "a"), (0.5, "A")))])
        doc = json.loads(path.read_text())
        doc["mixtures"][0]["components"][1]["label"] = "b"
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(path), *tol)
        assert code == 2
        named = "--tol must be positive" if tol else "mixtures[0]: prep mixture 'aA' fails"
        assert named in stderr

    def test_weight_without_an_exact_rational_exits_two(self, capsys, tmp_path):
        w = 0.123456789012
        path = self._theory_file(tmp_path, [("m", ((0.5, "a"), (0.5, "A")))], states=("a", "A"))
        doc = json.loads(path.read_text())
        doc["preparations"][-1]["rho"] = matrix_to_json(np.diag([w, 1 - w]))
        for component, weight in zip(doc["mixtures"][0]["components"], (w, 1 - w)):
            component["weight"] = weight
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "no small exact rational representation" in stderr

    def test_rational_string_weights_give_the_float_file_bytes(self, capsys, theory_file, tmp_path):
        doc = json.loads(theory_file.read_text())
        for decl in doc["mixtures"]:
            for component in decl["components"]:
                component["weight"] = {0.5: "1/2", 1 / 3: "1/3"}[component["weight"]]
        rational = tmp_path / "rational.json"
        rational.write_text(json.dumps(doc))
        expected = _run(capsys, "feasibility", str(theory_file))
        assert expected[0] == 3
        assert _run(capsys, "feasibility", str(rational)) == expected

    def test_boolean_weight_exits_two(self, capsys, tmp_path):
        path = self._theory_file(tmp_path, [("m", ((1, "a"),))], states=("a", "A"))
        doc = json.loads(path.read_text())
        doc["mixtures"][0]["components"][0]["weight"] = True
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(path))
        assert code == 2
        assert "cannot interpret True" in stderr

    def test_meas_weights_summing_to_one_only_within_tolerance_exit_two(self, capsys, theory_file):
        doc = json.loads(theory_file.read_text())
        meas = next(d for d in doc["mixtures"] if d["kind"] == "meas")
        # The sum is off by 6.7e-10.  A string, since a float that misses 1/3 by less than
        # 1e-9 is refused as inexact: other rationals with denominator <= 10**6 lie 3e-7 away.
        meas["components"][2]["weight"] = "333333334/1000000000"
        theory_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(theory_file))
        assert code == 2
        assert "weights of 'M' have no small exact rational representation summing to 1" in stderr

    @pytest.mark.parametrize("row, col, entry", [(0, 0, ["1", 0]), (0, 1, [False, 0])])
    def test_matrix_entry_that_is_not_a_number_exits_two(
        self, capsys, theory_file, row, col, entry
    ):
        doc = json.loads(theory_file.read_text())
        doc["preparations"][0]["rho"][row][col] = entry
        theory_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(theory_file))
        assert code == 2
        assert "expected a number" in stderr

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (
                ("mixtures", 0, "components", 0, "label"),
                "zz",
                "prep mixture 'aA': unknown preparation 'zz'",
            ),
            (("mixtures", 0, "target"), "nope", "prep mixture 'nope': unknown preparation 'nope'"),
            (("mixtures", 0, "kind"), "meas", "meas mixture 'aA': unknown measurement 'aA'"),
            (("preparations",), "abc", "theory field 'preparations'"),
            (("mixtures",), {"aA": {}}, "theory field 'mixtures'"),
            (("preparations", 1, "label"), "a", "duplicate preparation label 'a'"),
            (("measurements", 1, "label"), "Ma", "duplicate measurement label 'Ma'"),
            (("transformations", 1, "label"), "T0", "duplicate transformation label 'T0'"),
            (
                ("preparations", 0, "label"),
                ["a"],
                "theory field 'preparations': label ['a'] is not a string",
            ),
            (
                ("preparations", 0, "label"),
                9,
                "theory field 'preparations': label 9 is not a string",
            ),
            (
                ("mixtures", 0, "target"),
                ["aA"],
                "theory field 'mixtures': target ['aA'] is not a string",
            ),
            (
                ("measurements", 0, "effects"),
                5,
                "theory field 'measurements': effects of 'Ma': expected a list, got 5",
            ),
            (
                ("measurements", 0, "effects"),
                [5],
                "theory field 'measurements': effects of 'Ma': expected a matrix as a list of rows",
            ),
            (
                ("transformations", 0, "kraus"),
                5,
                "theory field 'transformations': kraus of 'T0': expected a list, got 5",
            ),
            (
                ("preparations", 0, "rho"),
                5,
                "theory field 'preparations': rho of 'a': expected a list, got 5",
            ),
            (
                ("preparations", 2, "rho", 0, 0),
                [2, 0],
                "theory field 'preparations': rho of 'b': density operator must have unit trace",
            ),
            (
                ("measurements", 0, "effects", 0, 1, 1),
                [1.7, 0],
                "theory field 'measurements': effects of 'Ma': effect spectrum",
            ),
            (
                ("preparations", 0, "rho"),
                matrix_to_json(np.eye(3) / 3),
                "all procedures in a theory must share one dimension",
            ),
            (
                ("transformations", 0, "kraus"),
                [],
                "theory field 'transformations': kraus of 'T0': "
                "a channel needs at least one Kraus operator",
            ),
        ],
        ids=[
            "component", "target", "kind", "preparations", "mixtures", "repeated-preparation",
            "repeated-measurement", "repeated-transformation", "list-label", "number-label",
            "list-target", "number-effects", "number-effect", "number-kraus", "number-rho",
            "invalid-rho", "invalid-effect", "qutrit-rho", "no-kraus",
        ],
    )
    def test_theory_error_names_the_mixture_or_field(
        self, capsys, theory_file, path, value, named
    ):
        doc = json.loads(theory_file.read_text())
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        theory_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "feasibility", str(theory_file))
        assert code == 2
        assert named in stderr


class TestSimulateCommand:
    def test_balanced_mixture_against_neighbor_pvm(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code, _, _ = _run(
            capsys,
            "simulate-bb",
            "--prep",
            "0.5:a,0.5:A",
            "--povm",
            "b",
            "--samples",
            "100000",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["born"] == pytest.approx([0.5, 0.5])
        assert doc["n"] == 100000 and doc["seed"] == 7

    def test_pure_eigenstate_is_exact(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code, _, _ = _run(
            capsys, "simulate-bb", "--prep", "a", "--povm", "a",
            "--samples", "5000", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["frequencies"] == [1.0, 0.0]
        assert doc["max_abs_dev"] == 0.0

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate-bb", "--prep", "0.5:a,0.5:A", "--povm", "trivial",
                "--samples", "20000", "--seed", "3"]
        _run(capsys, *argv, "--out", str(first))
        _run(capsys, *argv, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_state_exits_two(self, capsys):
        code, _, _ = _run(capsys, "simulate-bb", "--prep", "q", "--povm", "a")
        assert code == 2

    def test_non_finite_weight_exits_two(self, capsys):
        code, _, stderr = _run(capsys, "simulate-bb", "--prep", "nan:a", "--povm", "a")
        assert code == 2
        assert "finite" in stderr

    def test_non_finite_povm_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "povm.json"
        nan, half, zero = [float("nan"), 0.0], [0.5, 0.0], [0.0, 0.0]
        effects = [[[nan, zero], [zero, half]], [[half, zero], [zero, half]]]
        path.write_text(json.dumps({"effects": effects}))
        code, _, stderr = _run(capsys, "simulate-bb", "--prep", "a", "--povm", f"@{path}")
        assert code == 2
        assert "finite" in stderr

    def test_non_qubit_povm_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "qutrit.json"
        effect = [[[1 / 3 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
        path.write_text(json.dumps({"effects": [effect] * 3}))
        code, _, stderr = _run(
            capsys, "simulate-bb", "--prep", "a", "--povm", f"@{path}", "--samples", "10"
        )
        assert code == 2
        assert "qubits only" in stderr

    @pytest.mark.parametrize(
        "flag, doc, named",
        [
            ("--prep", [{"weight": 1.0, "state": [["1", 0], [0, 0]]}], "expected a number"),
            (
                "--prep",
                {"weight": 1.0, "state": [[1, 0], [0, 0]]},
                "{spec}: expected a list of objects with fields weight, state",
            ),
            ("--povm", {"effects": [[[1, 0], [0, 0]]]}, "expected a complex number"),
            ("--prep", [{"weight": 1.0, "state": [[True, 0], [0, 0]]}], "expected a number"),
            (
                "--prep",
                [{"weight": True, "state": [[1, 0], [0, 0]]}],
                "{spec}: entry 0: field 'weight': expected a number, got True",
            ),
            ("--prep", [{"state": [[1, 0], [0, 0]]}], "{spec}: entry 0 has no field 'weight'"),
            ("--prep", [5], "{spec}: entry 0 is not an object with fields weight, state"),
            ("--prep", [{"weight": 1.0, "state": 5}], "{spec}: entry 0: field 'state' is not a list"),
            ("--povm", {"effects": 5}, "{spec}: field 'effects' is not a list of matrices"),
            (
                "--prep",
                [{"weight": 1.0, "state": ["x", [0, 0]]}],
                "{spec}: entry 0: field 'state': expected a complex number as [re, im], got 'x'",
            ),
            (
                "--povm",
                {"effects": [5]},
                "{spec}: field 'effects', entry 0: expected a matrix as a list of rows, got 5",
            ),
            ("--prep", [], "{spec}: a preparation needs at least one component"),
            ("--povm", [], "{spec}: a POVM needs at least one outcome"),
        ],
        # The first five are the ids pytest generates for the cases without ``named``.
        ids=[
            "--prep-doc0", "--prep-doc1", "--povm-doc2", "--prep-doc3", "--prep-doc4",
            "--prep-missing-weight", "--prep-number-entry", "--prep-number-state",
            "--povm-number-effects", "--prep-string-amplitude", "--povm-number-effect",
            "--prep-empty", "--povm-empty",
        ],
    )
    def test_malformed_file_exits_two(self, capsys, tmp_path, flag, doc, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        # The later occurrence of the flag overrides the earlier one.
        argv = ["--prep", "a", "--povm", "a", "--samples", "10", flag, f"@{path}"]
        code, _, stderr = _run(capsys, "simulate-bb", *argv)
        assert code == 2
        assert stderr.startswith("error: ")
        assert named.format(spec=f"{flag} @{path}") in stderr

    @pytest.mark.parametrize(
        "prep",
        [
            "0.5:a,0.5:A",
            # The canonical ray of b is not a fixed point of its own normalization:
            # read back, the amplitudes move by an ulp, and the Born values with them.
            pytest.param("0.5:b,0.5:B", marks=pytest.mark.xfail(strict=True)),
        ],
    )
    def test_report_fields_as_files_reproduce_the_report(self, capsys, tmp_path, prep):
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        argv = ["simulate-bb", "--povm", "b", "--samples", "1000", "--seed", "5"]
        assert _run(capsys, *argv, "--prep", prep, "--out", str(first))[0] == 0
        doc = json.loads(first.read_text())
        for field in ("prep", "povm"):
            (tmp_path / f"{field}.json").write_text(json.dumps(doc[field]))
        files = ["--prep", f"@{tmp_path / 'prep.json'}", "--povm", f"@{tmp_path / 'povm.json'}"]
        assert _run(capsys, *argv, *files, "--out", str(again))[0] == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("flag", ["--prep", "--povm"])
    @pytest.mark.parametrize(
        "text, named",
        [(None, "cannot read"), ('[{"weight": 1', "malformed JSON at line 1, column 14")],
        ids=["missing", "truncated"],
    )
    def test_unreadable_file_exits_two_naming_the_flag(self, capsys, tmp_path, flag, text, named):
        path = tmp_path / "spec.json"
        if text is not None:
            path.write_text(text)
        argv = ["--prep", "a", "--povm", "a", "--samples", "10", flag, f"@{path}"]
        code, _, stderr = _run(capsys, "simulate-bb", *argv)
        assert code == 2
        assert stderr.startswith(f"error: {flag} @{path}: {named}")

    @pytest.mark.parametrize(
        "flag, spec, named",
        [
            ("--prep", "x:a", "could not convert string to float: 'x'"),
            ("--prep", "0.5:z", "unknown state 'z'"),
            ("--povm", "q", "unknown POVM 'q'"),
        ],
        ids=["--prep-weight", "--prep-state", "--povm-name"],
    )
    def test_inline_spec_error_names_the_flag(self, capsys, flag, spec, named):
        argv = ["--prep", "a", "--povm", "a", "--samples", "10", flag, spec]
        code, _, stderr = _run(capsys, "simulate-bb", *argv)
        assert code == 2
        assert stderr.startswith(f"error: {flag} {spec}: {named}")

    def test_bad_sample_count_exits_two(self, capsys):
        code, _, _ = _run(
            capsys, "simulate-bb", "--prep", "a", "--povm", "a", "--samples", "0"
        )
        assert code == 2

    def test_sample_count_over_the_limit_exits_two_before_drawing(self, capsys, monkeypatch):
        def unreachable(*args):
            raise RuntimeError("the generator was built")

        monkeypatch.setattr(bbmodel, "_rng", unreachable)
        argv = ["--prep", "a", "--povm", "a", "--samples", str(10**12)]
        code, _, stderr = _run(capsys, "simulate-bb", *argv)
        assert code == 2
        assert f"limit of {bbmodel.MAX_SAMPLES}" in stderr


class TestFigureCommand:
    def test_svg_structure(self, capsys, tmp_path):
        out = tmp_path / "figure.svg"
        code, stdout, _ = _run(capsys, "figure-bloch", "--out", str(out))
        assert code == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"
        by_class = {}
        for element in root.iter():
            cls = element.get("class")
            if cls:
                by_class[cls] = by_class.get(cls, 0) + 1
        assert by_class["state-marker"] == 6
        assert by_class["state-label"] == 6
        assert by_class["decomposition-segment"] == 3
        assert by_class["decomposition-triangle"] == 2
        assert by_class["center-marker"] == 1

    def test_first_state_sits_at_the_top_of_the_disk(self):
        svg = render_bloch_disk_svg()
        root = ET.fromstring(svg)
        markers = [e for e in root.iter() if e.get("class") == "state-marker"]
        tops = [float(e.get("cy")) for e in markers]
        center = 210.0
        # One marker at angle 90 degrees: x = center, minimal y.
        top = min(markers, key=lambda e: float(e.get("cy")))
        assert float(top.get("cx")) == pytest.approx(center)
        assert float(top.get("cy")) == pytest.approx(center - 170.0)
        assert min(tops) < center - 100

    def test_deterministic_output(self):
        assert render_bloch_disk_svg() == render_bloch_disk_svg()


class TestFlagValidation:
    def test_nonpositive_tol_rejected(self, capsys):
        code, _, _ = _run(capsys, "nogo", "prep", "--tol", "0")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, capsys, tol):
        code, _, stderr = _run(capsys, "nogo", "prep", "--tol", tol)
        assert code == 2
        assert "--tol must be positive and finite" in stderr

    @pytest.mark.parametrize("tol", ["0.3", "inf"])
    def test_gleason_tol_without_a_fractional_value_exits_two(self, capsys, tol):
        code, _, stderr = _run(capsys, "nogo", "gleason", "--tol", tol)
        assert code == 2
        assert "error" in stderr and "internal" not in stderr

    @pytest.mark.parametrize(
        "argv",
        [["figure-bloch"], ["simulate-bb", "--prep", "a", "--povm", "a"]],
    )
    def test_tol_is_a_usage_error_where_nothing_reads_it(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_format_is_a_usage_error_on_figure_bloch(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure-bloch", "--format", "text"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestExitCodeContract:
    def test_verification_failure_exits_four(self, capsys, monkeypatch):
        from ctxcert.nogo import VerificationError

        def broken():
            raise VerificationError("premise corrupted")

        monkeypatch.setattr(nogo, "prep_nogo", broken)
        code, _, stderr = _run(capsys, "nogo", "prep")
        assert code == 4
        assert "verification failed" in stderr

    def test_witness_verification_failure_exits_four(self, capsys, monkeypatch, toy_file):
        def broken(system, witness, tol):
            raise nogo.VerificationError("witness corrupted")

        monkeypatch.setattr(nogo, "_verify_witness", broken)
        code, _, stderr = _run(capsys, "feasibility", str(toy_file))
        assert code == 4
        assert "verification failed: witness corrupted" in stderr

    def test_deviating_witness_exits_four(self, capsys, monkeypatch, toy_file):
        build = nogo._witness_model

        def nudged(system, used):
            witness = build(system, used)
            values = witness.preparations["a"]
            shifted = {**witness.preparations, "a": (values[0] + 1e-6, *values[1:])}
            return nogo.Witness(witness.ontic_size, shifted)

        monkeypatch.setattr(nogo, "_witness_model", nudged)
        code, _, stderr = _run(capsys, "feasibility", str(toy_file))
        assert code == 4
        assert "verification failed: witness deviates from its system by 1.000e-06" in stderr

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        code, _, stderr = _run(capsys, "nogo", "od-unsharp", "--out", str(target))
        assert code == 1
        assert "error" in stderr
