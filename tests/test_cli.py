import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from planlib import ghz_chain, wide_x_chain, x_chain
from quditmbqc import cli, compiler as comp
from quditmbqc.cli import main
from quditmbqc.compiler import compile_general_prime, compile_nand, compile_odd_ring
from quditmbqc.engine import MbqcPlan, TableResource
from quditmbqc.errors import PlanFormatError, QuditMbqcError, VerificationError
from quditmbqc.fields import is_polynomial_over_ring
from quditmbqc.states import SparseState, basis_state
from quditmbqc.weyl import WeylLabel, named_clifford
from quditmbqc.witnesses import analyze_plan, ncva_search

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _prime3():
    return compile_general_prime([1, 0, 2])


def _ident(d):
    return named_clifford(d, "weyl-displacement", x=(0, 0))


def _table_plan():
    res = TableResource.deterministic(2, {(0, 0): (0, 0)})
    return SimpleNamespace(plan=MbqcPlan(
        d=2, n=1, N=2, resource=res, parties=[(WeylLabel(2, (1, 0)), _ident(2))] * 2,
        Q=[[0]] * 2, T=[[0, 0]] * 2, z=[1, 1], s0=0))


MISMATCH = "output mismatch at input (0,): plan gives 1, target 0"


def _failing_verify(construction):
    """comp.verify, refusing every report of one construction."""
    real = comp.verify

    def fake(report):
        if report.construction == construction:
            raise VerificationError(MISMATCH)
        return real(report)
    return fake


def _analyze(tmp_path, plan, *flags):
    plan_file = tmp_path / "plan.json"
    plan.save(plan_file)
    return main(["analyze", "--plan", str(plan_file), *flags])


class TestDemo:
    def test_nand(self, capsys):
        assert main(["demo", "nand"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("construction: nand-ghz\nqudits: 3\nverified: true\n"
                              "d: 2  inputs: 2  parties: 3\n")
        assert "output table: 1,1,1,0" in out
        assert "degree witness: strongly-nonlocal" in out
        assert "assignment search: strongly-nonlocal (searched 2^6 assignments)" in out

    def test_exponential(self, capsys):
        assert main(["demo", "exponential", "--d", "5", "--u", "2"]) == 0
        out = capsys.readouterr().out
        assert "output table: 1,3,4,2,1" in out
        assert "assignment search: ncva-found" in out

    def test_quadratic_d3(self, capsys):
        assert main(["demo", "quadratic", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "output table: 0,0,1" in out

    def test_bad_params_exit_2(self, capsys):
        assert main(["demo", "quadratic", "--d", "4"]) == 2

    @pytest.mark.parametrize("argv, table", [
        (["quadratic", "--d", "9"], [x * (x - 1) // 2 % 9 for x in range(9)]),
        (["exponential", "--d", "4", "--u", "3"], [1, 3, 1, 3]),
    ], ids=["quadratic_d9", "exponential_d4"])
    def test_composite_d_simulated(self, capsys, argv, table):
        assert main(["demo", *argv, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verified"] is obj["deterministic"] is obj["simulated"] is True
        assert obj["table"] == table

    @pytest.mark.parametrize("name, flag", [("nand", "--d"), ("nand", "--u"), ("quadratic", "--u")])
    def test_flag_that_does_not_apply_exit_2(self, name, flag, capsys):
        assert main(["demo", name, flag, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} does not apply to demo {name}\n"

    def test_exponential_default_u(self, capsys):
        assert main(["demo", "exponential", "--d", "5"]) == 0
        assert "output table: 1,3,4,2,1" in capsys.readouterr().out

    def test_quadratic_d5_simulated(self, capsys):
        assert main(["demo", "quadratic", "--d", "5", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["simulated"] is True
        assert obj["table"] == [0, 0, 1, 3, 1]

    @pytest.mark.parametrize("d", [13, 17])
    def test_quadratic_large_d_simulated(self, d, capsys):
        # every input is run through the sequential simulator, one measured
        # qudit at a time, and must give the closed form x(x-1)/2
        assert main(["demo", "quadratic", "--d", str(d), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["simulated"] is obj["verified"] is obj["deterministic"] is True
        assert obj["table"] == [x * (x - 1) // 2 % d for x in range(d)]

    def test_json_mode(self, capsys):
        assert main(["demo", "nand", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["table"] == [1, 1, 1, 0]
        assert obj["degree_witness"] == obj["assignment_search"] == "strongly-nonlocal"
        assert obj["verified"] is obj["simulated"] is True

    def test_verification_failure_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(comp, "verify", _failing_verify("nand-ghz"))
        assert main(["demo", "nand"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {MISMATCH}\n"

    def test_simulation_disagreement_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda plan, i, seed: SimpleNamespace(output=-1))
        assert main(["demo", "nand"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: simulation disagrees with the target at input (0, 0)\n"

    def test_deterministic_output(self, capsys):
        main(["demo", "nand", "--seed", "7"])
        first = capsys.readouterr().out
        main(["demo", "nand", "--seed", "7"])
        assert capsys.readouterr().out == first


class TestCompile:
    def test_p3_delta(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        assert main(["compile", "--d", "3", "--table", "1,0,0", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "qudits: 12" in out
        assert "verified: true" in out
        assert out_file.exists()

    def test_p5_delta_80_qudits(self, capsys):
        assert main(["compile", "--d", "5", "--table", "1,0,0,0,0"]) == 0
        assert "qudits: 80" in capsys.readouterr().out

    def test_d9_odd_ring(self, tmp_path, capsys):
        out_file = tmp_path / "plan9.json"
        argv = ["compile", "--d", "9", "--table", "0,1,2,3,4,5,6,7,8",
                "--odd-ring", "--out", str(out_file)]
        assert main(argv) == 0
        assert "qudits: 18" in capsys.readouterr().out

    def test_json_summary(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        assert main(["compile", "--d", "3", "--table", "1,0,0", "--out", str(out_file),
                     "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"construction": "prime-general", "qudits": 12,
                                        "verified": True, "out": str(out_file)}
        assert main(["compile", "--d", "9", "--table", "0,1,2,3,4,5,6,7,8", "--odd-ring",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"construction": "odd-ring", "qudits": 18,
                                                       "verified": True, "out": None}

    def test_non_integer_table_exit_2(self, capsys):
        assert main(["compile", "--d", "3", "--table", "1,x,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --table must be comma-separated integers\n"

    @pytest.mark.parametrize("argv, construction", [
        (["--d", "3", "--table", "1,0,0"], "prime-general"),
        (["--d", "9", "--table", "0,1,2,3,4,5,6,7,8", "--odd-ring"], "odd-ring"),
    ], ids=["prime3", "odd_ring9"])
    def test_verification_failure_exit_3_writes_no_file(self, tmp_path, capsys, monkeypatch,
                                                        argv, construction):
        monkeypatch.setattr(comp, "verify", _failing_verify(construction))
        out_file = tmp_path / "plan.json"
        assert main(["compile", *argv, "--out", str(out_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verification failed: {MISMATCH}\n"
        assert not out_file.exists()

    def test_wrong_length_exit_2(self, capsys):
        assert main(["compile", "--d", "3", "--table", "1,0"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--d", "3", "--table", "1,2,0,1"], "target must list 3 values, got 4"),
        (["--d", "3", "--table", "1,2"], "target must list 3 values, got 2"),
        (["--d", "9", "--table", ",".join("0" * 10), "--odd-ring"],
         "target must list 9 values, got 10"),
        (["--d", "4", "--table", "0,1,2,3"], "d=4 is not prime; no construction compiles an even d"),
        # an odd composite d goes to the odd-ring construction without the flag
        (["--d", "9", "--table", ",".join("0" * 10)], "target must list 9 values, got 10"),
    ], ids=["long", "short", "long_odd_ring", "even_composite", "odd_composite"])
    def test_refusal_message_exit_2(self, capsys, argv, message):
        assert main(["compile", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_composite_without_flag_exit_2(self, capsys):
        # an even composite d has no construction, with or without the flag
        for d in (4, 6):
            assert main(["compile", "--d", str(d), "--table", ",".join("0" * d)]) == 2
            assert capsys.readouterr().err == (f"error: d={d} is not prime; "
                                               "no construction compiles an even d\n")

    @pytest.mark.parametrize("d", [9, 15])
    def test_odd_composite_compiles_odd_ring_without_flag(self, tmp_path, capsys, d):
        table = ",".join(str(x * x % d) for x in range(d))
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(["compile", "--d", str(d), "--table", table, "--out", str(plain),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"construction": "odd-ring", "qudits": 2 * d,
                                                       "verified": True, "out": str(plain)}
        assert main(["compile", "--d", str(d), "--table", table, "--odd-ring",
                     "--out", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()

    def test_flag_keeps_its_meaning_at_prime_d(self, capsys):
        assert main(["compile", "--d", "5", "--table", "1,0,0,0,0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["construction"] == "prime-general"
        assert main(["compile", "--d", "5", "--table", "1,0,0,0,0", "--odd-ring", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["construction"] == "odd-ring"

    def test_even_d_odd_ring_exit_2(self, capsys):
        assert main(["compile", "--d", "4", "--table", "0,1,0,1", "--odd-ring"]) == 2

    def test_d_below_two_exit_2(self, capsys):
        assert main(["compile", "--d", "-3", "--table", "0,0,0"]) == 2
        assert capsys.readouterr().err == "error: --d must be at least 2, got -3\n"

    @pytest.mark.parametrize("case", ["directory", "missing_parent"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, case):
        path = {"directory": tmp_path, "missing_parent": tmp_path / "missing" / "x.json"}[case]
        assert main(["compile", "--d", "3", "--table", "1,0,0", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write plan file {path}: ")
        assert captured.err.count("\n") == 1


class TestAnalyze:
    def test_round_trip(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        main(["compile", "--d", "3", "--table", "2,0,1", "--out", str(plan_file)])
        capsys.readouterr()
        assert main(["analyze", "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "output table: 2,0,1" in out
        assert "temporal bound: 2" in out

    def test_nand_plan_analysis(self, tmp_path, capsys):
        from planlib import nand_plan

        plan_file = tmp_path / "nand.json"
        nand_plan().save(plan_file)
        assert main(["analyze", "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "combined degree: 2" in out
        assert "temporal bound: 1" in out
        assert "degree witness: strongly-nonlocal" in out

    def test_missing_file_exit_4(self, capsys):
        assert main(["analyze", "--plan", "/nonexistent/plan.json"]) == 4

    @pytest.mark.parametrize("case", ["directory", "unreadable", "not_utf8"])
    def test_unreadable_file_exit_4(self, tmp_path, capsys, case):
        plan_file = tmp_path / "plan.json"
        plan_file.write_bytes(b'{"d": "\xff"}')
        # reading a path below a file fails with NotADirectoryError
        path = {"directory": tmp_path, "unreadable": plan_file / "x", "not_utf8": plan_file}[case]
        assert main(["analyze", "--plan", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read plan file {path}: ") and err.count("\n") == 1

    def test_malformed_file_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", "--plan", str(bad)]) == 4
        assert "line" in capsys.readouterr().err

    def test_json_array_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "array.json"
        bad.write_text("[1, 2]")
        assert main(["analyze", "--plan", str(bad)]) == 4
        assert capsys.readouterr().err == "error: plan file must contain a JSON object\n"

    @pytest.mark.parametrize("text", [
        "[" * 100000,  # nested past the recursion limit
        '{"d":' + "7" * 5000 + "}",  # past the int-string digit limit, or a d without a plan
    ], ids=["deep_nesting", "long_integer"])
    def test_decoder_limit_exit_4(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", "--plan", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_field_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        bad.write_text('{"d": 2, "n": 1}')
        assert main(["analyze", "--plan", str(bad)]) == 4

    @pytest.mark.parametrize("base, mutate", [
        (_prime3, lambda o: o["T"][0].__setitem__(1, 1)),
        (_prime3, lambda o: o.__setitem__("d", 0)),
        (_prime3, lambda o: o.__setitem__("z", o["z"][:-1])),
        (_prime3, lambda o: o["resource"]["terms"][0]["ket"].__setitem__(0, o["d"])),
        (_prime3, lambda o: o["parties"][0].__setitem__(
            "control", {"C": [[1, 1], [1, 1]], "x": [0, 0], "tau_exp": 0})),
        # at d=2, tau * W_v squares to -1: its spectrum is not omega powers
        (compile_nand, lambda o: o["parties"][0]["fiducial"].__setitem__("tau_exp", 1)),
        (_table_plan, lambda o: o["T"][1].__setitem__(0, 1)),
        # input 1 reaches settings (1, 0), which the table has no entry for
        (_table_plan, lambda o: o["Q"][0].__setitem__(0, 1)),
        # symplectic, but at even d only an upper-triangular control conjugates exactly
        (compile_nand, lambda o: o["parties"][0].__setitem__(
            "control", {"C": [[1, 0], [1, 1]], "x": [0, 0], "tau_exp": 0})),
        # weights 3/2 and -1/2 sum to 1
        (_table_plan, lambda o: o["resource"]["entries"][0].__setitem__("dist", [
            {"m": [0, 0], "num": 3, "den": 2}, {"m": [1, 1], "num": -1, "den": 2}])),
        (_table_plan, lambda o: o["resource"]["entries"][0]["dist"][0].__setitem__("m", [7, 0])),
        (_prime3, lambda o: o["Q"].__setitem__(5, {"0": o["Q"][5][0]})),
        (_prime3, lambda o: o["Q"][5].pop()),
    ], ids=["non_triangular_T", "d_zero", "short_z", "ket_out_of_range", "non_symplectic_C",
            "fiducial_spectrum", "ordered_table_resource", "table_missing_entry",
            "even_d_lower_triangular_control", "table_negative_probability",
            "table_outcome_out_of_range", "Q_row_object", "Q_row_short"])
    def test_semantically_bad_plan_exit_4(self, tmp_path, capsys, base, mutate):
        obj = base().plan.to_json()
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--plan", str(bad)]) == 4
        assert capsys.readouterr().err.startswith("error: malformed plan: ")

    def test_unknown_named_control_exit_4(self, tmp_path, capsys):
        obj = _prime3().plan.to_json()
        obj["parties"][0]["control"] = {"named": "T"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--plan", str(bad)]) == 4
        assert capsys.readouterr().err == "error: malformed plan: unknown named control 'T'\n"

    def test_exponential_plan(self, tmp_path, capsys):
        from planlib import exponential_plan

        plan_file = tmp_path / "exp.json"
        exponential_plan(5, 2).save(plan_file)
        assert main(["analyze", "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "combined degree: 4" in out
        assert "temporal bound: 4" in out
        assert "assignment search: ncva-found" in out

    @pytest.mark.parametrize("report", [
        lambda: compile_general_prime([1, 0, 2, 0, 3]),
        lambda: compile_odd_ring([4, 0, 8, 1, 1, 2, 7, 3, 0]),
    ], ids=["prime5", "odd_ring9"])
    def test_compiled_plan_assignment_found(self, tmp_path, capsys, report):
        rep = report()
        plan = rep.plan
        assert _analyze(tmp_path, plan) == 0
        cells = len({(k, plan.setting(k, i, ())) for i in plan.inputs()
                     for k in range(plan.N) if plan.z[k]})
        assert (f"assignment search: ncva-found (searched {plan.d}^{cells} assignments)"
                in capsys.readouterr().out)
        w = ncva_search(plan)
        for i in plan.inputs():
            got = sum(plan.z[k] * w.assignment[k][plan.setting(k, i, ())] for k in range(plan.N))
            assert (got + plan.s0) % plan.d == rep.target[i] % plan.d

    def test_chained_plan_bound(self, tmp_path, capsys):
        # Z on |00>, the second setting read from the first outcome
        d = 3
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                        parties=[(WeylLabel(d, (1, 0)), _ident(d))] * 2, Q=[[0]] * 2,
                        T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        assert _analyze(tmp_path, plan) == 0
        out = capsys.readouterr().out
        assert "temporal bound: 2^2\n" in out
        assert "temporally flat: no" in out
        assert "deterministic: yes\noutput table: 0,0,0\n" in out
        assert "degree witness: skipped (temporally ordered plan)" in out
        assert "assignment search: skipped (temporally ordered plan)" in out
        assert analyze_plan(plan).to_json()["temporal_bound"] == 4

    def test_long_chain_bound_is_a_power(self, tmp_path, capsys):
        # (d-1)^|l| = 2^1200 has 362 decimal digits
        assert _analyze(tmp_path, ghz_chain(3, 1200)) == 0
        assert "\ntemporal bound: 2^1200\n" in capsys.readouterr().out

    def test_ring_guard_skips_polynomial(self, tmp_path, capsys):
        # 15^3 tables are no longer skipped: u^-(i1+i2) changes under
        # i1 -> i1 + 5, so no polynomial over Z_15 matches it ...
        d = 15
        plan = MbqcPlan(d=d, n=3, N=1, resource=basis_state(d, (1,)),
                        parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "Mu", u=2))],
                        Q=[[1, 1, 0]], T=[[0]], z=[1], s0=0)
        assert _analyze(tmp_path, plan) == 0
        out = capsys.readouterr().out
        assert "deterministic: yes" in out and "skipped" not in out
        assert "\ndegree witness: unsupported (table is not polynomial over Z_15" in out
        # ... while (i1 + i2)^2 + (i2 + i3)^3 reports its polynomial and degree
        mapping = {(a, b): (a * a % d, b**3 % d) for a in range(d) for b in range(d)}
        plan = MbqcPlan(d=d, n=3, N=2, resource=TableResource.deterministic(2, mapping),
                        parties=[(WeylLabel(d, (1, 0)), _ident(d))] * 2,
                        Q=[[1, 1, 0], [0, 1, 1]], T=[[0, 0]] * 2, z=[1, 1], s0=0)
        assert _analyze(tmp_path, plan) == 0
        out = capsys.readouterr().out
        poly = is_polynomial_over_ring({i: (sum(i[:2]) ** 2 + sum(i[1:]) ** 3) % d
                                        for i in plan.inputs()}, d)
        assert f"\npolynomial: {poly.pretty()}\ncombined degree: 3\n" in out
        assert "degree witness: inconclusive\n" in out  # Z_15 is not a field

    @pytest.mark.parametrize("plan", [
        lambda: x_chain(16, {1: 0}),  # 2^16 leaves, two merged branches per party
        lambda: ghz_chain(3, 200),
    ], ids=["x_chain16", "ghz_chain200"])
    def test_ordered_walk_reads_not_deterministic(self, tmp_path, capsys, plan):
        assert _analyze(tmp_path, plan()) == 0
        out = capsys.readouterr().out
        assert "temporally flat: no\n" in out
        assert "deterministic: no\n" in out

    def test_ordered_plan_report_is_the_readme_example(self, tmp_path, capsys):
        # Z on |00> under S controls, party 1 reading m_0: every outcome is 0
        S = named_clifford(3, "S")
        plan = MbqcPlan(3, 1, 2, basis_state(3, (0, 0)), [(WeylLabel(3, (1, 0)), S)] * 2,
                        [[1], [0]], [[0, 0], [1, 0]], z=[1, 1], s0=0)
        assert _analyze(tmp_path, plan, "--json") == 0
        assert list(json.loads(capsys.readouterr().out).items())[3:8] == [
            ("temporally_flat", False), ("temporal_bound", 4), ("deterministic", True),
            ("inputs", [[0], [1], [2]]), ("table", [0, 0, 0])]
        assert _analyze(tmp_path, plan) == 0
        readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("plans alike:\n\n```\n", 1)[1].split("```", 1)[0]
        assert capsys.readouterr().out.splitlines() == example.splitlines()

    def test_p13_plan_file_space(self, tmp_path, capsys):
        # the README's p = 13 plan: 1872 parties, each reaching all 13 settings
        table = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9]
        plan_file = tmp_path / "p13.json"
        assert main(["compile", "--d", "13", "--table", ",".join(map(str, table)),
                     "--out", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--plan", str(plan_file), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["parties"], obj["table"], obj["deterministic"]) == (1872, table, True)
        assert (obj["assignment_search"], obj["searched"]) == ("ncva-found", "13^24336")

    def test_refused_walk_reads_unknown(self, tmp_path, capsys):
        assert _analyze(tmp_path, wide_x_chain()) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("deterministic: "))
        assert line.startswith("deterministic: unknown (") and "20000" in line
        # an X measurement of (|0> + |1>)/sqrt(2) at d=5 leaves the sparse form
        d = 5
        plan = MbqcPlan(d=d, n=1, N=2, resource=SparseState(d, 2, ((0, (0, 0)), (0, (1, 0)))),
                        parties=[(WeylLabel(d, (0, 1)), _ident(d))] * 2,
                        Q=[[0], [0]], T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        assert _analyze(tmp_path, plan, "--json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["deterministic"] is None and obj["deterministic_reason"]

    def test_json_mode(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        main(["compile", "--d", "3", "--table", "1,0,0", "--out", str(plan_file)])
        capsys.readouterr()
        assert main(["analyze", "--plan", str(plan_file), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["table"] == [1, 0, 0]
        assert obj["deterministic"] is True


class TestTable:
    def test_p5_byte_exact(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quditmbqc", "table", "--appendix-b", "--p", "5"],
            capture_output=True, check=True,
            cwd=GOLDEN.parent.parent / "src",  # the child imports the package from the checkout
        )
        golden = (GOLDEN / "appendix_b_p5.txt").read_bytes()
        assert proc.stdout == golden

    def test_p3(self, capsys):
        assert main(["table", "--appendix-b", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "u^1x" in out and "1 2 1" in out
        assert "sigma_3 : 1 0 1" in out

    def test_last_row_all_ones(self, capsys):
        for p in (3, 5, 7, 11, 13):
            main(["table", "--appendix-b", "--p", str(p)])
            rows = capsys.readouterr().out.strip().splitlines()
            last_exponent_row = rows[-2]
            assert set(last_exponent_row.split(":")[1].split()) == {"1"}

    def test_bad_p(self, capsys):
        for p in (2, 4):
            assert main(["table", "--appendix-b", "--p", str(p)]) == 2
            assert capsys.readouterr().err == f"error: --p must be an odd prime, got {p}\n"

    def test_p17_past_the_old_cap(self, capsys):
        assert main(["table", "--appendix-b", "--p", "17"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "p = 17, u = 3" and rows[-1].startswith("sigma_17 : ")
        assert rows[-1].split(":")[1].split() == ["1"] + ["0"] * 15 + ["1"]


class TestVerifyAll:
    def test_all_pass(self, capsys):
        assert main(["verify-all"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out

    def test_second_seed_all_pass(self, capsys):
        # the seeded cross-check draws other branches on the plans that draw
        # (nand, quadratic d = 3 and 5); compiled one-ket plans draw nothing
        assert main(["verify-all"]) == 0
        first = capsys.readouterr().out
        assert main(["verify-all", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8 and "FAIL" not in out
        assert out == first

    def test_failure_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(comp, "verify", _failing_verify("odd-ring"))
        assert main(["verify-all"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [line for line in lines if line.startswith("PASS ")]
        assert len(lines) == 8
        assert lines[-1] == f"FAIL odd-ring d=9 identity: {MISMATCH}"



class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (QuditMbqcError, 2), (VerificationError, 3), (PlanFormatError, 4),
    ], ids=["library", "verification", "plan-format"])
    @pytest.mark.parametrize("command", ["analyze", "demo"])
    def test_main_maps_the_error_type(self, tmp_path, capsys, monkeypatch, error, code, command):
        # analyze_plan runs after every other step of both commands, so
        # its refusal reaches main as the handler raised it
        def refuse(plan):
            raise error("boom")
        monkeypatch.setattr(cli, "analyze_plan", refuse)
        plan_file = tmp_path / "plan.json"
        compile_nand().plan.save(plan_file)
        argv = {"analyze": ["analyze", "--plan", str(plan_file)], "demo": ["demo", "nand"]}[command]
        assert main(argv) == code
        assert capsys.readouterr() == ("", "error: boom\n")


class TestParserReuse:
    def test_back_to_back_calls_parse_independently(self, capsys):
        # the parser is built once per process; every call still starts
        # from the defaults, so no flag of an earlier call leaks into a later one
        from quditmbqc.cli import build_parser

        assert build_parser() is build_parser()
        assert main(["demo", "exponential", "--d", "7", "--u", "3", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["table"]) == 7
        assert main(["table", "--appendix-b", "--p", "3"]) == 0
        assert capsys.readouterr().out.startswith("p = 3, u = 2\n")
        assert main(["demo", "exponential", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["table"] == [1, 3, 4, 2, 1]
        with pytest.raises(SystemExit) as exc:
            main(["demo", "nand", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["demo", "nand", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["table"] == [1, 1, 1, 0]
