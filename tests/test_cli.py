import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from quditmbqc.cli import main
from quditmbqc.compiler import compile_general_prime, compile_nand, compile_odd_ring
from quditmbqc.engine import MbqcPlan, TableResource
from quditmbqc.states import SparseState, basis_state
from quditmbqc.weyl import WeylLabel, named_clifford
from quditmbqc.witnesses import ncva_search

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

    def test_quadratic_d5_simulated(self, capsys):
        assert main(["demo", "quadratic", "--d", "5", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["simulated"] is True
        assert obj["table"] == [0, 0, 1, 3, 1]

    def test_json_mode(self, capsys):
        assert main(["demo", "nand", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["table"] == [1, 1, 1, 0]
        assert obj["degree_witness"] == "strongly-nonlocal"
        assert obj["verified"] is True

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

    def test_wrong_length_exit_2(self, capsys):
        assert main(["compile", "--d", "3", "--table", "1,0"]) == 2

    def test_composite_without_flag_exit_2(self, capsys):
        assert main(["compile", "--d", "9", "--table", ",".join("0" * 9)]) == 2

    def test_even_d_odd_ring_exit_2(self, capsys):
        assert main(["compile", "--d", "4", "--table", "0,1,0,1", "--odd-ring"]) == 2


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
    ], ids=["non_triangular_T", "d_zero", "short_z", "ket_out_of_range", "non_symplectic_C",
            "fiducial_spectrum", "ordered_table_resource", "table_missing_entry"])
    def test_semantically_bad_plan_exit_4(self, tmp_path, capsys, base, mutate):
        obj = base().plan.to_json()
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--plan", str(bad)]) == 4
        assert capsys.readouterr().err.startswith("error: malformed plan: ")

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
        assert "temporal bound: 4" in out
        assert "temporally flat: no" in out
        assert "deterministic: yes\noutput table: 0,0,0\n" in out
        assert "degree witness: skipped (temporally ordered plan)" in out
        assert "assignment search: skipped (temporally ordered plan)" in out

    def test_ring_guard_skips_polynomial(self, tmp_path, capsys):
        # a flat deterministic plan whose 15^3 table is past the ring solver
        d = 15
        plan = MbqcPlan(d=d, n=3, N=1, resource=basis_state(d, (1,)),
                        parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "Mu", u=2))],
                        Q=[[1, 1, 0]], T=[[0]], z=[1], s0=0)
        assert _analyze(tmp_path, plan) == 0
        out = capsys.readouterr().out
        assert "deterministic: yes" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("polynomial: skipped ("))
        assert "3375" in line and "256" in line

    def test_refused_walk_reads_unknown(self, tmp_path, capsys):
        # X on 16 qubits in |0..0> opens 2^16 leaves, past the branch guard
        d, N = 2, 16
        T = [[0] * N for _ in range(N)]
        T[1][0] = 1
        plan = MbqcPlan(d=d, n=1, N=N, resource=basis_state(d, (0,) * N),
                        parties=[(WeylLabel(d, (0, 1)), _ident(d))] * N,
                        Q=[[0]] * N, T=T, z=[1] * N, s0=0)
        assert _analyze(tmp_path, plan) == 0
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
        assert main(["table", "--appendix-b", "--p", "4"]) == 2
        assert main(["table", "--appendix-b", "--p", "17"]) == 2


class TestVerifyAll:
    def test_all_pass(self, capsys):
        assert main(["verify-all"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out
