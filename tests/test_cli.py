"""End-to-end command-line behaviour via main(argv)."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tworow
import tworow.cli as cli
from tworow.algebra import AlgebraContext
from tworow.cli import main
from tworow.decompose import partitions_up_to
from tworow.padic import big_b


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestIdempotentCommand:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "idempotent", "--lambda", "36,13", "--g", "13")
        assert code == 0
        assert "e_{23,13} = -b(13)" in out
        assert "factors: (b(1) - b(2))(b(3) - b(6))(-b(9))" in out

    def test_json_mode(self, capsys):
        code, out = run(capsys, "idempotent", "--lambda", "36,13", "--g", "13", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == [36, 13] and data["p"] == 3
        assert data["coeffs"][13] == 2 and sum(data["coeffs"]) == 2

    def test_degenerate_g_explains_and_succeeds(self, capsys):
        code, out = run(capsys, "idempotent", "--lambda", "2,2", "--g", "2")
        assert code == 0
        assert "divisible by 3" in out

    def test_g_above_lambda2(self, capsys):
        code, out = run(capsys, "idempotent", "--lambda", "2,2", "--g", "3")
        assert code == 0
        assert "exceeds lambda2" in out

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_g_above_lambda2_names_no_partition(self, capsys, g):
        # C(2g, g) is divisible by 3 at g = 5 and 6; that must not lead to a
        # statement about the non-partition (2+g, 2-g).
        code, out = run(capsys, "idempotent", "--lambda", "2,2", "--g", str(g))
        assert code == 0
        assert out == f"g={g} exceeds lambda2=2, so e_{{0,{g}}} = 0 in this algebra\n"


class TestDecomposeCommand:
    def test_row_module(self, capsys):
        code, out = run(capsys, "decompose", "--lambda", "5,0")
        assert code == 0
        assert "1 Young modules" in out
        assert "mu=(5,0)" in out and "e_{5,0} = 1" in out

    def test_json_two_two(self, capsys):
        code, out = run(capsys, "decompose", "--lambda", "2,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == [2, 2]
        assert [rec["g"] for rec in data["summands"]] == [0, 1]
        assert [rec["mu"] for rec in data["summands"]] == [[2, 2], [3, 1]]

    def test_text_and_json_agree(self, capsys):
        code, text_out = run(capsys, "decompose", "--lambda", "6,2")
        code2, json_out = run(capsys, "decompose", "--lambda", "6,2", "--json")
        assert code == code2 == 0
        data = json.loads(json_out)
        for rec in data["summands"]:
            assert f"g={rec['g']}" in text_out
            assert f"mu=({rec['mu'][0]},{rec['mu'][1]})" in text_out


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, "verify", "--max-r", "12")
        assert code == 0
        assert "PASS" in out
        assert "verified 49 partitions" in out

    def test_sweep_output_is_pinned(self, capsys):
        # sha256 of the stdout of `tworow verify --max-r 60`, recorded when
        # each partition was still verified in its own context
        code, out = run(capsys, "verify", "--max-r", "60")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8098955724ab99baf556b3383f6171da4206f5055f1553feffe16e7ab6f6d5a2"
        )

    @staticmethod
    def corrupt_g1(monkeypatch):
        # e(g=1) gains the identity, so every partition with a g=1 summand fails
        import dataclasses

        import tworow.decompose as decompose

        summands = decompose.summands

        def corrupted(ctx):
            return [dataclasses.replace(rec, idempotent=rec.idempotent + ctx.one())
                    if rec.g == 1 else rec for rec in summands(ctx)]

        monkeypatch.setattr(decompose, "summands", corrupted)

    def test_every_failing_partition_is_named(self, capsys, monkeypatch):
        self.corrupt_g1(monkeypatch)
        code, out = run(capsys, "verify", "--max-r", "6")
        assert code == 1
        failing = [(l1, l2) for l1, l2 in partitions_up_to(6) if l2 >= 1 and big_b(l1 - l2, 1, 3)]
        assert len(failing) == 6
        assert "FAIL: 6 partitions failed:\n" in out
        for lam in failing:
            assert f"lambda={lam}:\n  " in out
        assert out.count("lambda=") == 6 and "PASS" not in out

    def test_failing_sweep_output_is_pinned(self, capsys, monkeypatch):
        # sha256 of the stdout of `tworow verify --max-r 12` under corrupt_g1,
        # recorded when every rung still restacked its records and formed its
        # own character values
        self.corrupt_g1(monkeypatch)
        code, out = run(capsys, "verify", "--max-r", "12")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3d31eeb01fb032e6132c7e88796dcf3b3eba2de39ee8a488d283ba305b1e9c0e"
        )

    def test_failing_partitions_beyond_the_bound_are_counted(self, capsys, monkeypatch):
        self.corrupt_g1(monkeypatch)
        code, out = run(capsys, "verify", "--max-r", "12")
        failing = [(l1, l2) for l1, l2 in partitions_up_to(12) if l2 >= 1 and big_b(l1 - l2, 1, 3)]
        assert code == 1 and len(failing) > 10
        assert f"FAIL: {len(failing)} partitions failed; the first 10:" in out
        assert out.count("lambda=") == 10
        assert f"lambda={failing[9]}:" in out and f"lambda={failing[10]}:" not in out


class TestKostkaTable:
    def test_csv_output(self, capsys):
        code, out = run(capsys, "kostka-table", "--max-r", "4", "--p", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# kostka-table v1: lambda1,lambda2,mu1,mu2,kostka")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        expected_rows = sum((r // 2 + 1) ** 2 for r in range(5))
        assert len(rows) == expected_rows
        table = {(int(a), int(b), int(c), int(d)): int(k) for a, b, c, d, k in rows}
        assert table[(2, 1, 3, 0)] == 0
        assert table[(2, 2, 3, 1)] == 1
        assert table[(2, 2, 2, 2)] == 1
        assert table[(3, 1, 4, 0)] == 1

    def test_other_prime(self, capsys):
        code, out = run(capsys, "kostka-table", "--max-r", "3", "--p", "2")
        assert code == 0
        rows = [line for line in out.strip().splitlines() if not line.startswith("#")]
        table = {tuple(map(int, row.split(",")[:4])): int(row.split(",")[4]) for row in rows}
        # B(1,1) = C(3,1) = 3 is odd: multiplicity 1 at p=2
        assert table[(2, 1, 3, 0)] == 1


class TestOracleCommand:
    def test_small_run(self, capsys):
        code, out = run(capsys, "oracle-check", "--max-r", "4")
        assert code == 0
        assert "oracle-check r <= 4: PASS" in out
        for name in ("basis_products", "idempotent_matrices", "j_commutation", "specht_labels"):
            assert f"{name}: PASS" in out


class TestUsageErrors:
    def test_bad_partition_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--lambda", "1,5"])
        assert err.value.code == 2

    def test_garbled_lambda_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--lambda", "abc"])
        assert err.value.code == 2

    def test_wrong_characteristic_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--lambda", "4,2", "--p", "5"])
        assert err.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        out, text = capsys.readouterr()
        assert out == ""
        return text

    def test_negative_g_exits_2(self, capsys):
        text = self.usage_error(capsys, "idempotent", "--lambda", "5,3", "--g", "-1")
        assert "--g" in text and "summand" not in text

    def test_negative_max_r_verify_exits_2(self, capsys):
        text = self.usage_error(capsys, "verify", "--max-r", "-1")
        assert "--max-r" in text and "PASS" not in text

    def test_negative_max_r_oracle_exits_2(self, capsys):
        text = self.usage_error(capsys, "oracle-check", "--max-r", "-3")
        assert "--max-r" in text and "PASS" not in text

    def test_jobs_option_and_schur_jobs_are_gone(self, capsys, monkeypatch):
        assert "--jobs" in self.usage_error(capsys, "verify", "--max-r", "4", "--jobs", "2")
        plain = run(capsys, "verify", "--max-r", "4")
        monkeypatch.setenv("SCHUR_JOBS", "abc")
        assert run(capsys, "verify", "--max-r", "4") == plain

    def test_composite_kostka_prime_exits_2(self, capsys):
        assert "not a prime" in self.usage_error(capsys, "kostka-table", "--max-r", "2", "--p", "4")

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a context was built")

        monkeypatch.setattr(cli, "AlgebraContext", refuse)
        monkeypatch.setattr(cli, "verify_family", refuse)

    @pytest.mark.parametrize("command", ["decompose", "idempotent"])
    def test_lambda2_past_the_bound_exits_2(self, capsys, nothing_built, command):
        extra = ["--g", "3"] if command == "idempotent" else []
        lam = "100000000000,99999999999"
        text = self.usage_error(capsys, command, "--lambda", lam, *extra)
        assert "--lambda" in text and "10000" in text
        assert "10000" in self.usage_error(capsys, command, "--lambda", "10006,10001", *extra)

    def test_max_r_past_the_bound_exits_2(self, capsys, nothing_built):
        text = self.usage_error(capsys, "verify", "--max-r", "20001")
        assert "--max-r" in text and "20000" in text

    def test_oracle_max_r_past_the_bound_exits_2(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "cross_validate", refuse)
        for value in ("17", "20", "1000000"):
            text = self.usage_error(capsys, "oracle-check", "--max-r", value)
            assert "--max-r" in text and "16" in text
        assert cli._build_parser().parse_args(["oracle-check", "--max-r", "16"]).max_r == 16

    def test_bounds_are_inclusive_and_leave_m_free(self):
        parser = cli._build_parser()
        args = parser.parse_args(["decompose", "--lambda", f"{10**30},10000"])
        assert args.lam == (10**30, 10000)
        assert parser.parse_args(["verify", "--max-r", "20000"]).max_r == 20000

    def test_huge_kostka_prime_exits_2(self, capsys):
        text = self.usage_error(
            capsys, "kostka-table", "--max-r", "1", "--p", "1000000000000000003"
        )
        assert "2**31" in text


@pytest.mark.parametrize("argv", [
    ["decompose", "--lambda", "9,4"],
    ["decompose", "--lambda", "9,4", "--json"],
    ["idempotent", "--lambda", "9,4", "--g", "1"],
    ["verify", "--max-r", "8"],
    ["kostka-table", "--max-r", "4", "--p", "5"],
    ["oracle-check", "--max-r", "4"],
])
def test_commands_build_algebras_at_three_only(capsys, monkeypatch, argv):
    # The step tables are sized for p = 3; no command reaches another prime.
    primes = []
    check = AlgebraContext.__post_init__

    def record(ctx):
        primes.append(ctx.p)
        check(ctx)

    monkeypatch.setattr(AlgebraContext, "__post_init__", record)
    assert run(capsys, *argv)[0] == 0
    assert set(primes) <= {3}
    assert primes or argv[0] == "kostka-table"


def test_cli_import_starts_no_process_machinery():
    src = Path(tworow.__file__).resolve().parents[1]
    probe = (
        "import sys, tworow.cli; "
        "print([name for name in ('multiprocessing', 'concurrent.futures.process')"
        " if name in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
