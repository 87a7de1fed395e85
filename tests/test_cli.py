import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import brute_census, brute_thm2_holds, brute_thm3_holds, trial_primes_between
import expcycles
from expcycles import bounds, cli, dynamics, ecdynamics


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestCensusCommand:
    def test_golden_json(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--p", "11", "--g", "2", "--kmax", "3")
        assert code == 0
        row = json_rows(out)[0]
        assert row["n_dividing"] == [1, 5, 1]
        assert row["n_least_period"] == [1, 4, 0]
        assert row["graph"]["cycles"] == [1, 2, 2, 5]
        assert row["graph"]["is_permutation"] is True

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "census", "--p", "4", "--g", "2")
        assert code == 2
        assert "modulus 4 is not prime" in err

    def test_bad_g_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "census", "--p", "7", "--g", "0")
        assert code == 2

    def test_csv_golden_row(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--p", "7", "--g", "3",
                               "--kmax", "3", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("p,g,n_div_1")
        assert lines[1].startswith("7,3,3,3,6")

    # t = ord(3) mod 1009 = 168: the graph pass needs 8t bytes and the table
    # census 5t, each plus the workspace's chunk buffers
    T = 168

    def test_mem_budget_falls_back_to_naive(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("census_table ran over its budget")

        monkeypatch.setattr(dynamics, "census_table", no_table)
        budget = dynamics._CENSUS_BYTES_PER_NODE * self.T + dynamics._work().chunk_bytes() - 1
        code, out, _ = run_cli(capsys, "census", "--p", "1009", "--g", "3",
                               "--kmax", "2", "--mem-budget", str(budget))
        assert code == 0
        row = json_rows(out)[0]
        assert row["graph"] is None
        n_div, _ = brute_census(1009, 3, 2)
        assert row["n_dividing"] == n_div[1:]

    def test_mem_budget_falls_back_to_table_first(self, capsys, monkeypatch):
        def no_naive(*args):
            raise AssertionError("census_naive ran where census_table fits")

        monkeypatch.setattr(dynamics, "census_naive", no_naive)
        fixed = dynamics._work().chunk_bytes()
        for budget in (dynamics._CENSUS_BYTES_PER_NODE * self.T + fixed,
                       dynamics._GRAPH_BYTES_PER_NODE * self.T + fixed - 1):
            code, out, _ = run_cli(capsys, "census", "--p", "1009", "--g", "3",
                                   "--kmax", "2", "--mem-budget", str(budget))
            assert code == 0
            row = json_rows(out)[0]
            assert row["graph"] is None
            n_div, _ = brute_census(1009, 3, 2)
            assert row["n_dividing"] == n_div[1:]


    def test_census_that_cannot_finish_refused_up_front(self, capsys, monkeypatch, tmp_path):
        # ord(2) = (p - 1) / 2 near 2**63: neither fast pass fits the default
        # budget, and the naive census would take 2.8e19 map applications
        def no_census(*args):
            raise AssertionError("a census ran")

        for name in ("census_graph", "census_table", "census_naive"):
            monkeypatch.setattr(dynamics, name, no_census)
        argv = ("census", "--p", "9223372036854775783", "--g", "2", "--kmax", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: p=9223372036854775783: the table census needs ~")
        assert "cap of 100000000" in err
        target = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert not target.exists()


class TestVerifyBoundsCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--pmin", "11", "--pmax", "101")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == sum(p - 1 for p in (11, 13, 17, 19, 23, 29, 31, 37, 41,
                                                43, 47, 53, 59, 61, 67, 71, 73, 79,
                                                83, 89, 97, 101))
        assert all(r["flags"]["thm1"] and r["flags"]["thm2"] and r["flags"]["thm3"]
                   for r in rows)

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify-bounds", "--pmin", "100", "--pmax", "50")
        assert code == 2
        assert "empty prime range" in err

    def test_g_list_selector(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--pmin", "11", "--pmax", "31",
                               "--g-list", "2,3")
        assert code == 0
        rows = json_rows(out)
        assert {(r["p"], r["g"]) for r in rows} == {
            (p, g) for p in (11, 13, 17, 19, 23, 29, 31) for g in (2, 3)
        }

    def test_primitive_roots_selector(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--pmin", "11", "--pmax", "11",
                               "--primitive-roots-only")
        assert code == 0
        assert [r["g"] for r in json_rows(out)] == [2, 6, 7, 8]

    def test_worker_count_is_invisible_in_output(self, capsys):
        # the workers select each prime's g values themselves
        for base_args in (
            ["verify-bounds", "--pmin", "11", "--pmax", "61", "--g-list", "2,3,5"],
            ["verify-bounds", "--pmin", "11", "--pmax", "61", "--primitive-roots-only"],
            ["verify-bounds", "--pmin", "11", "--pmax", "61"],
            ["sweep", "--pmin", "11", "--pmax", "61", "--g-list", "2,3,5"],
        ):
            code1, out1, _ = run_cli(capsys, *base_args, "--workers", "1")
            code2, out2, _ = run_cli(capsys, *base_args, "--workers", "3")
            assert code1 == code2 == 0, base_args
            assert out1 == out2 and out1, base_args

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "verify-bounds", "--pmin", "11", "--pmax", "13",
                               "--g-list", "2", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:5] == ["p", "g", "n1", "n2", "n3"]
        assert len(lines) == 3

    def test_all_g_past_the_digit_limit(self, capsys):
        # from (751, 748) on, the exact thm3 decimal would pass Python's
        # 4300-digit str() limit; the report writes the compact form instead
        code, out, err = run_cli(capsys, "verify-bounds", "--pmin", "743", "--pmax", "761")
        assert (code, err) == (0, "")
        rows = json_rows(out)
        assert [(r["p"], r["g"]) for r in rows] == [
            (p, g) for p in (743, 751, 757, 761) for g in range(1, p)]
        for r in rows:
            p, g, n1 = r["p"], r["g"], r["n1"]
            assert r["flags"] == {
                "thm1_applicable": True,
                "thm1": n1 <= 0 or (2 * n1 - 1) ** 2 <= 8 * p,
                "thm2": r["n2"] <= 1 if g == 1 else brute_thm2_holds(p, g, r["n2"]),
                "thm3": brute_thm3_holds(p, g, r["n3"]),
            }, (p, g)
            if g > 72:
                assert r["bounds"]["thm3"] == f"({3 * p + g + 1} + {g}**{2 * g + 1})/4"
            else:
                assert Fraction(r["bounds"]["thm3"]) == bounds.thm3_bound(p, g)
            vacuous = 4 * (p - 1) < 3 * p + g ** (2 * g + 1) + g + 1
            assert ("thm3: vacuous (bound exceeds p-1)" in r["notes"]) is vacuous


class TestSweepCommand:
    def test_rows_carry_census_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--pmin", "11", "--pmax", "11",
                               "--g-list", "2")
        assert code == 0
        row = json_rows(out)[0]
        assert row["n_dividing"] == [1, 5, 1]
        assert row["bounds"]["thm2"] == {"z": 2, "value": 45}
        assert row["bounds"]["thm3"] == "17"
        assert row["graph"]["components"] == 4
        # below k = 3 the rows keep only k_max counts, though the bounds need N(3)
        code, out, _ = run_cli(capsys, "sweep", "--pmin", "11", "--pmax", "11",
                               "--g-list", "2", "--kmax", "2")
        assert code == 0
        row = json_rows(out)[0]
        assert (row["k"], row["n_dividing"], row["n_least_period"]) == (2, [1, 5], [1, 4])
        assert row["bounds"]["thm3"] == "17"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(capsys, "sweep", "--pmin", "11", "--pmax", "13",
                               "--g-list", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert [r["p"] for r in rows] == [11, 13]

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_kmax_below_1_rejected(self, capsys, kmax):
        code, out, err = run_cli(capsys, "sweep", "--pmin", "11", "--pmax", "11",
                                 "--g-list", "2", "--kmax", kmax, "--csv")
        assert code == 2
        assert out == ""
        assert "k_max must be >= 1" in err


    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kmax", ["3", "1"])
    def test_refused_range_writes_nothing(self, capsys, monkeypatch, tmp_path, workers, kmax):
        # rows count to k = 3 at least: 300 naive steps at p = 101, one over
        # the lowered cap, and at most 288 at every smaller prime
        monkeypatch.setattr(dynamics, "_NAIVE_MAX_STEPS", 299)
        argv = ("sweep", "--pmin", "11", "--pmax", "101", "--g-list", "2", "--kmax", kmax,
                "--mem-budget", "0", "--workers", workers, "--csv")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: p=101: the table census needs ~")
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()

    def test_range_without_primes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--pmin", "24", "--pmax", "28",
                               "--mem-budget", "0")
        assert (code, out) == (0, "")
        code, out, err = run_cli(capsys, "sweep", "--pmin", "24", "--pmax", "28", "--kmax", "0")
        assert (code, out) == (2, "")
        assert "k_max must be >= 1" in err


class TestReportPath:
    # sha256 of stdout in three report formats; a changed digest is a
    # changed output format
    GOLDEN = [
        (("sweep", "--pmin", "11", "--pmax", "101", "--g-list", "2,3,5", "--csv"),
         "7bd366a7c710c495e53ae6c1d33f7f8f0fd1147fe9005dfac5d78bed8d5135c2"),
        (("verify-bounds", "--pmin", "11", "--pmax", "61", "--csv"),
         "4506ddf6c0b4e4e53434828d8c3f238e0972ff4fdba88a8ea10765080e4824ff"),
        (("ec", "--p", "101", "--a", "2", "--b", "3", "--gx", "1", "--gy", "39",
          "--kmax", "4", "--csv"),
         "474dca2957e55ec4ac405258ac7c4513204751add5c3084415b50ddff58d850c"),
        (("lemma", "thm3", "--p", "19", "--g", "2"),
         "90c4d88851ed4cad6c433007b3e2d34c76af3da3d54050b694f24055a410b076"),
        (("lemma", "thm3", "--pmin", "11", "--pmax", "400", "--g", "2", "--csv"),
         "4e865138761ef7f8553094ede5d6eb4db6de7fd2e0034abe4f91803a168ff8c1"),
        (("lemma", "fact2", "--pmax", "3000", "--g", "2..13", "--csv"),
         "2a7bf4b7e0d5beab5f69ace2499ed2a94197a7b80782fa87047cb5952324f46a"),
        (("avg", "--p", "101", "--k", "1", "--csv"),
         "772fd06653d362aa785d39e87c439bc5899bf2c629ad7d9a6773fc8335d36285"),
        # census_table on many subgroup sizes, rising and falling
        (("verify-bounds", "--pmin", "3", "--pmax", "5000", "--g-list", "2,3", "--csv"),
         "5bb2ceecbf90161d05e445ac0ac0c126a0fd3dbf5ad02dc77def8b228f7f5eb3"),
        (("avg", "--p", "1009", "--k", "3", "--csv"),
         "f388f716c9759d64ced0c61743312492a75456db95777ecb3f91cd3c6b621b98"),
        # the graph pass at p = 10000019: index 7 (the bigmap instance), index 2
        # (max_tail 8407), and a primitive root, whose map is a permutation
        (("census", "--p", "10000019", "--g", "2", "--kmax", "3"),
         "322854f3649b835ccc4570455305747b06e9d91e65f522f739be07ade58925ff"),
        (("census", "--p", "10000019", "--g", "3", "--kmax", "3"),
         "ff7aea3a2e14aec96bce66e4f57ec3c0b83aacf605359ea60eeab4793cd2fd36"),
        (("census", "--p", "10000019", "--g", "6", "--kmax", "3"),
         "a7ad88339589d22b8cb81487ae1a486f9d4a79dab20918ea38d5a5a476ca4006"),
    ]

    @pytest.mark.parametrize("argv, digest", GOLDEN, ids=[
        "sweep", "verify-bounds", "ec", "thm3-single", "thm3-range", "fact2", "avg",
        "verify-bounds-5000", "avg-k3", "census-g2", "census-g3", "census-g6"])
    def test_golden_stdout(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["verify-bounds", "sweep"])
    def test_violation_exits_1(self, capsys, monkeypatch, command):
        # a failing fixed-point check is a violation only where thm1 applies (p >= 11)
        monkeypatch.setattr(bounds, "thm1_holds", lambda p, n1: False)
        code, _, _ = run_cli(capsys, command, "--pmin", "3", "--pmax", "7", "--g-list", "2")
        assert code == 0
        code, out, _ = run_cli(capsys, command, "--pmin", "11", "--pmax", "11", "--g-list", "2")
        assert code == 1
        assert json_rows(out)[0]["flags"]["thm1"] is False


class TestInternalFailure:
    # rows are written as they are produced, so an exception after the
    # arguments were accepted keeps the rows before it and exits 3
    ARGS = ("verify-bounds", "--pmin", "11", "--pmax", "19", "--g-list", "2")

    @pytest.fixture
    def fail_at_17(self, monkeypatch):
        verify = bounds.verify

        def failing_verify(m, census=None):
            if m.p == 17:
                raise RuntimeError("boom at p=17")
            return verify(m, census)

        monkeypatch.setattr(bounds, "verify", failing_verify)

    # A pool worker inherits a patch made in the test process only under
    # fork. Under forkserver (Python 3.14's default) and spawn it re-imports
    # the main script as __mp_main__, so these tests run a script that
    # patches bounds.verify at module level, under each start method.
    START_METHODS = ("fork", "forkserver")
    SCRIPT = """
import multiprocessing, os, signal, sys, time
from expcycles import bounds, cli

verify = bounds.verify

def patched_verify(m, census=None):
{hook}
    return verify(m, census)

bounds.verify = patched_verify

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    sys.exit(cli.main({argv!r}))
"""

    @classmethod
    def run_script(cls, tmp_path, method, hook, *argv):
        script = tmp_path / f"run_{method}.py"
        script.write_text(cls.SCRIPT.format(hook=hook, method=method, argv=list(argv)))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rows_before_failure_kept(self, tmp_path, workers):
        hook = """\
    if m.p == 17:
        raise RuntimeError("boom at p=17")"""
        for method in self.START_METHODS:
            code, out, err = self.run_script(tmp_path, method, hook, *self.ARGS,
                                             "--workers", workers)
            assert code == 3, method
            assert [(r["p"], r["g"]) for r in json_rows(out)] == [(11, 2), (13, 2)], method
            assert err.startswith("internal error:"), method
            assert "boom at p=17" in err, method

    @pytest.mark.parametrize("workers, kept", [
        ("1", [(11, 2), (11, 3), (13, 2), (13, 3), (17, 2)]),  # row by row in process
        ("2", [(11, 2), (11, 3), (13, 2), (13, 3)]),  # a pool task is one prime
    ], ids=["1", "2"])
    def test_rows_before_failure_within_a_prime(self, tmp_path, workers, kept):
        hook = """\
    if (m.p, m.g) == (17, 3):
        raise RuntimeError("boom at (17, 3)")"""
        for method in self.START_METHODS:
            code, out, err = self.run_script(tmp_path, method, hook, "verify-bounds",
                                             "--pmin", "11", "--pmax", "19", "--g-list", "2,3",
                                             "--workers", workers)
            assert code == 3, method
            assert [(r["p"], r["g"]) for r in json_rows(out)] == kept, method
            assert err.startswith("internal error:"), method

    def test_rows_before_failure_kept_in_out_file(self, capsys, tmp_path, fail_at_17):
        target = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, *self.ARGS, "--csv", "--out", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")
        lines = target.read_text().splitlines()
        assert [line.split(",")[:2] for line in lines] == [["p", "g"], ["11", "2"], ["13", "2"]]

    def test_failure_after_violation_exits_3(self, capsys, monkeypatch, fail_at_17):
        monkeypatch.setattr(bounds, "thm1_holds", lambda p, n1: False)
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 3
        assert [r["flags"]["thm1"] for r in json_rows(out)] == [False, False]
        assert err.startswith("internal error:")

    # A worker SIGKILLs itself at p = 37 (only in a worker: a re-imported
    # script runs in every process, so it asks for its parent process), once
    # the other worker has reached p = 41, so every task before 37 is done.
    DYING_WORKER = """\
    if m.p == 41:
        open({marker!r}, "w").close()
    if m.p == 37 and multiprocessing.parent_process() is not None:
        while not os.path.exists({marker!r}):
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)"""

    def test_dead_worker_exits_3(self, tmp_path):
        # as when the OOM killer ends a worker: no hang, the rows before it stay
        for method in self.START_METHODS:
            hook = self.DYING_WORKER.format(marker=str(tmp_path / f"at41_{method}"))
            code, out, err = self.run_script(tmp_path, method, hook, "verify-bounds",
                                             "--pmin", "11", "--pmax", "97", "--g-list", "2",
                                             "--workers", "2")
            assert code == 3, method
            assert [r["p"] for r in json_rows(out)] == [11, 13, 17, 19, 23, 29, 31], method
            assert err.startswith("internal error:"), method

    def test_single_row_command_failure_exits_3(self, capsys, monkeypatch):
        def failing_census_graph(*args, **kwargs):
            raise RuntimeError("boom in the graph pass")

        monkeypatch.setattr(dynamics, "census_graph", failing_census_graph)
        code, out, err = run_cli(capsys, "census", "--p", "11", "--g", "2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("argv", [
        ("verify-bounds", "--pmin", "100", "--pmax", "50"),
        ("sweep", "--pmin", "11", "--pmax", "11", "--kmax", "0"),
        ("census", "--p", "4", "--g", "2"),
        ("verify-bounds", "--pmin", "11", "--pmax", "50", "--workers", "0"),
        ("sweep", "--pmin", "11", "--pmax", "50", "--workers", "-2"),
        ("census", "--p", "11", "--g", "2", "--mem-budget", "-1"),
        ("sweep", "--pmin", "11", "--pmax", "11", "--mem-budget", "-1"),
        ("lemma", "fact1", "--trials", "-5"),
        ("lemma", "comb", "--random", "-3"),
    ], ids=["verify-bounds", "sweep", "census", "verify-bounds-workers", "sweep-workers",
            "census-mem-budget", "sweep-mem-budget", "fact1-trials", "comb-random"])
    def test_usage_error_creates_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert not target.exists()

    def test_unwritable_out_rejected_before_first_row(self, capsys, monkeypatch, tmp_path):
        # the graph pass would fail (exit 3) if it ran before --out is opened
        def failing_census_graph(*args, **kwargs):
            raise RuntimeError("boom in the graph pass")

        monkeypatch.setattr(dynamics, "census_graph", failing_census_graph)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "census", "--p", "11", "--g", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out")

    def test_failure_before_first_row_exits_3(self, capsys, monkeypatch, tmp_path):
        # exit 1 is a failed bound, so a sieve out of memory must not escape main
        def no_memory(lo, hi):
            raise MemoryError

        monkeypatch.setattr(cli, "primes_in_range", no_memory)
        target = tmp_path / "report.jsonl"
        for out_args in ([], ["--out", str(target)]):
            code, out, err = run_cli(capsys, "verify-bounds", "--pmin", "3", "--pmax", "100",
                                     *out_args)
            assert (code, out) == (3, "")
            assert err.startswith("internal error:")
        assert not target.exists()


class TestBrokenPipe:
    # a reader that stops early (`... | head -1`) is not a failure of the run
    ARGS = ["verify-bounds", "--pmin", "3", "--pmax", "3000", "--g-list", "2,3"]

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    def test_closed_stdout_exits_141_quietly(self, capsys, monkeypatch, tmp_path):
        sink = tmp_path / "stdout"
        with open(sink, "wb") as raw:
            monkeypatch.setattr(sys, "stdout", self.ClosedPipe(raw.fileno()))
            code = cli.main(self.ARGS)
            os.write(raw.fileno(), b"after")  # the descriptor now points at devnull
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""
        assert sink.read_bytes() == b""

    def test_head_closes_pipe(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-m", "expcycles.cli", *self.ARGS],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert json.loads(first)["p"] == 3
        assert err == b""


class TestLemmaCommands:
    def test_fact1(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "fact1", "--trials", "500",
                               "--seed", "7", "--pmax", "500")
        assert code == 0
        assert json_rows(out)[0]["failures"] == []

    def test_fact2(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "fact2", "--pmax", "300", "--g", "2..6")
        assert code == 0
        rows = json_rows(out)
        assert [r["g"] for r in rows] == [2, 3, 4, 5, 6]
        assert all(r["violations"] == [] for r in rows)

    def test_comb(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "comb", "--random", "100",
                               "--nmax", "32", "--seed", "42")
        assert code == 0
        assert json_rows(out)[0]["failures"] == []

    def test_comb_seed_reproducible(self, capsys):
        args = ("lemma", "comb", "--random", "20", "--nmax", "16", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_thm3_single(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "thm3", "--p", "11", "--g", "2")
        assert code == 0
        row = json_rows(out)[0]
        assert row["m_size"] == 0
        assert row["all_ok"] is True

    def test_thm3_range(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "thm3", "--pmin", "11", "--pmax", "100",
                               "--g", "2", "--m-semantics", "dividing")
        assert code == 0
        rows = json_rows(out)
        # only primes where 2 is a primitive root appear
        assert [r["p"] for r in rows] == [11, 13, 19, 29, 37, 53, 59, 61, 67, 83]
        assert all(r["all_ok"] for r in rows)

    def test_thm3_non_primitive_root_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemma", "thm3", "--p", "7", "--g", "2")
        assert code == 2
        assert "primitive root" in err

    def test_thm3_missing_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "lemma", "thm3", "--g", "2")
        assert code == 2

    def test_thm3_p_above_int64_limit_refused_before_the_harness(self, capsys, monkeypatch):
        from expcycles import lemmas

        def no_harness(p, g, m_semantics):
            raise AssertionError("the proof harness ran")

        monkeypatch.setattr(lemmas, "thm3_verify", no_harness)
        code, out, err = run_cli(capsys, "lemma", "thm3", "--p", "3037000507", "--g", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: p=3037000507 exceeds")

    @pytest.mark.parametrize("argv", [
        ("fact1", "--trials", "5", "--pmax", "2"),
        ("fact1", "--trials", "5", "--umax", "-1"),
        ("comb", "--random", "5", "--nmax", "0"),
        ("comb", "--random", "5", "--k", "0"),
        ("fact1", "--trials", "-5"),
        ("comb", "--random", "-3"),
    ], ids=["fact1-pmax", "fact1-umax", "comb-nmax", "comb-k", "fact1-trials", "comb-random"])
    def test_bad_ranges_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "lemma", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestECCommand:
    def test_golden_curve(self, capsys):
        code, out, _ = run_cli(capsys, "ec", "--p", "5", "--a", "1", "--b", "1",
                               "--gx", "0", "--gy", "1", "--kmax", "3")
        assert code == 0
        row = json_rows(out)[0]
        assert row["n"] == 9
        assert row["hasse_ok"] is True
        assert row["n_dividing"] == [0, 0, 3]

    def test_singular_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ec", "--p", "5", "--a", "0", "--b", "0",
                               "--gx", "0", "--gy", "0")
        assert code == 2
        assert "singular" in err

    def test_off_curve_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ec", "--p", "5", "--a", "1", "--b", "1",
                               "--gx", "1", "--gy", "1")
        assert code == 2
        assert "not on the curve" in err

    def test_kmax_checked_before_order_sweep(self, capsys, monkeypatch):
        def no_count(curve):
            raise AssertionError("curve_order ran before --kmax was checked")

        monkeypatch.setattr(ecdynamics, "curve_order", no_count)
        code, _, err = run_cli(capsys, "ec", "--p", "2000003", "--a", "2", "--b", "3",
                               "--gx", "0", "--gy", "919159", "--kmax", "0")
        assert code == 2
        assert "k_max" in err

    def test_p_above_int64_limit_refused_before_the_first_row(self, capsys, monkeypatch):
        # the half table would refuse it inside the row, as an internal error
        def no_count(curve):
            raise AssertionError("curve_order ran before the int64 limit was checked")

        monkeypatch.setattr(ecdynamics, "curve_order", no_count)
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 96)
        code, out, err = run_cli(capsys, "ec", "--p", "97", "--a", "3", "--b", "8",
                                 "--gx", "1", "--gy", "20")
        assert (code, out) == (2, "")
        assert err.startswith("error: p=97 exceeds 96")

    def test_supersingular_readme_example(self, capsys):
        # y^2 = x^3 + 3 with p = 2 mod 3 has N = p + 1
        code, out, _ = run_cli(capsys, "ec", "--p", "2000003", "--a", "0", "--b", "3",
                               "--gx", "1", "--gy", "2", "--kmax", "3")
        assert code == 0
        assert out == ('{"p": 2000003, "a": 0, "b": 3, "gx": 1, "gy": 2, "n": 2000004, '
                       '"hasse_ok": true, "k": 3, "n_dividing": [2, 2, 5], '
                       '"n_least_period": [2, 0, 3]}\n')


class TestAvgCommand:
    def test_p7_k1(self, capsys):
        code, out, _ = run_cli(capsys, "avg", "--p", "7", "--k", "1")
        assert code == 0
        row = json_rows(out)[0]
        # independent recount: sum over g of the fixed-point census
        expected = [brute_census(7, g, 1)[0][1] for g in range(1, 7)]
        assert row["per_g"] == expected
        assert row["total"] == sum(expected) == 6
        assert row["mean"] == 1.0

    def test_p3_k1(self, capsys):
        code, out, _ = run_cli(capsys, "avg", "--p", "3", "--k", "1")
        assert code == 0
        assert json_rows(out)[0]["total"] == 1

    def test_k1_all_bases_count_matches_per_g_census(self, capsys):
        # k = 1 counts every base at once; the row is byte-identical to the
        # one built from a census_table per base
        for p in trial_primes_between(3, 300):
            per_g = [dynamics.census_table(dynamics.ExpMap(p, g), 1).n_dividing[1]
                     for g in range(1, p)]
            row = {"p": p, "k": 1, "total": sum(per_g), "mean": sum(per_g) / (p - 1),
                   "per_g": per_g}
            code, out, _ = run_cli(capsys, "avg", "--p", str(p), "--k", "1")
            assert code == 0 and out == json.dumps(row) + "\n", p

    def test_mean_at_most_max(self, capsys):
        code, out, _ = run_cli(capsys, "avg", "--p", "31", "--k", "2")
        assert code == 0
        row = json_rows(out)[0]
        assert row["mean"] <= max(row["per_g"])

    def test_invalid_input(self, capsys):
        assert run_cli(capsys, "avg", "--p", "9", "--k", "1")[0] == 2
        assert run_cli(capsys, "avg", "--p", "7", "--k", "0")[0] == 2

    def test_p_above_int64_limit_refused_before_the_table(self, capsys, monkeypatch):
        def no_table(p):
            raise AssertionError("the all-bases table pass ran")

        monkeypatch.setattr(dynamics, "fixed_point_counts_all_bases", no_table)
        code, out, err = run_cli(capsys, "avg", "--p", "3037000507", "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: p=3037000507 exceeds")


class TestImports:
    def test_parser_leaves_command_modules_unloaded(self):
        # lemmas, fractions (via bounds), csv, concurrent.futures and
        # multiprocessing load only in the commands that use them
        src = os.path.dirname(os.path.dirname(cli.__file__))
        modules = ("expcycles.lemmas", "fractions", "csv", "concurrent.futures",
                   "multiprocessing")
        code = ("import sys, expcycles.cli as c; c.build_parser(); "
                f"print([m for m in {modules!r} if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"

    def test_every_public_name_resolves_with_a_docstring(self):
        undocumented = [name for name in expcycles.__all__
                        if not (getattr(expcycles, name).__doc__ or "").strip()]
        assert expcycles.__all__ and undocumented == []


class TestReadmeExamples:
    ROOT = Path(__file__).resolve().parents[1]

    def test_every_example_runs_in_ci(self):
        # each `expcycles ...` line of the README's sh blocks (inline
        # comments stripped) is a command of the workflow's README step, as
        # written or with its output piped or redirected
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        examples = [line.split("#", 1)[0].strip()
                    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
                    for line in block.splitlines() if line.startswith("expcycles ")]
        lines = (self.ROOT / ".github" / "workflows" / "tests.yml").read_text(
            encoding="utf-8").splitlines()
        step = next(i for i, line in enumerate(lines) if "name: README examples" in line)
        run = next(i for i in range(step, len(lines)) if lines[i].strip() == "run: |")
        indent = len(lines[run]) - len(lines[run].lstrip())
        commands = []
        for line in lines[run + 1:]:
            if line.strip() and len(line) - len(line.lstrip()) <= indent:
                break
            commands.append(line.strip())
        assert examples and commands
        missing = [ex for ex in examples
                   if not any(cmd == ex or cmd.startswith(ex + " ") and cmd[len(ex) + 1] in "|>"
                              for cmd in commands)]
        assert missing == []
