import io
import json
import os
import select
import subprocess
import sys
import time

import pytest

from brute import build_parser
from wkintersect import cli, pengine
from wkintersect.pengine import DTable, r_max


def run_cli(args, cache_dir):
    out = io.StringIO()
    code = cli.main(["--cache-dir", str(cache_dir)] + args, out=out)
    return code, out.getvalue()


def test_tau_values(tmp_path):
    code, out = run_cli(["tau", "--genus", "0", "--powers", "0,0,0"], tmp_path)
    assert code == 0 and out == "1\n"
    code, out = run_cli(["tau", "--genus", "1", "--powers", "1"], tmp_path)
    assert code == 0 and out == "1/24\n"
    code, out = run_cli(["tau", "--genus", "1", "--powers", "0,0,3"], tmp_path)
    from wkintersect import oracle

    assert code == 0 and out.strip() == str(oracle.virasoro_tau(1, (0, 0, 3)))


def test_tau_domain_error(tmp_path):
    code, _ = run_cli(["tau", "--genus", "0", "--powers", "0,0"], tmp_path)
    assert code == 2
    code, _ = run_cli(["tau", "--genus", "1", "--powers", "-3"], tmp_path)
    assert code == 2


def test_negative_genus_is_a_domain_error(tmp_path, capsys):
    for args in (
        ["agn", "--genus", "-1", "-n", "5"],
        ["tau", "--genus", "-1", "--powers", "0,0,0,0,0"],
    ):
        code, out = run_cli(args, tmp_path)
        assert code == 2 and out == ""
        assert "negative genus -1" in capsys.readouterr().err


def test_pn_outputs(tmp_path):
    code, out = run_cli(["pn", "-n", "4", "-r", "3", "--basis", "schur"], tmp_path)
    assert code == 0 and out == "s[3,3,2,2] 1/24\n"
    code, out = run_cli(["pn", "-n", "5", "-r", "1", "--basis", "elementary"], tmp_path)
    assert code == 0
    assert out.splitlines() == ["e[5] 27/10", "e[4,1] -3/2", "e[3,1,1] 1/2"]
    code, _ = run_cli(["pn", "-n", "4", "-r", "9"], tmp_path)
    assert code == 2


def test_agn_outputs(tmp_path):
    code, out = run_cli(["agn", "--genus", "0", "-n", "5", "--basis", "elementary"], tmp_path)
    assert code == 0 and out == "e[1,1] 1\n"
    code, out = run_cli(
        ["--format", "tsv", "agn", "--genus", "1", "-n", "3", "--basis", "monomial"], tmp_path
    )
    assert code == 0
    assert out.splitlines() == ["3\t1/24", "2,1\t1/12", "1,1,1\t1/12"]


def test_dtable_idempotent_and_verify(tmp_path):
    code, out = run_cli(["dtable", "-n", "3", "--r-max", "1"], tmp_path)
    assert code == 0
    path = tmp_path / "dtable.txt"
    first = path.read_bytes()
    assert first.startswith(b"# dtable v1\n")
    code, _ = run_cli(["dtable", "-n", "3", "--r-max", "1"], tmp_path)
    assert code == 0
    assert path.read_bytes() == first

    code, out = run_cli(["verify", "--g-max", "2", "--n-max", "4"], tmp_path)
    assert code == 0
    assert "0 mismatches" in out
    code, out = run_cli(["verify", "--g-max", "1", "--n-max", "4"], tmp_path)
    assert code == 0 and "0 mismatches" in out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--g-max", "-1"],
        ["verify", "--n-max", "0"],
        ["verify", "--g-max", "0", "--n-max", "2"],
        ["bench", "-n", "3", "--g-max", "0"],
    ],
)
def test_empty_verify_and_bench_boxes_are_domain_errors(tmp_path, capsys, args):
    code, out = run_cli(args, tmp_path)
    assert code == cli.EXIT_DOMAIN == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_reports_its_coverage_per_n(tmp_path):
    code, out = run_cli(["verify", "--g-max", "4", "--n-max", "5"], tmp_path)
    assert code == 0
    # tau delegates to the recursion at n <= 2: 20 of the 275 indices
    # compare the oracle with itself
    assert out.splitlines() == [
        "n=1: 4 indices, oracle only",
        "n=2: 16 indices, oracle only",
        "n=3: 42 indices, formula against oracle",
        "n=4: 79 indices, formula against oracle",
        "n=5: 134 indices, formula against oracle",
        "verified 275 indices, 0 mismatches",
    ]


# Runs ``wk`` in a child of a small interpreter and prints the child's exit
# code, last output line and ru_maxrss.  The extra level matters: a process
# started straight from the test runner inherits the runner's resident-set
# high-water mark through vfork and exec, so its own ru_maxrss would read
# the runner's size.
_PEAK_RSS = """
import resource, subprocess, sys
res = subprocess.run([sys.executable, "-m", "wkintersect.cli"] + sys.argv[1:],
                     capture_output=True, text=True)
print(res.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(res.stdout.splitlines()[-1])
"""


@pytest.mark.extended
def test_verify_peak_memory_does_not_grow_with_the_genus(tmp_path):
    # one process per box: the formula keeps nothing per index, so eight
    # more genera (several thousand more indices) cost little more memory
    # than the small box
    peak = {}
    for g_max in (2, 10):
        res = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "--cache-dir", str(tmp_path / str(g_max)),
             "verify", "--g-max", str(g_max), "--n-max", "5"],
            capture_output=True,
            text=True,
        )
        first, last = res.stdout.splitlines()
        code, peak[g_max] = map(int, first.split())
        assert code == 0 and last.endswith(" 0 mismatches"), res.stdout
    assert peak[10] < 1.5 * peak[2], peak


def test_verify_detects_poisoned_cache(tmp_path):
    run_cli(["dtable", "-n", "3", "--r-max", "1"], tmp_path)
    path = tmp_path / "dtable.txt"
    text = path.read_text()
    assert "1,1,1 1/2" in text
    path.write_text(text.replace("1,1,1 1/2", "1,1,1 1/3"))
    code, out = run_cli(["verify", "--g-max", "1", "--n-max", "3"], tmp_path)
    assert code == 1
    assert "MISMATCH" in out


def test_elo_detects_poisoned_cache(tmp_path):
    run_cli(["dtable", "-n", "4", "--r-max", "1"], tmp_path)
    path = tmp_path / "dtable.txt"
    table = DTable.load(path)
    table.put(1, 4, {**table.get(1, 4), (2, 2): 1})  # e[2,2] breaks len(nu) <= r = 1
    table.save(path)
    code, out = run_cli(["elo", "-n", "4", "--r-max", "1"], tmp_path)
    assert code == cli.EXIT_MISMATCH == 1
    assert out.startswith("MISMATCH length bound violated in component r=1 of n=4")


def test_concurrent_dtable_writers_keep_both_block_sets(tmp_path):
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "wkintersect.cli", "--cache-dir", str(tmp_path), "dtable", "-n", n],
            stdout=subprocess.DEVNULL,
        )
        for n in ("4", "5")
    ]
    assert [p.wait(timeout=300) for p in procs] == [0, 0]
    table = DTable.load(tmp_path / "dtable.txt")
    want = {(r, n) for n in (4, 5) for r in range(r_max(n) + 1)}
    assert set(table.blocks) == want


_HOLD_LOCK = """
import os, sys
with open(sys.argv[1], "wb") as fh:
    os.lockf(fh.fileno(), os.F_LOCK, 0)
    print("locked", flush=True)
    sys.stdin.read()
"""


def _source_env():
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(cli.__file__), os.pardir))


def test_dtable_waits_for_a_held_cache_lock(tmp_path):
    # a writer that does not take the same lock could interleave with this
    # one; the wait is what keeps both writers' blocks
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(tmp_path / "dtable.txt.lock")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    writer = None
    try:
        assert select.select([holder.stdout], [], [], 60)[0], "the helper never took the lock"
        assert holder.stdout.readline() == "locked\n"
        writer = subprocess.Popen(
            [sys.executable, "-m", "wkintersect.cli", "--cache-dir", str(tmp_path), "dtable", "-n", "3"],
            stdout=subprocess.DEVNULL, env=_source_env(),
        )
        with pytest.raises(subprocess.TimeoutExpired):
            writer.wait(timeout=1)
        assert not (tmp_path / "dtable.txt").exists()
        holder.stdin.close()
        assert holder.wait(timeout=60) == 0
        assert writer.wait(timeout=120) == 0
    finally:
        for proc in (holder, writer):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        holder.stdin.close()
        holder.stdout.close()
    assert set(DTable.load(tmp_path / "dtable.txt").blocks) == {(0, 3), (1, 3)}


def test_dtable_parses_an_existing_cache_once(tmp_path, monkeypatch):
    assert run_cli(["dtable", "-n", "4"], tmp_path)[0] == 0
    parsed = []
    loads = DTable.loads.__func__

    def counting(cls, data):
        parsed.append(len(data))
        return loads(cls, data)

    monkeypatch.setattr(DTable, "loads", classmethod(counting))
    code, out = run_cli(["dtable", "-n", "5"], tmp_path)
    assert code == 0 and out.endswith("(11 blocks)\n")
    assert len(parsed) == 1


def test_dtable_beyond_the_budget_is_a_domain_error(tmp_path, capsys):
    # the admission budget refuses n = 8 before any build, also under the
    # cache lock, where a cache error would be exit 3
    t0 = time.perf_counter()
    code, out = run_cli(["dtable", "-n", "8"], tmp_path)
    assert time.perf_counter() - t0 < 1
    assert code == cli.EXIT_DOMAIN == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_internal_limit_exit_code(tmp_path, capsys):
    code, out = run_cli(["tau", "--genus", "700", "--powers", "2098"], tmp_path)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_admission_budget_exit_code(tmp_path, capsys):
    # an n = 1500 genus-0 table would enumerate the partitions of 1497
    powers = ",".join(["1497"] + ["0"] * 1499)
    t0 = time.perf_counter()
    code, out = run_cli(["tau", "--genus", "0", "--powers", powers], tmp_path)
    assert time.perf_counter() - t0 < 2
    assert code == cli.EXIT_DOMAIN == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_unexpected_exception_exit_code(tmp_path, capsys, monkeypatch):
    def broken(args, out):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_tau", broken)
    code, out = run_cli(["tau", "--genus", "0", "--powers", "0,0,0"], tmp_path)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: internal failure: KeyError: 'boom'"]


def test_bench_divergence_is_a_mismatch(tmp_path, monkeypatch):
    from wkintersect import oracle

    monkeypatch.setattr(oracle, "virasoro_tau", lambda g, d: -1)
    code, out = run_cli(["bench", "-n", "3", "--g-max", "1"], tmp_path)
    assert code == cli.EXIT_MISMATCH == 1
    assert out.splitlines()[-1].startswith("MISMATCH g=1 ")


def test_elo_counts(tmp_path):
    code, out = run_cli(["elo", "-n", "3"], tmp_path)
    assert code == 0
    assert out.splitlines()[1:] == ["0\t1\t1", "1\t1\t2"]
    code, out = run_cli(["--format", "tsv", "elo", "-n", "4"], tmp_path)
    assert out.splitlines() == ["0\t1\t1", "1\t2\t3", "2\t2\t5", "3\t1\t8"]


def test_cold_elo_bootstraps_once(tmp_path, monkeypatch):
    calls = []
    build = pengine.bootstrap_all

    def counting(r_top, n):
        calls.append((r_top, n))
        return build(r_top, n)

    monkeypatch.setattr(pengine, "bootstrap_all", counting)
    code, out = run_cli(["--format", "tsv", "elo", "-n", "6"], tmp_path)
    assert code == 0
    assert calls == [(10, 6)]
    assert out.splitlines() == [
        "0\t1\t1", "1\t4\t5", "2\t8\t11", "3\t16\t20", "4\t23\t31", "5\t27\t46",
        "6\t27\t64", "7\t24\t87", "8\t17\t114", "9\t9\t148", "10\t4\t187",
    ]


def test_bench_shape(tmp_path):
    code, out = run_cli(["bench", "-n", "3", "--g-max", "2"], tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# bench n=3")
    assert lines[1] == "g\tt_formula\tt_oracle"
    assert len(lines) == 4
    for line in lines[2:]:
        g, tf, to = line.split("\t")
        float(tf), float(to)


def test_bench_json(tmp_path):
    code, out = run_cli(["bench", "-n", "3", "--g-max", "2", "--json"], tmp_path)
    assert code == 0
    assert len(out.splitlines()) == 1
    report = json.loads(out)
    assert set(report) == {"n", "g_max", "setup_seconds", "rows"}
    assert (report["n"], report["g_max"]) == (3, 2)
    assert report["setup_seconds"] >= 0
    assert [row["g"] for row in report["rows"]] == [1, 2]
    for row in report["rows"]:
        assert set(row) == {"g", "t_formula", "t_oracle"}
        assert row["t_formula"] >= 0 and row["t_oracle"] >= 0


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = cli.main(
        ["--cache-dir", str(blocker / "sub"), "dtable", "-n", "3", "--r-max", "0"],
        out=io.StringIO(),
    )
    assert code == 3


def test_malformed_cache_is_io_error(tmp_path):
    (tmp_path / "dtable.txt").write_text("# dtable v9\n")
    code, _ = run_cli(["tau", "--genus", "0", "--powers", "0,0,0"], tmp_path)
    assert code == 3


@pytest.mark.parametrize(
    "data",
    [
        "# dtable v1\nn=3 r=0 terms=1\n- 1\n\nn=3 r=0 terms=1\n- 2\n",  # a repeated block
        "# dtable v1\nn=3 r=0 terms=1\n- 1/0\n",  # a zero denominator
        "# dtable v1\nn=3 r=0 terms=1\n- 1\n- 2\n",  # a repeated partition
        "# dtable v1\nn=3 r=0\n- 1\n- 2\n",  # the same without a term count
        "# dtable v1\nn=4 r=2\n2,1,1,1,1,1 1/5\n",  # a partition with more than n rows
        "# dtable v1\nn=3 r=9 terms=1\n1 1\n",  # a component index out of range
        "# dtable v1\nn=3 r=1 terms=2\n1,1,1 1/2\n",  # fewer terms than the header counts
        "# dtable v1\nn=3 q=0\n- 1\n",  # a header field that is not r=
        "# dtable v1\nn=3 r=0 terms=1 x\n- 1\n",  # a trailing header token
        "# dtable v1\nn=3 r=0 terms=1\n- 1 2\n",  # a coefficient line of three tokens
        "# dtable v1\nn=3 r=0 terms=1\n-\n",  # ... of one token
        "# dtable v1\nn=3 r=0 terms=1\nx 1\n",  # a partition that is not one
        "# dtable v1\nn=3 r=0 terms=1\n1,a 1\n",  # ... with a part that is not a number
        # an Arabic-Indic digit one: int() reads it, but it is not ASCII
        "# dtable v1\nn=3 r=0 terms=1\n- \u0661\n",
    ],
)
def test_damaged_cache_is_io_error(tmp_path, data):
    (tmp_path / "dtable.txt").write_text(data, encoding="utf-8")
    code, out = run_cli(["tau", "--genus", "0", "--powers", "0,0,0"], tmp_path)
    assert code == 3 and out == ""
    code, _ = run_cli(["dtable", "-n", "3", "--r-max", "0"], tmp_path)
    assert code == 3


def test_env_var_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WK_CACHE_DIR", str(tmp_path))
    out = io.StringIO()
    code = cli.main(["dtable", "-n", "3", "--r-max", "0"], out=out)
    assert code == 0
    assert (tmp_path / "dtable.txt").exists()


def test_console_script_smoke(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "wkintersect.cli", "--cache-dir", str(tmp_path), "tau", "--genus", "2", "--powers", "4"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "1/1152"


# ---------------------------------------------------------------------------
# the command-line parser against the argparse reference in tests/brute.py
# ---------------------------------------------------------------------------


def readme_wk_lines():
    """The argv of every `wk` line in the README "Command line" block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("wk ")]


# every argv the tests of this module pass to cli.main (without the
# --cache-dir prefix), then other spellings argparse accepts: an attached
# short value, '=', and a prefix of a long option
CLI_TEST_ARGV = [
    "tau --genus 0 --powers 0,0,0",
    "tau --genus 1 --powers 1",
    "tau --genus 1 --powers 0,0,3",
    "tau --genus 0 --powers 0,0",
    "tau --genus 1 --powers -3",
    "tau --genus -1 --powers 0,0,0,0,0",
    "tau --genus 700 --powers 2098",
    "tau --genus 0 --powers " + ",".join(["1497"] + ["0"] * 1499),
    "tau --genus 2 --powers 4",
    "agn --genus -1 -n 5",
    "agn --genus 0 -n 5 --basis elementary",
    "--format tsv agn --genus 1 -n 3 --basis monomial",
    "pn -n 4 -r 3 --basis schur",
    "pn -n 5 -r 1 --basis elementary",
    "pn -n 4 -r 9",
    "dtable -n 3 --r-max 0",
    "dtable -n 3 --r-max 1",
    "dtable -n 4 --r-max 1",
    "dtable -n 4",
    "dtable -n 5",
    "verify --g-max 1 --n-max 3",
    "verify --g-max 2 --n-max 4",
    "verify --g-max 1 --n-max 4",
    "verify --g-max 4 --n-max 5",
    "verify --g-max 2 --n-max 5",
    "verify --g-max 10 --n-max 5",
    "verify --g-max -1",
    "verify --n-max 0",
    "verify --g-max 0 --n-max 2",
    "elo -n 3",
    "elo -n 4 --r-max 1",
    "--format tsv elo -n 4",
    "bench -n 3 --g-max 0",
    "bench -n 3 --g-max 1",
    "bench -n 3 --g-max 2",
    "bench -n 3 --g-max 2 --json",
    "dtable -n3 --r-max=0",
    "tau --gen 1 --powers 1",
    "elo -n=3 --r 1",
    "--form=tsv pn -r2 -n 4 --b e",
]


def parse_both(argv):
    """(argparse fields, table-parser fields), the handler by name."""
    old = vars(build_parser().parse_args(argv))
    old["func"] = old["func"].__name__
    new = vars(cli.parse_args(argv))
    new["func"] = cli.COMMANDS[new["command"]][0]
    return old, new


def test_parser_matches_the_argparse_reference():
    lines = [argv for argv in readme_wk_lines() if "--help" not in argv]
    lines += [["--cache-dir", "/c"] + line.split() for line in CLI_TEST_ARGV]
    assert len(lines) > len(CLI_TEST_ARGV)
    for argv in lines:
        old, new = parse_both(argv)
        assert old == new, argv


def test_help_goes_to_out_with_exit_0(capsys):
    for argv in ([], ["tau"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--help"])
        assert exc.value.code == 0
        out = io.StringIO()
        assert cli.main(argv + ["--help"], out=out) == 0
        assert out.getvalue().startswith("usage: wk")
        assert "-h, --help" in out.getvalue()
        for option in (cli.GLOBAL_OPTIONS if not argv else cli.COMMANDS[argv[0]][2]):
            assert option in out.getvalue()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["tau", "--genus", "1", "--powers", "1", "--bogus"],
        ["tau", "--genus", "1", "--powers", "1", "--format", "tsv"],
        ["tau", "--genus", "1"],
        ["tau", "--genus", "x", "--powers", "1"],
        ["agn", "--genus", "1", "-n", "4", "--basis", "q"],
        ["tau", "--genus", "1", "--powers"],
        ["bench", "-n", "3", "--json=1"],
    ],
)
def test_malformed_argv_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    out = io.StringIO()
    assert cli.main(argv, out=out) == cli.EXIT_DOMAIN == 2
    captured = capsys.readouterr()
    assert out.getvalue() == "" and captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: wk")
    assert error.startswith("wk: error: " if argv[:1] in ([], ["bogus"]) else "wk %s: error: " % argv[0])


def test_a_dash_value_goes_to_the_command(tmp_path, capsys):
    # the one deliberate difference: argparse takes "-1,0,2" for an option
    # and stops; the table parser hands it to tau, which refuses it
    argv = ["tau", "--genus", "0", "--powers", "-1,0,2"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert cli.parse_args(argv).powers == "-1,0,2"
    code, out = run_cli(argv, tmp_path)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: negative tau index in (-1, 0, 2)\n"


_MODULES_AFTER_CALLS = """
import io, sys
from wkintersect import cli
imported = set(sys.modules)
for argv in (["dtable", "-n", "4"], ["tau", "--genus", "1", "--powers", "0,0,3"]):
    assert cli.main(["--cache-dir", sys.argv[1]] + argv, out=io.StringIO()) == 0
print(" ".join(m for m in ("argparse", "gettext", "locale", "encodings.ascii") if m in sys.modules))
print(" ".join(sorted(set(sys.modules) - imported)))
"""


def test_calls_import_no_argument_parser(tmp_path):
    # argparse's set-up (and the locale module its first gettext call
    # imports) was most of the cost of a small `wk` call; the cache is read
    # and written as bytes, so no call imports the ascii codec either, and
    # the calls import nothing beyond what importing the CLI did
    res = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_CALLS, str(tmp_path)],
        capture_output=True, text=True, env=_source_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n\n"
