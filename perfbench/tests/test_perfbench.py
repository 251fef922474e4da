"""The benchmark's own checks: seeded operation lists, and output checkers
that count a deliberately perturbed value as a failure.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wkintersect.pengine import DTable  # noqa: E402

TABLE_PATH = os.path.join(BENCH, workloads.TABLE_FILE)


def _table_text():
    with open(TABLE_PATH, encoding="ascii") as fh:
        return fh.read()


def _strata(ops):
    """(kind, genus or cache, n or argv) of every operation, with counts."""
    return Counter((op[0], op[1], len(op[2])) if op[0] in ("tau", "oracle") else op
                   for op in ops)


def test_operation_lists_are_pure_functions_of_the_seed():
    for name in ("tables", "queries"):
        make = workloads.OPS[name]
        assert make(7) == make(7), name
        assert make(7) != make(8), name
        # same length, kinds and (g, n) strata on every seed, so the share
        # of failing operations and the cost mix do not move with the seed
        assert _strata(make(7)) == _strata(make(8)), name
    assert workloads.sweep_ops(7) == workloads.sweep_ops(8)


def test_tables_are_the_steps_of_the_core_build():
    ops = workloads.tables_ops(1)
    steps = sorted((int(op[1][2]), int(op[1][4])) for op in ops if op[0] == "dtable")
    assert steps == workloads.core_steps()
    assert steps[-1] == (6, workloads.CORE_N6_R)
    assert [op for op in ops if op[0] != "dtable"] == [("direct_p", 4)]


def test_queries_mix_is_large_enough_for_p90():
    assert len(workloads.queries_ops(1)) >= 100
    assert len(workloads.sweep_ops(1)) >= 100
    ops = workloads.queries_ops(3)
    assert sum(op[0] == "oracle" for op in ops) == len(workloads.DEEP_GENUS0)
    for op in ops:
        if op[0] in ("tau", "oracle"):
            assert sum(op[2]) == workloads.degree(op[1], len(op[2])), op
            if len(op[2]) == 6:
                assert op[1] <= workloads.TABLE_N6_R, op


def test_sweep_box_matches_the_program_enumeration():
    from wkintersect.partitions import partition_class

    want = []
    for n in sorted(workloads.SWEEP_BOX):
        for g in range(workloads.SWEEP_BOX[n] + 1):
            if 2 * g - 2 + n > 0:
                want += [lam + (0,) * (n - len(lam))
                         for lam in partition_class(workloads.degree(g, n), n)]
    assert [op[2] for op in workloads.sweep_ops(0)] == want


def test_tau_checker_rejects_perturbed_values():
    ops = [("tau", 3, (7,)), ("tau", 2, (3, 2)), ("tau", 0, (2, 1, 0, 0, 0)),
           ("tau", 2, (2, 2, 2)), ("oracle", 0, (5,) + (0,) * 7)]
    want = checks.expected_values(ops)
    assert want[ops[0]] == Fraction(1, 24 ** 3 * 6)
    assert want[ops[2]] == 1
    assert want[ops[4]] == 1
    for op in ops:
        assert checks.value_ok(op, want[op], want[op]), op
        assert not checks.value_ok(op, want[op] + Fraction(1, 10 ** 9), want[op]), op
        assert not checks.value_ok(op, 2 * want[op] + 1, want[op]), op


def test_polynomial_checkers_reject_perturbed_coefficients():
    for op in (("a_gn", 2, 4), ("w_gn", 2, 5)):
        want = checks.expected_values([op])[op]
        got = dict(want)
        assert checks.value_ok(op, got, want)
        key = sorted(got)[0]
        got[key] = got[key] * 3
        assert not checks.value_ok(op, got, want), op
        got = dict(want)
        del got[key]
        assert not checks.value_ok(op, got, want), op


def test_table_checker_accepts_the_input_and_rejects_changes():
    text = _table_text()
    assert checks.input_table_errors(text, workloads.TABLE_N6_R) == []
    lines = text.splitlines(keepends=True)
    # change one coefficient of the last n = 5 block
    i = max(k for k, line in enumerate(lines) if line.startswith("n=5"))
    head, value = lines[i + 1].split()
    lines_bad = lines[: i + 1] + ["%s %s\n" % (head, Fraction(value) * 2)] + lines[i + 2:]
    assert checks.input_table_errors("".join(lines_bad), workloads.TABLE_N6_R)
    # a file cut after a coefficient line still parses, but loses terms
    assert checks.input_table_errors("".join(lines[:-3]), workloads.TABLE_N6_R)
    # a missing block
    assert checks.input_table_errors(text, workloads.TABLE_N6_R + 1)


def test_direct_route_checker_rejects_a_changed_term():
    text = _table_text()
    total = {}
    for (r, n), block in DTable.loads(text).blocks.items():
        if n == 4:
            for k, v in block.items():
                total[k] = total.get(k, 0) + v
    assert checks.direct_errors(text, 4, total) == []
    key = sorted(total)[-1]
    total[key] += 1
    assert checks.direct_errors(text, 4, total)


def _perturbed_table():
    table = DTable.loads(_table_text())
    table.put(1, 4, {k: 2 * v for k, v in table.get(1, 4).items()})
    return table


def test_sweep_round_counts_formula_recursion_mismatch():
    ops = [("tau", 2, (5, 2, 0, 0)), ("tau", 2, (3, 2, 2, 0)), ("tau", 3, (7,))]
    ctx = {"table": DTable.loads(_table_text()), "table_path": TABLE_PATH,
           "expected": checks.expected_values([ops[2]])}
    good = run.sweep_round(ops, ctx, False)
    assert (good.attempted, good.failed, good.wrong) == (3, 0, [])
    ctx["table"] = _perturbed_table()
    bad = run.sweep_round(ops, ctx, False)
    assert bad.failed == 1 and bad.wrong[0].startswith(repr(ops[1]))


def test_queries_round_counts_wrong_and_raised_operations():
    ops = [("tau", 2, (2, 3, 2, 0)), ("w_gn", 1, 4), ("oracle", 0, (1097,) + (0,) * 1099)]
    ctx = {"table": DTable.loads(_table_text()), "table_path": TABLE_PATH,
           "expected": checks.expected_values(ops)}
    rnd = run.queries_round(ops, ctx, False)
    assert (rnd.attempted, rnd.failed, rnd.wrong) == (3, 1, [])  # RecursionError
    ctx["table"] = _perturbed_table()
    rnd = run.queries_round(ops, ctx, False)
    assert rnd.failed == 3 and len(rnd.wrong) == 2


def test_tables_round_checks_each_build_and_the_direct_route():
    ops = [("direct_p", 4), ("dtable", workloads.dtable_argv(4, 3)),
           ("dtable", workloads.dtable_argv(3, 1))]
    rnd = run.tables_round(ops, False)
    assert (rnd.attempted, rnd.failed, rnd.wrong) == (3, 0, [])
    # without the full n = 4 build there is nothing to check direct_p against
    rnd = run.tables_round(ops[:1] + ops[2:], False)
    assert rnd.failed == 1 and rnd.wrong[0].startswith("('direct_p', 4)")


def test_a_process_that_dies_is_timed_from_outside():
    def die():
        time.sleep(0.05)
        os._exit(3)

    rnd = run.Round(False)
    res = rnd.run(("tau", 1, (1,)), die)
    assert res["error"] and rnd.latency[0] >= 0.05 and rnd.attempted == 1
