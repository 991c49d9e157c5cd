"""tools/trace_identity.py: its selftest comparison, its tolerance mode (``--rtol``) and its line counters."""

import importlib.util
import math
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "trace_identity", Path(__file__).resolve().parents[1] / "tools" / "trace_identity.py")
trace_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_identity)

HEAD = "# flags bitfield: 1=u_clamped 2=z_at_limit\nt,v_d,z_d,flags\n"
ROWS = [(0.0, 1.5, 0.25, 2), (1e-4, -2.25, 0.0, 1), (2e-4, 47.9, -0.5, 2)]
SUMMARY = {"controller": "oflc", "aborted": "False", "cost_integral_A2s": 9.328, "ticks_u_clamped": "1"}


def _trace(rows):
    return HEAD + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _summary(items):
    return "".join(f"{key}: {value!r}\n" if isinstance(value, float) else f"{key}: {value}\n"
                   for key, value in items.items())


def _check(ref, work, rtol, trace):
    problem, _, _ = trace_identity.compare_text(ref, work, rtol, trace)
    return problem is None


def test_trace_tolerance():
    ref = _trace(ROWS)
    assert _check(ref, ref, 0.0, trace=True)
    one_ulp = [(t, math.nextafter(v, math.inf), z, f) for t, v, z, f in ROWS]
    assert _check(ref, _trace(one_ulp), 1e-12, trace=True)
    flipped = ROWS[:1] + [ROWS[1][:3] + (3,)] + ROWS[2:]
    assert not _check(ref, _trace(flipped), 1.0, trace=True)
    moved = ROWS[:2] + [(2e-4, 47.9 * (1.0 + 1e-6), -0.5, 2)]
    assert not _check(ref, _trace(moved), 1e-9, trace=True)
    assert _check(ref, _trace(moved), 1e-5, trace=True)
    # the scale is the largest magnitude of the column: 1e-9 of 47.9 absorbs this change of -2.25
    assert _check(ref, _trace([ROWS[0], (1e-4, -2.25 + 1e-8, 0.0, 1), ROWS[2]]), 1e-9, trace=True)
    assert not _check(ref, _trace(ROWS[:2]), 1.0, trace=True)


def test_summary_tolerance():
    ref = _summary(SUMMARY)
    cost = SUMMARY["cost_integral_A2s"]
    assert _check(ref, _summary(dict(SUMMARY, cost_integral_A2s=math.nextafter(cost, 0.0))), 1e-12, trace=False)
    assert not _check(ref, _summary(dict(SUMMARY, cost_integral_A2s=cost * (1.0 + 1e-6))), 1e-9, trace=False)
    assert not _check(ref, _summary(dict(SUMMARY, ticks_u_clamped="2")), 1.0, trace=False)
    assert not _check(ref, _summary(dict(SUMMARY, aborted="True")), 1.0, trace=False)


def test_largest_deviation_is_named():
    # the column or summary key of a file's largest deviation, or None where nothing deviates
    assert trace_identity.compare_text(_trace(ROWS), _trace(ROWS), 0.0, trace=True) == (None, 0.0, None)
    rows = [(0.0, 1.5, 0.25 * (1.0 + 1e-13), 2), (1e-4, -2.25, 0.0, 1), (2e-4, 47.9 * (1.0 + 1e-15), -0.5, 2)]
    problem, worst, where = trace_identity.compare_text(_trace(ROWS), _trace(rows), 1e-12, trace=True)
    assert problem is None and where == "z_d" and 0.0 < worst < 1e-12
    summary = dict(SUMMARY, cost_integral_A2s=SUMMARY["cost_integral_A2s"] * (1.0 + 1e-14))
    problem, _, where = trace_identity.compare_text(_summary(SUMMARY), _summary(summary), 1e-12, trace=False)
    assert problem is None and where == "cost_integral_A2s"


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment alone\n"
        "X = 1  # a comment after code\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    return """not a docstring"""\n'
        "\n"
        "class C:\n"
        "    '''Class\n"
        "    docstring.'''\n"
        "    y = 2\n"
    )
    # the code lines: X = 1, def f, return, class C and y = 2
    assert trace_identity.count_lines(source) == (15, 5)


def test_module_lines_counts_each_file_and_package_lines_sums_them(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text('"""Docstring."""\n\nX = 1\n')
    (tmp_path / "sub" / "b.py").write_text("# a comment\ndef f():\n    return 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert trace_identity.module_lines(tmp_path) == {"a.py": (3, 1), "sub/b.py": (3, 2)}
    assert trace_identity.package_lines(tmp_path) == (6, 3)


def _side(root, selftest_stdout):
    """Write one side's outputs as ``run_side`` does: every run's files and the selftest's stdout."""
    for name in trace_identity.RUNS:
        (root / name).mkdir(parents=True)
        for output in trace_identity.OUTPUTS:
            (root / name / output).write_text(f"{name}/{output}\n")
    (root / trace_identity.SELFTEST).write_text(selftest_stdout)
    return root


def test_differences_compare_the_selftest_output_and_exit_code(tmp_path):
    codes = dict.fromkeys((*trace_identity.RUNS, "selftest"), 0)
    ref = _side(tmp_path / "ref", "PASS  a check\nselftest OK\n")
    assert trace_identity.differences(ref, _side(tmp_path / "same", "PASS  a check\nselftest OK\n"),
                                      codes, codes) == ([], [])
    other = _side(tmp_path / "other", "FAIL  a check\n1 selftest check(s) failed\n")
    for rtol in (None, 1.0):  # the selftest output is compared byte for byte in either mode
        _, found = trace_identity.differences(ref, other, codes, dict(codes, selftest=1), rtol)
        assert found == ["selftest: exit code 0 at REF, 1 in the working tree",
                         "selftest.txt: `oflc selftest` output differs"]


def test_run_side_runs_the_selftest(tmp_path, monkeypatch):
    monkeypatch.setattr(trace_identity, "RUNS", {})
    assert trace_identity.run_side(trace_identity.ROOT / "src", tmp_path / "out") == {"selftest": 0}
    assert (tmp_path / "out" / trace_identity.SELFTEST).read_text().endswith("selftest OK\n")
