"""Check that the CLI outputs of the working tree equal those of a git revision.

Usage, from the repository root:

    python3 tools/trace_identity.py REF [--rtol R]

Runs ``oflc compare --controllers oflc flc_z0 id_zero`` on
``scenarios/{s1,step,mechanical}.cfg``, once more on ``step.cfg`` with
``--decimate 7``, and once more on ``s1.cfg`` with every controller
setting overridden (``--alpha-z 0.5 --kp 2 --ki 100 --horizon 2e-3
--v-max 40``, so a setting that does not reach the run shows), twice:
with the working tree's ``src/`` and with the ``src/`` of git revision
``REF``, exported with ``git archive`` into a temporary directory.  Both
sides read the working tree's scenario files, and both also run ``oflc
selftest``.  The 35 output files (three traces, three summaries and the
compare summary per run) are compared byte for byte, or with ``--rtol R``
within a tolerance (see ``compare_text``); the selftest's stdout is
always compared byte for byte.  Exits 0 when every file and the selftest
output match and every exit code is identical, 1 on any difference or
missing file, and 2 when a side cannot be set up.  It also prints the
total and code-line counts of ``src/oflc`` on both sides (see
``count_lines``), and both sides' counts of each module whose counts
differ.
"""

import argparse
import ast
import filecmp
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run name -> (scenario file stem, extra compare arguments)
RUNS = {
    "s1": ("s1", ()),
    "step": ("step", ()),
    "mechanical": ("mechanical", ()),
    "step_decimate7": ("step", ("--decimate", "7")),
    "s1_overrides": ("s1", ("--alpha-z", "0.5", "--kp", "2", "--ki", "100", "--horizon", "2e-3", "--v-max", "40")),
}
CONTROLLERS = ("oflc", "flc_z0", "id_zero")
OUTPUTS = tuple(f"{c}_{kind}" for c in CONTROLLERS for kind in ("trace.csv", "summary.txt")) + ("compare_summary.txt",)
# summary keys compared exactly in --rtol mode, besides every ticks_* count
EXACT_KEYS = ("controller", "scenario", "aborted")
# the file, under each side's output directory, that holds the stdout of `oflc selftest`
SELFTEST = "selftest.txt"


def export_tree(ref, dest, *paths):
    """Write the files of git revision ``ref`` under ``dest``: those under ``paths``, or all of them."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref, *paths], stdout=subprocess.PIPE)
    try:
        untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    finally:
        archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot export {' '.join(paths) or 'the tree'} of {ref!r}")
    return dest


def count_lines(source):
    """(total lines, code lines) of Python ``source``.

    A code line is one that is not blank, not a comment alone and not part
    of a module, class or function docstring.
    """
    lines = source.splitlines()
    skipped = {n for n, line in enumerate(lines, 1) if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skipped)


def module_lines(package):
    """{path relative to directory ``package``: (total lines, code lines)} of each ``.py`` file under it."""
    return {path.relative_to(package).as_posix(): count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def package_lines(package):
    """(total lines, code lines) summed over the ``.py`` files under directory ``package``."""
    counts = module_lines(package).values()
    return sum(total for total, _ in counts), sum(code for _, code in counts)


def _counted(counts):
    return "absent" if counts is None else "{} lines, {} code lines".format(*counts)


def run_side(src, out_root):
    """Make every run and ``oflc selftest`` with the package in ``src``.

    Returns the exit codes by run name, and the selftest's under
    "selftest"; the selftest's stdout goes to ``out_root / SELFTEST``.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name, (scenario, extra) in RUNS.items():
        argv = [sys.executable, "-m", "oflc.cli", "compare", "--scenario", f"scenarios/{scenario}.cfg",
                "--controllers", *CONTROLLERS, "--out", str(out_root / name), *extra]
        codes[name] = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
    selftest = subprocess.run([sys.executable, "-m", "oflc.cli", "selftest"], cwd=ROOT, env=env, stdout=subprocess.PIPE)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / SELFTEST).write_bytes(selftest.stdout)
    codes["selftest"] = selftest.returncode
    return codes


def _deviation(a, b, scale):
    """|a - b| / scale; 0 for equal values (nan included), inf where undefined."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    dev = abs(a - b) / scale if scale > 0.0 else math.inf
    return dev if dev == dev else math.inf


def _compare_trace(ref, work, rtol):
    ref_lines, work_lines = ref.splitlines(), work.splitlines()
    if [x for x in ref_lines if x.startswith("#")] != [x for x in work_lines if x.startswith("#")]:
        return "comment lines differ", math.inf, None
    ref_rows = [x.split(",") for x in ref_lines if not x.startswith("#")]
    work_rows = [x.split(",") for x in work_lines if not x.startswith("#")]
    if ref_rows[:1] != work_rows[:1]:
        return "header differs", math.inf, None
    if len(ref_rows) != len(work_rows):
        return f"{len(work_rows) - 1} rows, {len(ref_rows) - 1} at REF", math.inf, None
    problem, worst, where = None, 0.0, None
    for k, name in enumerate(ref_rows[0] if ref_rows else ()):
        a = [row[k] for row in ref_rows[1:]]
        b = [row[k] for row in work_rows[1:]]
        if name == "flags":
            bad = [n for n, (x, y) in enumerate(zip(a, b)) if x != y]
            if bad:
                problem = problem or f"flags differ on {len(bad)} rows, first at row {bad[0]}"
            continue
        a, b = [float(x) for x in a], [float(y) for y in b]
        scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
        dev = max((_deviation(x, y, scale) for x, y in zip(a, b)), default=0.0)
        if dev > worst:
            worst, where = dev, name
        if dev > rtol:
            problem = problem or f"column {name} deviates by {dev:.3g} of max|REF column|"
    return problem, worst, where


def _compare_summary(ref, work, rtol):
    ref_items = [x.partition(": ")[::2] for x in ref.splitlines()]
    work_items = [x.partition(": ")[::2] for x in work.splitlines()]
    if [k for k, _ in ref_items] != [k for k, _ in work_items]:
        return "keys differ", math.inf, None
    problem, worst, where = None, 0.0, None
    for (key, a), (_, b) in zip(ref_items, work_items):
        if key in EXACT_KEYS or key.startswith("ticks_"):
            if a != b:
                problem = problem or f"{key}: {b} (REF {a})"
            continue
        a, b = float(a), float(b)
        dev = _deviation(a, b, abs(a))
        if dev > worst:
            worst, where = dev, key
        if dev > rtol:
            problem = problem or f"{key} deviates by {dev:.3g} relative"
    return problem, worst, where


def compare_text(ref, work, rtol, trace):
    """Compare one output file's text with REF's within ``rtol``.

    A trace (``trace`` true) must have REF's comment lines, header and row
    count, an identical ``flags`` column, and every other value within
    rtol times the largest finite magnitude of its column in REF.  A
    summary must have REF's keys in order, identical ``controller``,
    ``scenario``, ``aborted`` and ``ticks_*`` values, and every other
    value within rtol relative to REF's.  Returns (problem or None, the
    largest deviation seen in units of those scales, and the column or
    key where it was seen, or None).
    """
    try:
        return (_compare_trace if trace else _compare_summary)(ref, work, rtol)
    except (ValueError, IndexError) as exc:
        return f"unreadable: {exc}", math.inf, None


def differences(ref_out, work_out, ref_codes, work_codes, rtol=None):
    """One line per output file, selftest output or exit code that does not match.

    The arguments are what ``run_side`` wrote and returned on each side.
    With ``rtol`` every output file that is not byte-identical but
    matches within the tolerance gets a line too, with its largest
    deviation and the column or key where it was seen; the second value
    lists only the mismatches.
    """
    notes, found = [], []
    for name in (*RUNS, "selftest"):
        if ref_codes[name] != work_codes[name]:
            found.append(f"{name}: exit code {ref_codes[name]} at REF, {work_codes[name]} in the working tree")
    if not filecmp.cmp(ref_out / SELFTEST, work_out / SELFTEST, shallow=False):
        found.append(f"{SELFTEST}: `oflc selftest` output differs")
    for name in RUNS:
        for output in OUTPUTS:
            a, b = ref_out / name / output, work_out / name / output
            if not (a.is_file() and b.is_file()):
                found.append(f"{name}/{output}: missing")
            elif filecmp.cmp(a, b, shallow=False):
                continue
            elif rtol is None:
                found.append(f"{name}/{output}: differs")
            else:
                problem, worst, where = compare_text(a.read_text(), b.read_text(), rtol, output.endswith(".csv"))
                if problem:
                    found.append(f"{name}/{output}: differs beyond rtol {rtol:g}: {problem}")
                else:
                    notes.append(f"{name}/{output}: within rtol {rtol:g} (largest deviation {worst:.3g} in `{where}`)")
    return notes, found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    parser.add_argument("--rtol", type=float, default=None,
                        help="accept float differences up to this tolerance (default: byte-identical)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="trace_identity_") as tmp:
        tmp = Path(tmp)
        try:
            ref_src = export_tree(args.ref, tmp / "ref", "src") / "src"
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ref_codes = run_side(ref_src, tmp / "ref_out")
        work_codes = run_side(ROOT / "src", tmp / "work_out")
        notes, found = differences(tmp / "ref_out", tmp / "work_out", ref_codes, work_codes, args.rtol)
        for side, src in ((f"at {args.ref}", ref_src), ("in the working tree", ROOT / "src")):
            print("src/oflc {}: {} lines, {} code lines".format(side, *package_lines(src / "oflc")))
        ref_modules, work_modules = module_lines(ref_src / "oflc"), module_lines(ROOT / "src" / "oflc")
        for name in sorted(ref_modules.keys() | work_modules.keys()):
            ref_count, work_count = ref_modules.get(name), work_modules.get(name)
            if ref_count != work_count:
                print(f"  {name}: {_counted(ref_count)} at {args.ref}, {_counted(work_count)} in the working tree")
    for line in notes + found:
        print(line)
    if found:
        print(f"{len(found)} difference(s) against {args.ref}")
        return 1
    how = "identical" if args.rtol is None else f"within rtol {args.rtol:g} ({len(notes)} not byte-identical)"
    print(f"all {len(RUNS) * len(OUTPUTS)} output files and exit codes {how} to {args.ref}, "
          "and `oflc selftest` output and exit code identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
