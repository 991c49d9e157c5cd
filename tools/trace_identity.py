"""Check that the CLI outputs of the working tree equal those of a git revision.

Usage, from the repository root:

    python3 tools/trace_identity.py REF

Runs ``oflc compare --controllers oflc flc_z0 id_zero`` on
``scenarios/{s1,step,mechanical}.cfg``, and once more on ``step.cfg``
with ``--decimate 7``, twice: with the working tree's ``src/`` and with
the ``src/`` of git revision ``REF``, exported with ``git archive`` into
a temporary directory.  Both sides read the working tree's scenario
files.  The 28 output files (three traces, three summaries and the
compare summary per run) are compared byte for byte.  Exits 0 when every
file and every exit code is identical, 1 on any difference or missing
file, and 2 when a side cannot be set up.
"""

import argparse
import filecmp
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
}
CONTROLLERS = ("oflc", "flc_z0", "id_zero")
OUTPUTS = tuple(f"{c}_{kind}" for c in CONTROLLERS for kind in ("trace.csv", "summary.txt")) + ("compare_summary.txt",)


def export_src(ref, dest):
    """Write the ``src/`` tree of git revision ``ref`` under ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE)
    try:
        untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    finally:
        archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot export src/ of {ref!r}")
    return dest / "src"


def run_side(src, out_root):
    """Make every run with the package in ``src``; return its exit codes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name, (scenario, extra) in RUNS.items():
        argv = [sys.executable, "-m", "oflc.cli", "compare", "--scenario", f"scenarios/{scenario}.cfg",
                "--controllers", *CONTROLLERS, "--out", str(out_root / name), *extra]
        codes[name] = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
    return codes


def differences(ref_out, work_out, ref_codes, work_codes):
    """One line per output file or exit code that is not identical."""
    found = []
    for name in RUNS:
        if ref_codes[name] != work_codes[name]:
            found.append(f"{name}: exit code {ref_codes[name]} at REF, {work_codes[name]} in the working tree")
        for output in OUTPUTS:
            a, b = ref_out / name / output, work_out / name / output
            if not (a.is_file() and b.is_file()):
                found.append(f"{name}/{output}: missing")
            elif not filecmp.cmp(a, b, shallow=False):
                found.append(f"{name}/{output}: differs")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="trace_identity_") as tmp:
        tmp = Path(tmp)
        try:
            ref_src = export_src(args.ref, tmp / "ref")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ref_codes = run_side(ref_src, tmp / "ref_out")
        work_codes = run_side(ROOT / "src", tmp / "work_out")
        found = differences(tmp / "ref_out", tmp / "work_out", ref_codes, work_codes)
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} difference(s) against {args.ref}")
        return 1
    print(f"all {len(RUNS) * len(OUTPUTS)} output files and exit codes identical to {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
