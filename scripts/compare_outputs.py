#!/usr/bin/env python3
"""Compare the outputs of the working tree with those of a git ref, bit for bit.

Usage (from anywhere inside the repository):

    python3 scripts/compare_outputs.py REF

Extracts REF (a commit, branch or tag) into a temporary directory with
``git archive`` and runs the same jobs there and in the working tree, each
in a fresh process that imports patina from its own tree's ``src``:

    chamber     simulate --chamber                        (40 h)
    cycles      simulate --cycles --horizon-hours 480
    year        simulate --env <synthetic year> --horizon-hours 8760
    year-seed1  simulate --env <seeded year> --horizon-hours 8760
    reference   simulate --chamber --config configs/reference_diffusivities.ini
    calibrate   calibrate --measurements data/thickness_measures.csv
                                                         (default grid, 25)

The synthetic year is the series of scripts/run_year_synthetic.py, the
seeded year that of the benchmark's year workload at seed 1
(perfbench/inputs.py); both trees read the same files, written once from
the working tree.  Each simulate job's simulation.csv and the calibrate
job's calibration.csv (fitted values, residual, evaluation count and
predictions) are compared byte for byte; for a job that differs the first
differing line and the number of differing lines are printed.

The CSVs print 6 significant digits, so equal bytes do not prove equal
numbers.  Each child therefore also notes its results at full precision.
For a simulate job that is a SHA-256 of the eight CSV columns of every
record, read by name and packed as IEEE doubles (so trees whose records
carry different extra fields compare by what their CSVs print), and every
run total of the ``SimulationOutput``, each field but the records, by
name; a total at 0 is left out, so a total one tree lacks compares equal
to the other's 0.  For the calibrate job it is the fitted diffusivities,
the residual, the evaluation count, the fitted parameters and the singular
values as ``repr``.  Those notes must match too.  When a simulate job's
records differ, the largest relative difference of each CSV column is
printed, and whether the run totals match; when the calibrate job
differs, the lines of its notes that differ.  Exit code 0 when every job
matches, 1 when any differs or fails to run.  The whole comparison takes
about 4 s on 2 cores.
"""

import argparse
import os
import subprocess
import sys
import tempfile

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
# run_year_synthetic imports patina, so the working tree's src goes on the path
sys.path[:0] = [SCRIPTS, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import numpy as np                # noqa: E402
import inputs                     # noqa: E402  (perfbench/inputs.py)
import run_year_synthetic         # noqa: E402
from patina.simulation import OUTPUT_CSV_HEADER  # noqa: E402

# Runs the CLI on sys.argv[2:] and writes the full-precision notes to
# sys.argv[1], by wrapping the two calls that see the results.  A tree whose
# patina.cli binds ``calibrate`` has it wrapped there; a tree whose
# ``cmd_calibrate`` imports it when it runs has it wrapped on
# patina.calibration.
RUN_CLI = """
import dataclasses, hashlib, importlib, struct, sys
import patina.cli as cli
from patina.simulation import OUTPUT_CSV_HEADER

notes = []
fit_owner = cli if hasattr(cli, "calibrate") else importlib.import_module("patina.calibration")
write_output_csv, calibrate = cli.write_output_csv, fit_owner.calibrate
columns = OUTPUT_CSV_HEADER.split(",")

def noting_write_output_csv(output, path):
    values = [float(getattr(r, c)) for r in output.records for c in columns]
    packed = struct.pack(f"<{len(values)}d", *values)
    notes.append(f"records sha256 {hashlib.sha256(packed).hexdigest()}")
    with open(sys.argv[1] + ".records", "wb") as fh:
        fh.write(packed)
    totals = ((f.name, getattr(output, f.name)) for f in dataclasses.fields(output))
    notes.append(", ".join(f"{name} {value}" for name, value in totals
                           if name != "records" and value))
    write_output_csv(output, path)

def noting_calibrate(*args, **kwargs):
    result = calibrate(*args, **kwargs)
    d = result.diffusivities
    notes.append(f"d_g {d.d_g!r} d_s {d.d_s!r} d_o {d.d_o!r} residual {result.residual!r}")
    notes.append(f"evaluations {result.evaluations!r} fitted {result.fitted!r} "
                 f"singular_values {result.singular_values!r}")
    return result

cli.write_output_csv, fit_owner.calibrate = noting_write_output_csv, noting_calibrate
code = cli.run_main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write("\\n".join(notes))
sys.exit(code)
"""

# the file each command writes that is compared
COMPARED = {"simulate": "simulation.csv", "calibrate": "calibration.csv"}
COLUMNS = OUTPUT_CSV_HEADER.split(",")


def jobs(inputs_dir: str) -> dict[str, list[str]]:
    """Job name -> CLI arguments; writes the two year series into ``inputs_dir``."""
    synthetic = os.path.join(inputs_dir, "synthetic_year.csv")
    seeded = os.path.join(inputs_dir, "seeded_year.csv")
    run_year_synthetic.write_series(synthetic)
    inputs.write_year_csv(seeded, 1)
    return {
        "chamber": ["simulate", "--chamber"],
        "cycles": ["simulate", "--cycles", "--horizon-hours", "480"],
        "year": ["simulate", "--env", synthetic, "--horizon-hours", "8760"],
        "year-seed1": ["simulate", "--env", seeded, "--horizon-hours", "8760"],
        "reference": ["simulate", "--chamber", "--config",
                      "configs/reference_diffusivities.ini"],
        "calibrate": ["calibrate", "--measurements", "data/thickness_measures.csv"],
    }


def run_job(tree: str, argv: list[str], out: str) -> tuple[bytes, str, np.ndarray | None] | None:
    """The compared output, the full-precision notes and the records (rows
    of the CSV columns; None for calibrate) of one job run in ``tree``, or
    None when the job fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    notes = out + ".notes"
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, notes, *argv, "--out", out],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  exit {proc.returncode} in {tree}: {proc.stderr.strip()}")
        return None
    records = None
    if os.path.exists(notes + ".records"):
        records = np.fromfile(notes + ".records", dtype="<f8").reshape(-1, len(COLUMNS))
    with open(os.path.join(out, COMPARED[argv[0]]), "rb") as fh, \
            open(notes, encoding="utf-8") as notes_fh:
        return fh.read(), notes_fh.read(), records


def first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    count = sum(a != b for a, b in zip(old_lines, new_lines))
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {i}: {a.decode()!r} -> {b.decode()!r} ({count} lines differ)"
    return (f"line {min(len(old_lines), len(new_lines)) + 1}: "
            f"{len(old_lines)} lines -> {len(new_lines)} lines")


def record_differences(old: tuple, new: tuple) -> list[str]:
    """Lines on how two simulate jobs' records differ: the run totals (the
    second line of the notes) and the largest relative difference of
    each CSV column."""
    old_counts, new_counts = old[1].splitlines()[1:2], new[1].splitlines()[1:2]
    lines = ["  run totals: " + (f"match ({old_counts[0]})" if old_counts == new_counts
                                 else f"DIFFER: {old_counts} -> {new_counts}")]
    a, b = old[2], new[2]
    if a.shape != b.shape:
        lines.append(f"  records: {len(a)} -> {len(b)} rows, not compared")
        return lines
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
    lines.append("  largest relative difference: " + ", ".join(
        f"{c} {r:.2g}" for c, r in zip(COLUMNS, rel.max(axis=0))))
    return lines


def note_differences(old: str, new: str) -> list[str]:
    """The full-precision notes of a calibrate job: each line that differs,
    and the number that match."""
    pairs = list(zip(old.splitlines(), new.splitlines()))
    lines = [f"  notes: {a!r} -> {b!r}" for a, b in pairs if a != b]
    return lines + [f"  notes: {len(pairs) - len(lines)} of {len(pairs)} lines identical"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    ref = parser.parse_args().ref
    with tempfile.TemporaryDirectory(prefix="patina-compare-") as tmp:
        base = os.path.join(tmp, "ref")
        os.mkdir(base)
        archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        differing = 0
        todo = jobs(tmp)
        for name, argv in todo.items():
            old = run_job(base, argv, os.path.join(tmp, "out-ref", name))
            new = run_job(ROOT, argv, os.path.join(tmp, "out-tree", name))
            if old is None or new is None:
                print(f"{name}: FAILED to run")
                differing += 1
            elif old[0] != new[0] or old[1] != new[1]:
                if old[0] != new[0]:
                    print(f"{name}: DIFFERS at {first_difference(old[0], new[0])}")
                else:
                    print(f"{name}: same CSV bytes, DIFFERS at full precision: "
                          f"{old[1]!r} -> {new[1]!r}")
                if old[2] is not None and new[2] is not None:
                    print("\n".join(record_differences(old, new)))
                else:
                    print("\n".join(note_differences(old[1], new[1])))
                differing += 1
            else:
                print(f"{name}: identical ({len(old[0].splitlines())} lines; "
                      + "; ".join(old[1].splitlines()) + ")")
    print(f"{differing} of {len(todo)} jobs differ from {ref}"
          if differing else f"all {len(todo)} jobs identical to {ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
