"""Digests of every output of the benchmark's commands, to compare two
trees of the program byte for byte.

    python tests/identity.py [--src DIR]
    diff <(python tests/identity.py --src PARENT/src) <(python tests/identity.py)

Each workload of ``perfbench/workloads.py`` is built at seeds 0 and 1 in
a temporary work directory, and its set-up and timed commands run there
as fresh ``python -m mtgl.cli`` processes, with OPENBLAS_NUM_THREADS=1
and PYTHONPATH=DIR (default: this repository's ``src``).  Then ``select``
runs on the ``bcd-0.05`` fit's ``beta_hat.csv``, once with ``--tau`` and
once with a threshold computed from the tuning flags.  Last, ``experiment``
runs on ``tests/test_cli.py``'s oracle, selection and lasso-comparison
configs (that module is imported for its strings only).  The script
prints ``sha256  path`` for every file the commands leave in the work
directory but ``run_manifest.txt`` (which records times), and for each
command's stdout, with the work directory written as ``<work>``, followed
by the command's exit code.  Paths are relative to the work directory.
A command that exits other than 0 or 2 (the comparison's verdict that
the baseline won) stops the script with its stderr.

pytest does not collect this file, and ``mtgl`` never imports it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))  # test_cli imports mtgl

from test_cli import COMPARISON_CONFIG, ORACLE_CONFIG, SELECTION_CONFIG  # noqa: E402
from workloads import AR1_LAMBDA, WORKLOADS  # noqa: E402

SEEDS = (0, 1)
SKIPPED = "run_manifest.txt"
# Exit codes that do not stop the script: success, and a verdict against
# the group estimator (the lasso comparison's exit 2).
EXPECTED_EXITS = (0, 2)
EXPERIMENTS = (("oracle", ORACLE_CONFIG), ("selection", SELECTION_CONFIG),
               ("lasso-comparison", COMPARISON_CONFIG))


def _select_commands(fit):
    """``select`` on the bcd-0.05 fit in ``fit``: an explicit tau, and the
    gaussian threshold of the fit's (sigma, n, T, M, A) at alpha 8."""
    beta = str(fit / "bcd-0.05" / "beta_hat.csv")
    computed = ("--sigma", "1", "--alpha", "8", "--n", "150", "--T", "8",
                "--M", "500", "--A", "9")
    return [
        ("select-tau", ("select", "--beta", beta, "--tau", repr(0.5 * AR1_LAMBDA),
                        "--out", str(fit / "select-tau"))),
        ("select-computed", ("select", "--beta", beta, *computed,
                             "--out", str(fit / "select-computed"))),
    ]


def _experiment_commands(work):
    """``experiment`` on each of ``EXPERIMENTS``, its config written to
    ``work``."""
    commands = []
    for name, text in EXPERIMENTS:
        config = work / f"{name}.cfg"
        config.write_text(text)
        commands.append((name, ("experiment", "--config", str(config),
                                "--out", str(work / name))))
    return commands


def _run(args, env, work):
    """(exit code, stdout) of ``mtgl args``, with ``work`` written as <work>."""
    done = subprocess.run([sys.executable, "-m", "mtgl.cli", *args], cwd=work,
                          env=env, capture_output=True, text=True)
    if done.returncode not in EXPECTED_EXITS:
        raise SystemExit(f"mtgl {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.returncode, done.stdout.replace(str(work), "<work>")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(src):
    """(sha256, path) of every output and every stdout, in a fixed order."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(src).resolve()))
    lines = []
    with tempfile.TemporaryDirectory(prefix="mtgl-identity-") as tmp:
        work = Path(tmp)
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                run = work / f"{name}-{seed}"
                run.mkdir()
                setup, timed = workload.build(run, seed)
                commands = [(command.label, command.args)
                            for command in ([setup] if setup else []) + timed]
                if name == "fit-ar1-file":
                    commands += _select_commands(run)
                for label, args in commands:
                    code, stdout = _run(args, env, work)
                    lines.append((_sha256(stdout.encode()),
                                  f"{run.name}/{label}.stdout exit {code}"))
        for label, args in _experiment_commands(work):
            code, stdout = _run(args, env, work)
            lines.append((_sha256(stdout.encode()), f"{label}.stdout exit {code}"))
        for path in sorted(work.rglob("*")):
            if path.is_file() and path.name != SKIPPED:
                lines.append((_sha256(path.read_bytes()), str(path.relative_to(work))))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the mtgl package to run")
    args = parser.parse_args()
    for digest, path in digests(args.src):
        print(f"{digest}  {path}")


if __name__ == "__main__":
    main()
