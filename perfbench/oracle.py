"""Correctness of one round's outputs.

A command fails on a nonzero exit, on a broken invariant (a failed
certification, a non-converged solve, a KKT residual above the
tolerance, a failed lemma check, BCD and PG disagreeing on the
objective at the same lambda), or on outputs that differ from the
references stored for the default seed.  References compare booleans,
integers and coverages exactly and other numbers within a tolerance,
because the program may legitimately change their last bits (an exact
eigenvalue in place of power iteration moves phi_max by ~1e-8, a new
solver moves solutions by up to ~3e-8).
"""

from __future__ import annotations

import math
from pathlib import Path

KKT_TOLERANCE = 1e-8  # mtgl's default solver tolerance, used by every workload
OBJECTIVE_RTOL = 1e-9  # BCD vs PG objective at the same lambda
FLOAT_RTOL = 1e-7
FLOAT_ATOL = 1e-12
# Fields with a larger absolute floor: solution coordinates are exact
# only to the solver's accuracy.
FIELD_ATOL = {"group_norms": 1e-7}
# Work counts that a different algorithm may change, and the KKT
# certificate, which is checked against the tolerance instead.
UNCOMPARED = frozenset({"iterations", "kkt_residual"})


def parse_value(text):
    if text == "true":
        return True
    if text == "false":
        return False
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_pairs(items):
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if sep:
            out[key] = parse_value(value.strip())
    return out


def _csv_records(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(parse_value, line.split(",")))) for line in lines[1:]]


def _group_norms(path):
    return [
        math.sqrt(sum(float(x) ** 2 for x in line.split(",")))
        for line in Path(path).read_text().splitlines()
    ]


def read_outputs(command, stdout):
    """Parse what ``command`` printed and wrote into comparable values."""
    sub = command.subcommand
    if sub == "experiment":
        out = Path(command.option("--out"))
        return {
            "summary": parse_pairs((out / "summary.txt").read_text().splitlines()),
            "replicates": _csv_records(out / "replicates.csv"),
        }
    if sub == "solve":
        out = Path(command.option("--out"))
        return {
            "report": parse_pairs((out / "report.txt").read_text().splitlines()),
            "group_norms": _group_norms(out / "beta_hat.csv"),
        }
    if sub == "check":
        return {"report": parse_pairs(stdout.splitlines())}
    if sub == "verify-lemmas":
        return {"checks": [parse_pairs(line.split()) for line in stdout.splitlines()]}
    return {}


def _kkt_ok(value):
    return isinstance(value, (int, float)) and value <= KKT_TOLERANCE


def invariant_failures(command, outputs):
    sub = command.subcommand
    fails = []
    if sub == "experiment":
        summary = outputs["summary"]
        if summary.get("required_pass") is not True:
            fails.append("required_pass is not true")
        if summary.get("n_converged") != summary.get("replicates"):
            fails.append(
                f"n_converged={summary.get('n_converged')} < "
                f"replicates={summary.get('replicates')}"
            )
        for row in outputs["replicates"]:
            if row.get("converged") is not True or not _kkt_ok(row.get("kkt_residual")):
                fails.append(f"replicate {row.get('replicate')} not converged within tol")
    elif sub == "solve":
        report = outputs["report"]
        if report.get("converged") is not True:
            fails.append("converged is not true")
        if not _kkt_ok(report.get("kkt_residual")):
            fails.append(f"kkt_residual={report.get('kkt_residual')} > {KKT_TOLERANCE}")
    elif sub == "check":
        for key in ("max_coherence", "phi_max", "c_prime", "kappa_upper_estimate"):
            value = outputs["report"].get(key)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                fails.append(f"{key} missing or not finite")
    elif sub == "verify-lemmas":
        checks = outputs["checks"]
        if not checks:
            fails.append("no lemma checks printed")
        for line in checks:
            if line.get("passed") is not True:
                fails.append(f"lemma check failed: {line}")
    return fails


def agreement_failures(solves):
    """Solves of one dataset at the same lambda must reach the same
    objective; ``solves`` maps label -> outputs.  Failures are charged to
    the later solve."""
    fails = {}
    first = {}
    for label, outputs in solves.items():
        report = outputs["report"]
        lam, objective = report["lambda"], report["objective"]
        if lam not in first:
            first[lam] = (label, objective)
            continue
        ref_label, ref_objective = first[lam]
        if abs(objective - ref_objective) > OBJECTIVE_RTOL * max(1.0, abs(ref_objective)):
            fails[label] = [
                f"objective {objective!r} disagrees with {ref_label} "
                f"({ref_objective!r}) at lambda={lam!r}"
            ]
    return fails


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(ref, got, path="", field=""):
    """Differences between reference and measured outputs, as messages;
    ``field`` is the key the values are stored under."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref.keys() ^ got.keys())} differ"]
        diffs = []
        for key in ref:
            if key not in UNCOMPARED:
                diffs += compare(ref[key], got[key], f"{path}/{key}", key)
        return diffs
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        diffs = []
        for i, (r, g) in enumerate(zip(ref, got)):
            diffs += compare(r, g, f"{path}[{i}]", field)
        return diffs
    within_tolerance = (
        _is_number(ref)
        and _is_number(got)
        and not (isinstance(ref, int) and isinstance(got, int))
        and "coverage" not in field
    )
    if within_tolerance:
        same = math.isclose(
            got, ref, rel_tol=FLOAT_RTOL, abs_tol=FIELD_ATOL.get(field, FLOAT_ATOL)
        )
    else:
        same = ref == got and isinstance(ref, bool) == isinstance(got, bool)
    return [] if same else [f"{path}: {got!r} != reference {ref!r}"]


def judge_round(commands, exit_codes, stdouts, references):
    """Failure messages per command of one round (empty list = passed).

    ``references`` maps label -> stored outputs, or is None when the seed
    has no references and only the invariants apply.
    """
    failures = {}
    parsed = {}
    for command, code, stdout in zip(commands, exit_codes, stdouts):
        fails = failures.setdefault(command.label, [])
        if code != 0:
            fails.append(f"exit code {code}")
            continue
        try:
            outputs = read_outputs(command, stdout)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            fails.append(f"unreadable output: {exc!r}")
            continue
        parsed[command.label] = outputs
        fails += invariant_failures(command, outputs)
        if references is not None:
            fails += compare(references[command.label], outputs, command.label)[:5]
    solves = {
        c.label: parsed[c.label]
        for c in commands
        if c.subcommand == "solve" and c.label in parsed
    }
    for label, fails in agreement_failures(solves).items():
        failures[label] += fails
    return failures, parsed
