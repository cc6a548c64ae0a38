"""Tests of the benchmark itself: failure accounting, the reference
tolerances and span arithmetic.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

No mtgl process is started: a fake runner writes the files a command
would write, so these tests only exercise the benchmark's own code.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import layer_metrics, self_times  # noqa: E402
from oracle import compare  # noqa: E402
from run import Measurement, Outcome, metric_units  # noqa: E402
from workloads import Command, Workload  # noqa: E402

SUMMARY = """kind=oracle
replicates=2
n_converged=2
bound_prediction_coverage=1
bound_prediction_passed=true
required_pass=true
"""
REPLICATES = """replicate,converged,iterations,kkt_residual,err_21,phi_max
0,true,3,1.0000000000000001e-15,0.51234567890123456,1.0000000012
1,true,4,2e-16,0.41234567890123456,1.0000000034
"""
LEMMAS = (
    "check=chi-square-tail T=4 x=2 empirical_frequency=0.1994 passed=true\n"
    "check=sup-norm-moment M=3 distribution=gaussian empirical_frequency=1.5 passed=true\n"
)
REPORT = (
    "algorithm={}\nlambda=0.25\niterations=9\nkkt_residual=1e-9\nobjective={}\nconverged=true\n"
)


class FakeRunner:
    """Stands in for run.Runner: writes what each mtgl command writes."""

    def __init__(self):
        self.files = {}  # relative path -> text, overrides the defaults
        self.stdout = {"verify-lemmas": LEMMAS}
        self.codes = {}
        self.objectives = {"bcd": "1.2345678901234567", "pg": "1.2345678901234569"}

    def run(self, argv):
        args = argv[2:]
        sub = args[0]
        if sub == "experiment":
            out = Path(args[args.index("--out") + 1])
            out.mkdir(exist_ok=True)
            (out / "summary.txt").write_text(self.files.get("summary.txt", SUMMARY))
            (out / "replicates.csv").write_text(self.files.get("replicates.csv", REPLICATES))
        elif sub == "solve":
            out = Path(args[args.index("--out") + 1])
            out.mkdir(exist_ok=True)
            algorithm = args[args.index("--algorithm") + 1]
            tag = "bcd" if algorithm == "block-coordinate" else "pg"
            (out / "report.txt").write_text(REPORT.format(algorithm, self.objectives[tag]))
            (out / "beta_hat.csv").write_text("0,0\n0.5,-0.25\n")
        return Outcome(1.0, 1.0, 1000, self.codes.get(sub, 0), self.stdout.get(sub, ""))


def _build(work, seed):
    def solve(label, algorithm):
        return Command(label, (
            "solve", "--data", "unused", "--lambda", "0.25",
            "--algorithm", algorithm, "--out", str(work / label),
        ))

    return None, [
        Command("experiment", ("experiment", "--config", "unused", "--out", str(work / "exp"))),
        Command("verify-lemmas", ("verify-lemmas", "--seed", str(seed))),
        solve("bcd-0.25", "block-coordinate"),
        solve("pg-0.25", "proximal-gradient"),
    ]


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = Path(self.tmp.name)
        self.runner = FakeRunner()
        workload = Workload("fake", 2, "replicates", _build)
        self.measure = Measurement(self.runner, workload, 1, self.work, None)
        self.measure.round()
        self.measure.references = copy.deepcopy(self.measure.last_outputs)

    def tearDown(self):
        self.tmp.cleanup()

    def failed_frac_after_round(self):
        before = len(self.measure.failures), self.measure.attempted
        self.measure.round()
        failed = len(self.measure.failures) - before[0]
        return failed / (self.measure.attempted - before[1])

    def test_clean_round_passes(self):
        self.assertEqual(self.failed_frac_after_round(), 0.0)
        self.assertEqual(self.measure.failures, [])

    def test_float_within_tolerance_passes(self):
        # phi_max moving in its 9th digit is a legitimate change.
        self.runner.files["replicates.csv"] = REPLICATES.replace("1.0000000012", "1.0000000019")
        self.assertEqual(self.failed_frac_after_round(), 0.0)

    def test_perturbed_replicates_csv_counts(self):
        self.runner.files["replicates.csv"] = REPLICATES.replace(
            "0.51234567890123456", "0.51244567890123456"
        )
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)
        self.assertEqual(self.measure.failures[-1]["label"], "experiment")

    def test_changed_coverage_counts(self):
        self.runner.files["summary.txt"] = SUMMARY.replace(
            "coverage=1", "coverage=0.99999999999999989"
        )
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)

    def test_flipped_passed_counts(self):
        self.runner.stdout["verify-lemmas"] = LEMMAS.replace(
            "gaussian empirical_frequency=1.5 passed=true",
            "gaussian empirical_frequency=1.5 passed=false",
        )
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)
        self.assertEqual(self.measure.failures[-1]["label"], "verify-lemmas")

    def test_nonzero_exit_counts(self):
        self.runner.codes["experiment"] = 3
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)
        self.assertIn("exit code 3", self.measure.failures[-1]["messages"])

    def test_bcd_pg_disagreement_counts_without_references(self):
        self.measure.references = None
        self.runner.objectives["pg"] = "1.2345679"
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)
        self.assertEqual(self.measure.failures[-1]["label"], "pg-0.25")

    def test_non_converged_replicate_counts_without_references(self):
        self.measure.references = None
        self.runner.files["replicates.csv"] = REPLICATES.replace("1,true,4", "1,false,4")
        self.assertEqual(self.failed_frac_after_round(), 1 / 4)


class ReferenceTolerance(unittest.TestCase):
    def test_solution_moving_within_solver_accuracy_passes(self):
        # BCD and PG group norms of the same problem, and a zero group
        # that another solver leaves at 5e-8.
        ref = {"group_norms": [3.4183234139337113, 0.0], "phi_max": 11.558933163127667}
        got = {"group_norms": [3.418323321748209, 5e-8], "phi_max": 11.558933200000000}
        self.assertEqual(compare(ref, got), [])

    def test_small_fields_are_checked_relatively(self):
        self.assertEqual(len(compare({"standard_error": 6.63e-5}, {"standard_error": 6.64e-5})), 1)
        self.assertEqual(len(compare({"coherence_limit": 4.46e-3}, {"coherence_limit": 4.47e-3})), 1)
        self.assertEqual(len(compare({"deviation": 1.8e-15}, {"deviation": 1e-9})), 1)
        self.assertEqual(compare({"deviation": 1.8e-15}, {"deviation": 4e-15}), [])


def _span(sid, parent, start, end, layer="x", fn="f", attrs=None):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "layer": layer, "fn": fn, "attrs": attrs or {}, "thread": 0}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # root [0,10] has children A [1,4] and B [5,8]; A has child C [2,3].
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 0, 5.0, 8.0),
            _span(3, 1, 2.0, 3.0),
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_per_replicate_counts_only_calls_inside_the_runner(self):
        spans = [
            _span(0, None, 0.0, 10.0, "cli", "experiment"),
            _span(1, 0, 0.5, 9.5, "experiments", "run_oracle_experiment", {"replicates": 2}),
            _span(2, 1, 1.0, 2.0, "synth", "generate_dataset"),
            _span(3, 1, 2.0, 3.0, "assumptions.diag", "gram_diagnostics", {"gram_bytes": 4e6}),
            _span(4, 1, 3.0, 4.0, "synth", "generate_dataset"),
            _span(5, 1, 4.0, 5.0, "synth", "generate_dataset"),
            _span(6, 0, 9.5, 9.8, "synth", "generate_dataset"),
        ]
        metrics = layer_metrics([{"import_s": 0.25, "spans": spans}])
        self.assertEqual(metrics["synth.calls_per_replicate"], 1.5)
        self.assertEqual(metrics["assumptions.diag_calls_per_replicate"], 0.5)
        self.assertEqual(metrics["assumptions.gram_mb_computed"], 4.0)
        self.assertAlmostEqual(metrics["experiments.self_s"], 5.0)
        self.assertAlmostEqual(metrics["experiments.busy_over_wall"], 4.0 / 9.0)
        self.assertAlmostEqual(metrics["cli.self_s"], 0.5 + 0.2)
        self.assertEqual(metrics["cli.import_s"], 0.25)


class Contract(unittest.TestCase):
    def test_layer_metrics_are_the_per_layer_metrics(self):
        computed = set(layer_metrics([])) | {"trace.overhead_frac"}
        self.assertEqual(computed, set(metric_units(trace=1)))


if __name__ == "__main__":
    unittest.main()
