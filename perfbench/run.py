"""Benchmark of the mtgl command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is taken from ./src).  Each
timed command is a fresh ``python -m mtgl.cli`` process with BLAS pinned
to one thread.  A round runs the workload's timed commands once; rounds
repeat until ``--seconds`` have passed, and every output is checked
(oracle.py).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics (medians over rounds); with
``--trace 1`` untraced and traced rounds alternate and it holds the
per-layer metrics of the traced rounds (layers.py, tracer.py).  The
recorded environment is printed and written, with every command's
timings and failures, to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from oracle import judge_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run ends well within 180 s

# Children run the Monte Carlo replicates serially and BLAS on one
# thread, so a run measures the program and not the scheduler.
MTGL_THREADS = "1"

ENV_PROBE = """
import json, os, sys
import numpy
import mtgl.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": blas.get("name", "") + " " + blas.get("version", ""),
    "mtgl_file": mtgl.__file__,
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "MTGL_THREADS": os.environ.get("MTGL_THREADS"),
}))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    stdout: str


class Runner:
    """Starts children one at a time, timing each with os.wait4."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.logs = 0

    def run(self, argv):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"out of time before running {argv}")
        self.logs += 1
        log = WORK / "logs" / f"{self.logs:04d}"
        with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
            started = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(remaining, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            code=child.returncode,
            stdout=Path(f"{log}.out").read_text(),
        )


def child_env():
    """Environment of every child: the checkout's src first, BLAS and the
    replicate runner pinned to one thread."""
    env = dict(os.environ)
    # Cache bytecode as an installed package would; only the first child compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        MTGL_THREADS=MTGL_THREADS,
        PYTHONHASHSEED="0",
    )
    return env


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtgl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(runner):
    """Record the environment the children see; refuse an unpinned one."""
    probe = runner.run(["-c", ENV_PROBE])
    if probe.code != 0:
        raise BenchmarkError("cannot import numpy and mtgl.cli from ./src")
    seen = json.loads(probe.stdout.strip().splitlines()[-1])
    if seen["OPENBLAS_NUM_THREADS"] != "1" or seen["MTGL_THREADS"] != MTGL_THREADS:
        raise BenchmarkError(f"children are not pinned: {seen}")
    if not Path(seen["mtgl_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"children import mtgl from {seen['mtgl_file']}")
    return {
        **seen,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def metric_units(trace):
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_references(workload, seed):
    path = REFERENCES / f"{workload.name}.json"
    if seed != REFERENCE_SEED or not path.exists():
        return None
    return json.loads(path.read_text())


def mtgl_argv(command, spans=None):
    if spans is None:
        return ["-m", "mtgl.cli", *command.args]
    return [str(HERE / "tracer.py"), str(spans), *command.args]


class Measurement:
    """Rounds of one workload and their correctness."""

    def __init__(self, runner, workload, seed, work, references):
        self.runner = runner
        self.workload = workload
        self.references = references
        self.setup, self.timed = workload.build(work, seed)
        self.attempted = 0
        self.failures = []
        self.last_outputs = None

    def set_up(self, spans=None):
        argv = (
            ["-c", "import mtgl.cli"] if self.setup is None
            else mtgl_argv(self.setup, spans)
        )
        outcome = self.runner.run(argv)
        if outcome.code != 0:
            raise BenchmarkError(f"set-up {argv} exited with {outcome.code}")
        return outcome.wall_s

    def round(self, traced=False):
        """Run the timed commands once; returns (outcomes, traced processes)."""
        outcomes, processes = [], []
        for command in self.timed:
            spans = WORK / "spans" / f"{command.label}.json" if traced else None
            outcomes.append(self.runner.run(mtgl_argv(command, spans)))
            if traced and spans.exists():
                processes.append(json.loads(spans.read_text()))
        fails, self.last_outputs = judge_round(
            self.timed,
            [o.code for o in outcomes],
            [o.stdout for o in outcomes],
            self.references,
        )
        self.attempted += len(self.timed)
        self.failures += [
            {"label": label, "messages": messages}
            for label, messages in fails.items()
            if messages
        ]
        return outcomes, processes


def round_totals(outcomes):
    return sum(o.wall_s for o in outcomes), sum(o.cpu_s for o in outcomes)


def end_to_end(measure, seconds):
    setups = [measure.set_up() for _ in range(SETUP_REPEATS)]
    rounds = []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < seconds:
        rounds.append(measure.round()[0])
    walls, cpus = zip(*map(round_totals, rounds))
    run_s = statistics.median(walls)
    metrics = {
        "run_s": run_s,
        "ops_per_s": measure.workload.units / run_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(o.maxrss_kb for r in rounds for o in r) * 1024 / 1e6,
        "setup_s": statistics.median(setups),
    }
    detail = {"setup_s": setups, "round_wall_s": walls, "round_cpu_s": cpus}
    return metrics, detail


def per_layer(measure, seconds):
    setup_processes = []
    if measure.setup is not None:
        spans = WORK / "spans" / "setup.json"
        measure.set_up(spans)
        setup_processes.append(json.loads(spans.read_text()))
    untraced, traced, layer_rounds = [], [], []
    started = time.monotonic()
    while not traced or time.monotonic() - started < seconds:
        untraced.append(round_totals(measure.round()[0])[0])
        outcomes, processes = measure.round(traced=True)
        traced.append(round_totals(outcomes)[0])
        layer_rounds.append(layer_metrics(setup_processes + processes))
    metrics = {
        name: statistics.median(r[name] for r in layer_rounds) for name in layer_rounds[0]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-references", action="store_true",
        help=f"store this run's outputs as the references (seed {REFERENCE_SEED} only)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "mtgl" / "cli.py").is_file():
        raise BenchmarkError(f"no program at {ROOT / 'src' / 'mtgl'}; run from a checkout")
    if args.write_references and args.seed != REFERENCE_SEED:
        raise BenchmarkError(f"references are stored for seed {REFERENCE_SEED} only")
    units = metric_units(args.trace)
    env = child_env()
    work = WORK / workload.name
    for sub in (work, WORK / "logs", WORK / "spans"):
        shutil.rmtree(sub, ignore_errors=True)
        sub.mkdir(parents=True)
    runner = Runner(env, time.monotonic() + DEADLINE_S)
    recorded = environment(runner)
    references = None if args.write_references else load_references(workload, args.seed)
    measure = Measurement(runner, workload, args.seed, work, references)

    if args.trace:
        metrics, detail = per_layer(measure, args.seconds)
    else:
        metrics, detail = end_to_end(measure, args.seconds)

    if args.write_references:
        REFERENCES.mkdir(exist_ok=True)
        path = REFERENCES / f"{workload.name}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in measure.last_outputs.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")

    failed = len(measure.failures)
    result = {
        "correct": failed == 0,
        "attempted": measure.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": recorded,
        "references": measure.references is not None, "failures": measure.failures,
        "detail": detail, "result": result,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{measure.attempted} commands, references "
        + ("compared" if record["references"] else "not compared (invariants only)")
    )
    print("environment " + json.dumps(recorded, sort_keys=True))
    for failure in measure.failures[:10]:
        print(f"FAILED {failure['label']}: {'; '.join(failure['messages'][:3])}")
    print(f"failed_frac = {failed / measure.attempted:.4g} ({failed}/{measure.attempted} commands)")
    for name, unit in units.items():
        per = f" ({workload.unit} per second)" if name == "ops_per_s" else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{per}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
