"""The benchmark's workloads.

A workload is a fixed input size whose data depend only on the seed.
``build(work, seed)`` writes the config files a run needs into ``work``
and returns the set-up command (run several times, untimed; ``None``
means set-up is interpreter start plus ``import mtgl.cli``) and the
timed commands of one round.  Each command is one fresh
``python -m mtgl.cli`` process, as a user would run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Command:
    """One ``mtgl`` invocation: ``label`` names it in references and
    failure reports, ``args`` follow ``mtgl`` on the command line."""

    label: str
    args: tuple

    @property
    def subcommand(self):
        return self.args[0]

    def option(self, name):
        return self.args[self.args.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    units: int  # work units in one round
    unit: str
    build: Callable[[Path, int], tuple]


def _write(path, text):
    path.write_text(text)
    return str(path)


# Paper's certified path: orthogonal design, coherence-lemma kappa, phi_max
# measured per replicate.  Gram diagnostics and generation dominate, and
# both run twice per replicate because of the coherence prepass.
CERTIFY_ORTH = """kind=oracle
design_kind=orthogonal
n=400
M=200
T=8
signal_s=4
replicates=8
seed={seed}
A=9
kappa_source=coherence-lemma
alpha=8
p_values=1,2,4
"""

# The selection acceptance config: many tiny replicates, so per-replicate
# fixed cost (generate, a one-sweep solve, scoring) dominates; no
# diagnostics run.
SELECT_SMALL = """kind=selection
design_kind=orthogonal
n=64
M=32
T=9
signal_s=4
replicates=300
seed={seed}
A=9
kappa=1
kappa2s=1
phi_max=1
alpha=8
margin=2.5
p_values=1,2,4
"""

# Correlated design with M > n, written to CSV by `mtgl gen` at set-up.
GEN_AR1 = """design_kind=ar1
rho=0.6
n=150
M=500
T=8
signal_s=20
signal_amplitude=gaussian
seed={seed}
"""

# Gaussian-rule lambda for (sigma, n, T, M, A) = (1, 150, 8, 500, 9), as
# `mtgl bounds --sigma 1 --n 150 --T 8 --M 500 --A 9` prints it.  Kept
# literal so the inputs stay fixed when the program changes.
AR1_LAMBDA = 0.26315243921632347


def _experiment(template):
    def build(work, seed):
        config = _write(work / "experiment.cfg", template.format(seed=seed))
        command = Command(
            "experiment", ("experiment", "--config", config, "--out", str(work / "exp"))
        )
        return None, [command]

    return build


def _gen_ar1(work, seed):
    config = _write(work / "gen.cfg", GEN_AR1.format(seed=seed))
    data = work / "data"
    return Command("gen", ("gen", "--config", config, "--out", str(data))), str(
        data / "manifest.txt"
    )


def _build_fit(work, seed):
    gen, manifest = _gen_ar1(work, seed)
    timed = []
    for algorithm, tag, factor in (
        ("block-coordinate", "bcd", 0.3),
        ("block-coordinate", "bcd", 0.1),
        ("block-coordinate", "bcd", 0.05),
        ("proximal-gradient", "pg", 0.3),
    ):
        label = f"{tag}-{factor:g}"
        timed.append(Command(label, (
            "solve", "--data", manifest, "--lambda", repr(factor * AR1_LAMBDA),
            "--algorithm", algorithm, "--max-iter", "5000",
            "--out", str(work / label),
        )))
    return gen, timed


def _build_preflight(work, seed):
    gen, manifest = _gen_ar1(work, seed)
    return gen, [
        Command("check", (
            "check", "--data", manifest, "--s", "4", "--alpha", "8",
            "--re-samples", "10", "--seed", str(seed),
        )),
        Command("verify-lemmas", ("verify-lemmas", "--seed", str(seed))),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-certify-orth", 8, "replicates", _experiment(CERTIFY_ORTH)),
        Workload("mc-select-small", 300, "replicates", _experiment(SELECT_SMALL)),
        Workload("fit-ar1-file", 4, "fits", _build_fit),
        Workload("preflight-file", 2, "commands", _build_preflight),
    )
}
