"""Run one mtgl command in-process with every call into a layer's public
functions recorded as a span, and write the spans out at exit.

    python perfbench/tracer.py SPANS.json <mtgl arguments>

The wrappers replace the module attributes that the CLI and the Monte
Carlo runner call through (``mtgl.cli.read_dataset``,
``mtgl.experiments.gram_diagnostics``, ...), so the program itself is
not edited.  Spans are kept in memory and written once, when the
command returns.  The outermost span is ``cli`` around
``mtgl.cli.main``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# (module, attribute) -> layer.  Only calls through these attributes are
# spans; what a wrapped function calls inside its own module is part of
# its span.
LAYERS = {
    ("mtgl.cli", "generate_dataset"): "synth",
    ("mtgl.experiments", "generate_dataset"): "synth",
    ("mtgl.experiments", "generate_beta_for_selection"): "synth",
    ("mtgl.cli", "gram_diagnostics"): "assumptions.diag",
    ("mtgl.experiments", "gram_diagnostics"): "assumptions.diag",
    # The proximal-gradient solver imports this at call time.
    ("mtgl.assumptions", "largest_gram_eigenvalue"): "assumptions.phi_max",
    ("mtgl.cli", "re_upper_estimate"): "assumptions.re_probe",
    ("mtgl.cli", "solve_group_lasso"): "solver",
    ("mtgl.experiments", "solve_group_lasso"): "solver",
    ("mtgl.experiments", "select_support"): "selection",
    ("mtgl.experiments", "score_selection"): "selection",
    ("mtgl.experiments", "average_sign_estimate"): "selection",
    ("mtgl.cli", "run_oracle_experiment"): "experiments",
    ("mtgl.cli", "run_selection_experiment"): "experiments",
    ("mtgl.cli", "read_dataset"): "dataio.read",
    ("mtgl.cli", "write_dataset"): "dataio.write",
    ("mtgl.cli", "write_coefficients"): "dataio.write",
    ("mtgl.cli", "chi_square_tail_empirical"): "probability",
    ("mtgl.cli", "nemirovski_check"): "probability",
    ("mtgl.cli", "noise_correlation_violation_rate"): "probability",
}


def _manifest_bytes(path):
    base = os.path.dirname(os.path.abspath(path))
    total = os.path.getsize(path)
    with open(path) as handle:
        for line in handle:
            key, _, value = line.strip().partition("=")
            if key.startswith(("design_", "response_")):
                total += os.path.getsize(os.path.join(base, value))
    return total


def _solve_attrs(args, result):
    import numpy as np

    data, config = args
    return {
        "algorithm": config.algorithm,
        "iterations": result.iterations,
        "active": int(np.count_nonzero(np.linalg.norm(result.beta_hat.values, axis=1))),
        "M": data.M,
        "kkt": result.kkt_residual,
        "converged": bool(result.converged),
    }


# Counts recorded at the boundary, from a call's arguments and result.
ATTRS = {
    "gram_diagnostics": lambda args, result: {
        "gram_bytes": 8 * args[0].T * args[0].M ** 2
    },
    "solve_group_lasso": _solve_attrs,
    "run_oracle_experiment": lambda args, result: {"replicates": args[0].replicates},
    "run_selection_experiment": lambda args, result: {"replicates": args[0].replicates},
    "read_dataset": lambda args, result: {"bytes": _manifest_bytes(args[0])},
}


class Recorder:
    """Spans of one process: id, layer, fn, start, end, parent, thread.

    A span's parent is the innermost open span.  The children run the
    Monte Carlo replicates serially (MTGL_THREADS=1), so one stack of
    open spans serves the whole process.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def open(self, layer, fn):
        span = {
            "id": len(self.spans),
            "layer": layer,
            "fn": fn,
            "parent": self._open[-1] if self._open else None,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, layer, fn):
        describe = ATTRS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span["attrs"] = describe(args, result)
            return result

        return traced


def install(recorder):
    for (module_name, attribute), layer in LAYERS.items():
        module = sys.modules[module_name]
        setattr(module, attribute, recorder.wrap(layer, getattr(module, attribute)))


def main(spans_path, argv):
    started = time.perf_counter()
    import mtgl.cli

    import_s = time.perf_counter() - started
    recorder = Recorder()
    install(recorder)
    root = recorder.open("cli", argv[0] if argv else "")
    try:
        code = mtgl.cli.main(argv)
    finally:
        recorder.close(root)
        with open(spans_path, "w") as handle:
            json.dump(
                {"import_s": import_s, "mtgl_file": mtgl.__file__, "spans": recorder.spans},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
