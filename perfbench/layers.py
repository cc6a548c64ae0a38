"""Per-layer metrics from the spans of a traced round.

A span's self time is its duration minus the durations of its child
spans; the traced processes are serial, so children never overlap.
Busy time of a layer is the summed duration of its spans (inclusive of nested
layers, e.g. the solver's busy time includes phi_max inside PG).
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def self_times(spans):
    """Self time of each span, in the order given (ids index ``spans``)."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _under(span, layer, by_id):
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["layer"] == layer:
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_metrics(processes):
    """Per-layer metrics of one traced round.

    ``processes`` holds what each traced process wrote (see tracer.py):
    ``import_s`` and its ``spans``.  Per-replicate counts only count calls
    made inside an experiment runner.
    """
    busy = defaultdict(float)
    self_s = defaultdict(float)
    replicates = 0
    runner_calls = defaultdict(int)
    runner_child_busy = 0.0
    gram_bytes = read_bytes = 0
    iterations = {"block-coordinate": 0, "proximal-gradient": 0}
    active_fracs = []
    kkt_max = 0.0
    nonconverged = 0
    for process in processes:
        spans = process["spans"]
        by_id = {span["id"]: span for span in spans}
        for span, own in zip(spans, self_times(spans)):
            layer, attrs = span["layer"], span["attrs"]
            busy[layer] += span["end"] - span["start"]
            self_s[layer] += own
            if span["parent"] is not None and by_id[span["parent"]]["layer"] == "experiments":
                runner_child_busy += span["end"] - span["start"]
            if _under(span, "experiments", by_id):
                runner_calls[(layer, span["fn"])] += 1
            if layer == "experiments":
                replicates += attrs.get("replicates", 0)
            elif layer == "assumptions.diag":
                gram_bytes += attrs.get("gram_bytes", 0)
            elif layer == "dataio.read":
                read_bytes += attrs.get("bytes", 0)
            elif layer == "solver" and attrs:
                iterations[attrs["algorithm"]] += attrs["iterations"]
                active_fracs.append(attrs["active"] / attrs["M"])
                kkt_max = max(kkt_max, attrs["kkt"])
                nonconverged += not attrs["converged"]

    def per_replicate(layer, fn):
        return runner_calls[(layer, fn)] / replicates if replicates else 0.0

    total_iterations = sum(iterations.values())
    return {
        "synth.busy_s": busy["synth"],
        "synth.calls_per_replicate": per_replicate("synth", "generate_dataset"),
        "assumptions.diag_busy_s": busy["assumptions.diag"],
        "assumptions.diag_calls_per_replicate": per_replicate(
            "assumptions.diag", "gram_diagnostics"
        ),
        "assumptions.gram_mb_computed": gram_bytes / 1e6,
        "assumptions.phi_max_busy_s": busy["assumptions.phi_max"],
        "assumptions.re_probe_busy_s": busy["assumptions.re_probe"],
        "solver.busy_s": busy["solver"],
        "solver.bcd_iterations": iterations["block-coordinate"],
        "solver.pg_iterations": iterations["proximal-gradient"],
        "solver.ms_per_iteration": (
            1000.0 * self_s["solver"] / total_iterations if total_iterations else 0.0
        ),
        "solver.active_frac": (
            sum(active_fracs) / len(active_fracs) if active_fracs else 0.0
        ),
        "solver.kkt_max": kkt_max,
        "solver.nonconverged": nonconverged,
        "selection.busy_s": busy["selection"],
        "experiments.self_s": self_s["experiments"],
        "experiments.busy_over_wall": (
            runner_child_busy / busy["experiments"] if busy["experiments"] else 0.0
        ),
        "dataio.read_busy_s": busy["dataio.read"],
        "dataio.read_mb_per_s": (
            read_bytes / 1e6 / busy["dataio.read"] if busy["dataio.read"] else 0.0
        ),
        "dataio.write_busy_s": busy["dataio.write"],
        "probability.busy_s": busy["probability"],
        "cli.import_s": (
            statistics.median(p["import_s"] for p in processes) if processes else 0.0
        ),
        "cli.self_s": self_s["cli"],
    }
