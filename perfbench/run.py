"""End-to-end benchmark of the FLBooster reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload flat-1024 --seed 1 --seconds 20 --trace 0

One caller runs units of work (aggregation rounds or training epochs)
back to back in this process, closed loop, for ``--seconds``.  Every
unit's output is checked.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the workload's properties.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced units with units in which every
layer's entry points are wrapped in spans, and reports the per-layer
metrics of the traced units plus the tracing overhead (traced over
untraced median unit time).

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit, reported by every untraced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "values_per_s": "1/s",
    "wire_mb_per_round": "MB",
    "peak_rss_mb": "MB",
    "round_ok_ratio": "ratio",
    "agg_err_max": "abs",
    "train_loss": "loss",
}

#: Counters whose per-run value is a maximum, not a sum of deltas.
_MAX_COUNTERS = ("eventloop.peak_depth",)

_clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold set-up in a fresh process, printed as JSON.
    parser.add_argument("--setup-rep", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cold_setup(args, rep: int) -> dict:
    """Seconds per set-up phase of a fresh interpreter's set-up ``rep``."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1", "--setup-rep", str(rep)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Phase:
    """Units run back to back until the phase's time is up."""

    def __init__(self) -> None:
        self.durations = []
        self.attempted = 0
        self.failed = 0
        self.deltas = defaultdict(float)

    @property
    def seconds(self) -> float:
        return sum(self.durations)


class Runner:
    """Drives one workload: prepare, time, check, count."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.index = 0
        self.maxima = defaultdict(float)
        self.reported_failures = 0

    def _fail(self, reason: str) -> None:
        self.reported_failures += 1
        if self.reported_failures <= 5:
            print(f"unit {self.index} failed: {reason}", file=sys.stderr)

    def unit(self, phase: Phase, tracer=None, probe=None) -> None:
        """Prepare, time and check one unit of work into ``phase``."""
        workload = self.workload
        phase.attempted += 1
        try:
            workload.prepare(self.index)
            before = workload.counters()
            if tracer is not None:
                tracer.round = self.index
                began = _clock()
                tracer.span("bench.unit", workload.run)
            else:
                began = _clock()
                workload.run()
            elapsed = _clock() - began
            ok = workload.check()
            after = workload.counters()
        except Exception:  # a failed unit is counted, not fatal
            phase.failed += 1
            self._fail(traceback.format_exc())
            return
        finally:
            self.index += 1
        if probe is not None:
            probe.flush()
        for name, value in after.items():
            if name in _MAX_COUNTERS:
                self.maxima[name] = max(self.maxima[name], value)
            else:
                phase.deltas[name] += value - before.get(name, 0)
        if ok:
            phase.durations.append(elapsed)
        else:
            phase.failed += 1
            self._fail(workload.failure or "output check failed")

    def run(self, seconds: float, min_units: int) -> Phase:
        """Untraced units back to back until ``seconds`` have passed."""
        phase = Phase()
        start = _clock()
        while _clock() - start < seconds or phase.attempted < min_units:
            self.unit(phase)
        return phase

    def run_traced(self, seconds: float, min_units: int, tracer,
                   probe, instrument) -> tuple:
        """Alternate untraced and traced units; returns both phases.

        Interleaving puts both kinds of unit under the same inputs and
        the same host conditions, so their ratio is the tracing cost.
        """
        plain, traced = Phase(), Phase()
        start = _clock()
        while (_clock() - start < seconds or not traced.attempted
               or plain.attempted + traced.attempted < min_units):
            if self.index % 2:
                instrument()
                try:
                    self.unit(traced, tracer, probe)
                finally:
                    tracer.uninstall()
            else:
                self.unit(plain)
        return plain, traced


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def end_to_end(workload, phase: Phase, setup_s: float) -> dict:
    units = max(phase.attempted, 1)
    return {
        "setup_s": setup_s,
        "round_s": median(phase.durations),
        "values_per_s": (workload.values_done / phase.seconds
                         if phase.seconds else 0.0),
        "wire_mb_per_round": phase.deltas["channel.wire_bytes"] / units
        / 1e6,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_ok_ratio": (phase.attempted - phase.failed) / units,
        "agg_err_max": workload.agg_err_max(),
        "train_loss": workload.train_loss(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC.name}/repro; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # One caller, no helper threads: keep numpy's pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from tracer import Tracer

    import_s = _clock() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.setup_rep is not None:
        phases = workload.setup(args.setup_rep)
        workload.finish()
        phases["import"] = import_s
        print(json.dumps(phases))
        return 0
    # This process's own set-up is the first of several cold set-ups.
    own = workload.setup(0)
    own["import"] = import_s
    reps = [own] + [cold_setup(args, rep)
                    for rep in range(1, workloads.SETUP_REPEATS)]
    setup = {phase: median([rep[phase] for rep in reps]) for phase in own}
    setup_s = median([sum(rep.values()) for rep in reps])

    runner = Runner(workload)
    record = {"workload": workload.name, "why": workload.why,
              "unit": workload.unit, "seed": args.seed,
              "trace": args.trace}
    try:
        if not args.trace:
            phase = runner.run(args.seconds, workload.min_units)
            metrics = end_to_end(workload, phase, setup_s)
            attempted, failed = phase.attempted, phase.failed
            correct = failed == 0
            units = END_TO_END_UNITS
            record["samples"] = len(phase.durations)
        else:
            tracer, probe = Tracer(), layers.LayerProbe()
            plain, traced = runner.run_traced(
                args.seconds, workload.min_units, tracer, probe,
                lambda: layers.instrument(tracer, probe, workload))
            metrics = {f"setup.{name}_s": value
                       for name, value in setup.items()}
            metrics.update(layers.layer_metrics(
                tracer, probe, traced.deltas, max(traced.attempted, 1),
                traced.seconds))
            metrics["eventloop.peak_depth"] = runner.maxima[
                "eventloop.peak_depth"]
            metrics["trace.round_s"] = median(traced.durations)
            metrics["trace.overhead_ratio"] = (
                median(traced.durations) / median(plain.durations))
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            rn_ratio = metrics["crypto.encrypt.distinct_rn_ratio"]
            if rn_ratio < 1.0:
                print(f"obfuscators reused: distinct r^n ratio "
                      f"{rn_ratio:.6f}", file=sys.stderr)
            correct = failed == 0 and rn_ratio == 1.0
            units = layers.PER_LAYER_UNITS
            record["samples"] = len(traced.durations)
            record["untraced_samples"] = len(plain.durations)
            record["modexp_share"] = metrics["crypto.modexp.share"]
            record["traced_over_untraced_round_s"] = metrics[
                "trace.overhead_ratio"]
    finally:
        workload.finish()

    props = workload.properties()
    if args.trace:
        metrics["wal.bytes"] = props.get("wal_bytes_per_round", 0.0)
        metrics["wal.retained_bytes"] = props.get("wal_retained_bytes_max", 0)
    record.update(props)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        # A run whose units all failed has no median; it is reported
        # as not correct, with 0 in place of the missing values.
        "metrics": {name: {"value": finite(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
