"""Wire-timing benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 wirebench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Workloads are ``golden`` and ``train`` (see README.md).  A run sets up
(imports, a warm-up pass on another seed, the labeled training data and
the model its predict and serve slices use, fitted and served), then
runs cycles for ``--seconds``.  A cycle is the workload's own slices
plus probe slices of each other phase, serving included, so every run
reports every metric.

``--trace 0`` prints the end-to-end metrics, with every timing scaled to
the reference host speed (``hostspeed.py``); ``--trace 1`` instead runs
pairs of untraced and traced cycles and prints the per-layer metrics.
The last stdout line is the JSON result; the run record, with the
environment block, sample counts and spans, goes to ``--out``.  The exit
code is 1 when a correctness check failed and 2 when the program's
source is missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("golden", "train")

#: Set-ups per run: this process plus ``SETUP_SAMPLES - 1`` child
#: processes that only set up; ``setup_s`` is their median.
SETUP_SAMPLES = 2

#: (name, unit); every run reports all of them with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"), ("ok_ratio", "ratio"),
    ("label_nets_per_s", "1/s"), ("sta_paths_per_s", "1/s"),
    ("eco_edit_p50_ms", "ms"), ("eco_edit_p90_ms", "ms"),
    ("train_samples_per_s", "1/s"), ("infer_nets_per_s", "1/s"),
    ("r2_delay", "r2"), ("r2_slew", "r2"),
    ("serve_nets_per_s", "1/s"), ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
)


def seed_for(seed: int, purpose: str, index: int = 0) -> int:
    """A stable sub-seed, distinct per purpose and cycle."""
    return zlib.crc32(f"{seed}:{purpose}:{index}".encode())


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wirebench: program source not found under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"wirebench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


#: A cycle is the workload's own slices plus probe slices of the other
#: phases, so every metric is sampled across the run.  Repeated slices
#: are spread over the cycle rather than run back to back, so their
#: samples meet more of the host's speed drift.  ``golden`` labels and
#: runs cold STA passes; ``train`` runs short fits from scratch and
#: predict passes.
CYCLES = {
    "golden": ("label", "serve", "eco", "fit", "sta", "label", "predict",
               "eco", "serve", "label", "fit", "predict", "label", "eco",
               "serve", "sta", "fit", "label", "predict"),
    "train": ("fit", "predict", "fit", "serve", "fit", "label", "fit",
              "predict", "eco", "fit", "sta", "fit", "serve", "predict",
              "fit", "label", "fit", "eco", "predict", "fit", "serve",
              "label", "sta", "predict"),
}

#: Epochs of a cycle's fit slice.  Its epochs give the
#: ``train_samples_per_s`` samples, and a short fit keeps the host-speed
#: readings around it close to the speed its epochs ran at.
FIT_EPOCHS = 2

#: A serve slice is ``SERVE_ROUNDS`` rounds of ``ROUND_REQUESTS``
#: requests per client, with a host-speed reading between rounds.
SERVE_ROUNDS = 4
ROUND_REQUESTS = 6

#: One cycle gives >= 100 edits and >= 100 requests, so a p90 has >= 10
#: samples beyond it.  After it the run stops at the first slice that
#: ends past ``--seconds``.
MIN_CYCLES = 1


class Run:
    """One workload on one seed: set-up and cycles."""

    def __init__(self, workload: str, seed: int) -> None:
        import hostspeed
        import phases

        self.phases = phases
        self.workload = workload
        self.seed = seed
        self.speed_log = hostspeed.SpeedLog()
        self.tally = self.new_tally()
        self.model = None
        self.handle = None
        self.data = None

    def new_tally(self):
        """A tally whose long slices take host-speed readings."""
        return self.phases.Tally(mark=self.speed_log.read)

    @property
    def host_speeds(self) -> List[float]:
        return self.speed_log.speeds

    def setup(self) -> Tuple[float, float]:
        """Warm up on another seed, build inputs, fit and serve the model.

        The model is the one the predict and serve slices use; its fit
        gives the R^2 samples but no throughput samples (see
        ``phases.fit``).  Returns the set-up seconds and the host speed
        over it: the median of readings between its steps and three
        right after it.
        """
        phases, log = self.phases, self.speed_log
        phases.warm_up(seed_for(self.seed, "warm-up"))
        log.read()
        self.data = phases.train_data(seed_for(self.seed, "train-data"))
        log.read()
        self.model = phases.fit(self.data, phases.EPOCHS, self.tally,
                                sample=False)
        log.read()
        phases.evaluate(self.model, self.data, self.tally)
        self.handle = phases.start(self.model, self.data)
        seconds = time.perf_counter() - START
        for _ in range(3):
            log.read()
        return seconds, statistics.median(log.speeds)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop(drain=True, timeout=10.0)
            self.handle = None

    def step(self, tally, phase: str, fn, *args):
        """Run one slice with a host-speed reading after it.

        Adds the slice's wall seconds to ``phase_s.<phase>``.
        """
        start = time.perf_counter()
        result = fn(*args)
        tally.counts[f"phase_s.{phase}"] += time.perf_counter() - start
        self.speed_log.read()
        return result

    def cycle(self, index: int, tally,
              deadline: Optional[float] = None) -> None:
        """One cycle of slices, each run by ``step``.

        With a ``deadline``, the cycle stops after the first slice that
        ends past it.
        """
        phases, data = self.phases, self.data
        repeats: Dict[str, int] = {}
        for phase in CYCLES[self.workload]:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            repeat = repeats[phase] = repeats.get(phase, -1) + 1
            seed = seed_for(self.seed, f"{phase}{repeat}", index)
            if phase == "label":
                self.step(tally, phase, phases.label, seed, tally)
            elif phase == "sta":
                self.step(tally, phase, phases.sta, tally)
            elif phase == "eco":
                self.step(tally, phase, phases.eco, seed, tally)
            elif phase == "fit":
                self.step(tally, phase, phases.fit, data, FIT_EPOCHS, tally)
            elif phase == "predict":
                self.step(tally, phase, phases.predict, self.model, data,
                          tally)
            else:
                self.step(tally, phase, phases.serve, self.handle, seed,
                          ROUND_REQUESTS, tally, SERVE_ROUNDS)

    def timed(self, seconds: float) -> int:
        """Cycles until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() < deadline:
            self.cycle(cycles, self.tally,
                       deadline if cycles >= MIN_CYCLES else None)
            cycles += 1
        return cycles


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values``.

    As robust to a few stalled slices as the median, and steadier with the
    handful of samples a run has of a rate.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


#: Timing samples that are rates (divided by the host speed) and
#: latencies (multiplied by it) when scaled to the reference speed.
RATES = ("label_nets_per_s", "sta_paths_per_s", "train_samples_per_s",
         "infer_nets_per_s", "serve_nets_per_s")
LATENCIES = ("eco_edit_ms", "serve_ms")


def end_to_end(tally, speed_log, setups: List[Tuple[float, float]],
               scaled: bool = True
               ) -> Tuple[Dict[str, float], Dict[str, int],
                          Dict[str, List[float]]]:
    """Metric values, the number of samples behind each and the samples.

    ``setups`` holds (seconds, host speed) per set-up.  Each timing
    sample is scaled to the reference host speed by the readings of
    ``speed_log`` around it (see ``hostspeed``) unless ``scaled`` is
    false.
    """
    def timing(key: str) -> List[float]:
        values, windows = tally.samples[key], tally.windows[key]
        if len(windows) != len(values):
            raise RuntimeError(f"{key}: {len(values)} samples but "
                               f"{len(windows)} windows")
        if not scaled:
            return values
        speeds = [speed_log.around(*window) for window in windows]
        if key in LATENCIES:
            return [value * speed for value, speed in zip(values, speeds)]
        return [value / speed for value, speed in zip(values, speeds)]

    samples = {key: timing(key) for key in RATES + LATENCIES}
    eco_ms, serve_ms = samples["eco_edit_ms"], samples["serve_ms"]
    values: Dict[str, float] = {
        "setup_s": statistics.median(seconds * (speed if scaled else 1.0)
                                     for seconds, speed in setups),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "eco_edit_p50_ms": _percentile(eco_ms, 50),
        "eco_edit_p90_ms": _percentile(eco_ms, 90),
        "serve_p50_ms": _percentile(serve_ms, 50),
        "serve_p90_ms": _percentile(serve_ms, 90),
    }
    counts = {"setup_s": len(setups), "ok_ratio": tally.attempted,
              "eco_edit_p50_ms": len(eco_ms), "eco_edit_p90_ms": len(eco_ms),
              "serve_p50_ms": len(serve_ms), "serve_p90_ms": len(serve_ms)}
    for name in RATES:
        values[name] = interquartile_mean(samples[name])
        counts[name] = len(samples[name])
    for name in ("r2_delay", "r2_slew"):
        values[name] = statistics.median(tally.samples[name])
        counts[name] = len(tally.samples[name])
    return values, counts, samples


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def traced(run: Run, seconds: float):
    """Pairs of untraced and traced cycles; returns per-layer inputs.

    Both cycles of a pair do the same work on the same seed, so their
    label digests must agree.
    """
    from repro.obs import get_metrics
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    traced_tally = run.new_tally()
    ratios: List[float] = []
    deltas: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    pairs = 0
    while True:
        pairs += 1
        plain_first = len(run.tally.label_digests)
        traced_first = len(traced_tally.label_digests)
        # Each cycle's wall time is scaled by the host speed read during
        # it, so host drift between the two cycles does not count.
        start = time.perf_counter()
        run.cycle(pairs, run.tally)
        end = time.perf_counter()
        plain_s = (end - start) * run.speed_log.around(start, end)
        before = get_metrics().snapshot()
        recorder.install()
        start = time.perf_counter()
        try:
            run.cycle(pairs, traced_tally)
        finally:
            recorder.uninstall()
        end = time.perf_counter()
        traced_s = (end - start) * run.speed_log.around(start, end)
        ratios.append(traced_s / plain_s)
        _add_deltas(deltas, before, get_metrics().snapshot())
        traced_tally.check(run.tally.label_digests[plain_first:]
                           == traced_tally.label_digests[traced_first:],
                           f"cycle {pairs}: traced labels differ from "
                           f"untraced ones on the same seed")
        if time.perf_counter() >= deadline:
            break
    return recorder, traced_tally, deltas, ratios, pairs


def _add_deltas(deltas: Dict[str, float], before: Dict[str, Any],
                after: Dict[str, Any]) -> None:
    """Accumulate counter and histogram count/sum growth."""
    for name, value in after["counters"].items():
        deltas[name] = deltas.get(name, 0) + value \
            - before["counters"].get(name, 0)
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        for key in ("count", "sum"):
            deltas[f"{name}.{key}"] = deltas.get(f"{name}.{key}", 0) \
                + hist[key] - old[key]


#: Per-layer metrics: (name, unit, how, source).  ``self``/``total`` are
#: a span's self or inclusive seconds and ``calls`` its call count, per
#: traced cycle; ``counter`` is a program counter's growth per cycle.
PER_LAYER = (
    ("analysis.golden_analyze_s", "s", "total", "analysis.golden_analyze"),
    ("analysis.solve_many_s", "s", "self", "analysis.solve_many"),
    ("analysis.crossing_s", "s", "self", "analysis.golden_analyze"),
    ("analysis.nets_solved", "count", "counter", "batch.nets_solved"),
    ("analysis.batch_groups", "count", "counter", "batch.groups"),
    ("analysis.padding_waste", "count", "counter", "batch.padding_waste"),
    ("design.generate_s", "s", "self", "design.generate"),
    ("features.build_s", "s", "self", "features.build"),
    ("design.wire_timing_calls", "count", "calls", "design.wire_timing"),
    ("design.wire_timing_s", "s", "self", "design.wire_timing"),
    ("analysis.solve_cache_hit_ratio", "ratio", "derived", None),
    ("design.eco_apply_s", "s", "total", "design.eco_apply"),
    ("design.eco_cone_paths", "count", "derived", None),
    ("design.eco_reuse_ratio", "ratio", "derived", None),
    ("core.gnn_s", "s", "self", "core.gnn"),
    ("core.transformer_s", "s", "self", "core.transformer"),
    ("core.pooling_s", "s", "self", "core.pooling"),
    ("core.heads_s", "s", "self", "core.heads"),
    ("nn.backward_s", "s", "self", "nn.backward"),
    ("nn.clip_s", "s", "self", "nn.clip"),
    ("nn.optim_step_s", "s", "self", "nn.optim_step"),
    ("nn.forward_calls", "count", "calls", "nn.forward"),
    ("nn.backward_calls", "count", "calls", "nn.backward"),
    ("nn.optim_steps", "count", "calls", "nn.optim_step"),
    ("nn.val_s", "s", "total", "nn.val"),
    ("core.predict_s", "s", "total", "core.predict"),
    ("serve.queue_wait_ms", "ms", "derived", None),
    ("serve.batch_nets", "count", "derived", None),
    ("serve.engine_batch_s", "s", "total", "serve.engine_batch"),
    ("serve.learned_s", "s", "total", "serve.learned"),
    ("robustness.learned_share", "ratio", "derived", None),
    ("robustness.breaker_open", "count", "derived", None),
    ("robustness.tier.LearnedWireModel", "count", "derived", None),
    ("robustness.tier.AWEWireModel", "count", "derived", None),
    ("robustness.tier.D2MWireModel", "count", "derived", None),
    ("robustness.tier.ElmoreWireModel", "count", "derived", None),
    ("robustness.tier.lumped-rc", "count", "derived", None),
    ("obs.trace_overhead_ratio", "ratio", "derived", None),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(recorder, tally, deltas: Dict[str, float],
              ratios: List[float], cycles: int) -> Dict[str, float]:
    from phases import SERVE_TIERS

    spans = recorder.summary()
    counts = tally.counts
    tiers = {name: counts[f"tier.{name}"] / cycles for name in SERVE_TIERS}
    derived = {
        "analysis.solve_cache_hit_ratio": _ratio(
            counts["sta_cache_hits"],
            counts["sta_cache_hits"] + counts["sta_cache_misses"]),
        "design.eco_cone_paths": _ratio(counts["eco_cone_paths"],
                                        counts["eco_edits"]),
        "design.eco_reuse_ratio": _ratio(counts["eco_stages_reused"],
                                         counts["eco_cone_stages"]),
        "serve.queue_wait_ms": 1e3 * _ratio(
            deltas.get("serve.queue_wait_s.sum", 0.0),
            deltas.get("serve.queue_wait_s.count", 0)),
        "serve.batch_nets": _ratio(deltas.get("serve.batch_nets.sum", 0.0),
                                   deltas.get("serve.batch_nets.count", 0)),
        "robustness.learned_share": _ratio(tiers["LearnedWireModel"],
                                           sum(tiers.values())),
        "robustness.breaker_open": counts["learned_skipped_open"] / cycles,
        "obs.trace_overhead_ratio": statistics.median(ratios),
    }
    derived.update({f"robustness.tier.{name}": value
                    for name, value in tiers.items()})
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    values: Dict[str, float] = {}
    for name, _, how, source in PER_LAYER:
        if how == "derived":
            values[name] = derived[name]
        elif how == "counter":
            values[name] = deltas.get(source, 0) / cycles
        else:
            key = {"self": "self_s", "total": "total_s", "calls": "calls"}[how]
            values[name] = spans.get(source, empty)[key] / cycles
    return values


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _child_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """Set-up seconds and host speed of a fresh process that only sets up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-only"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        raise SystemExit(f"wirebench: set-up child exited {proc.returncode}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(reply["setup_s"]), float(reply["host_speed"])


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".wirebench-out"),
                        help="directory for the run record")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _report(metrics: Dict[str, Dict[str, Any]], sample_counts: Dict[str, int],
            env: Dict[str, Any], tally, host_speeds: List[float]) -> None:
    for name, entry in metrics.items():
        count = sample_counts.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:34s} {entry['value']:14.6g} {entry['unit']}{suffix}")
    blas = env["blas"]
    threads = env["blas_threads"]
    print(f"env: {blas['name']} {blas['version']}, blas threads "
          f"{threads['probe']['threads']} (env {threads['env']}), "
          f"{env['cpu_count']} cpus, start method {env['mp_start_method']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    if host_speeds:
        print(f"host speed: {min(host_speeds):.2f}-{max(host_speeds):.2f} "
              f"(median {statistics.median(host_speeds):.2f}) of the "
              f"reference, {len(host_speeds)} readings")
    phase_s = {key.split(".", 1)[1]: value
               for key, value in tally.counts.items()
               if key.startswith("phase_s.")}
    total_s = sum(phase_s.values())
    if total_s:
        print("cycle time by phase: " + ", ".join(
            f"{phase} {value / total_s:.0%}"
            for phase, value in sorted(phase_s.items())))
    if tally.label_digests:
        print(f"label digest (first label slice): {tally.label_digests[0]}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    import_program()
    run = Run(args.workload, args.seed)
    try:
        setup_samples = [run.setup()]
        if args.setup_only:
            seconds, speed = setup_samples[-1]
            print(json.dumps({"setup_s": seconds, "host_speed": speed}))
            return 0
        from envinfo import environment

        env = environment()
        record: Dict[str, Any] = {"workload": args.workload,
                                  "seed": args.seed,
                                  "seconds": args.seconds,
                                  "trace": args.trace, "environment": env}
        if args.trace:
            recorder, tally, deltas, ratios, cycles = traced(run,
                                                             args.seconds)
            values = per_layer(recorder, tally, deltas, ratios, cycles)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            sample_counts = {}
            record.update(traced_cycles=cycles, overhead_ratios=ratios,
                          spans_summary=recorder.summary())
            for problem in tally.problems:
                run.tally.check(False, problem)
            run.tally.attempted += tally.attempted
            run.tally.failed += tally.failed
        else:
            cycles = run.timed(args.seconds)
            run.close()
            # Fresh processes that only set up, run after the measured
            # cycles so they never compete with them.
            setup_samples += [_child_setup(args)
                              for _ in range(SETUP_SAMPLES - 1)]
            values, sample_counts, samples = end_to_end(
                run.tally, run.speed_log, setup_samples)
            raw, _, _ = end_to_end(run.tally, run.speed_log, setup_samples,
                                   scaled=False)
            units = dict(END_TO_END)
            record.update(cycles=cycles, setup_samples=setup_samples,
                          unscaled_metrics=raw, scaled_samples=samples,
                          raw_samples={key: [[value, *window] for value, window
                                             in zip(run.tally.samples[key],
                                                    run.tally.windows[key])]
                                       for key in run.tally.windows},
                          speed_times=run.speed_log.times,
                          host_speeds=run.host_speeds)
    finally:
        run.close()

    tally = run.tally
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result=result, sample_counts=sample_counts,
                  label_digests=tally.label_digests,
                  problems=tally.problems,
                  counts=dict(tally.counts))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = str(out / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    Path(stem + ".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in recorder.records():
                handle.write(json.dumps(span) + "\n")
    _report(metrics, sample_counts, env, tally, run.host_speeds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
