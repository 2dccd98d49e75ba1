"""The slices the workloads are made of: inputs, timed work, checks.

* golden: ``label`` golden-labels a multi-design dataset with
  ``generate_dataset`` (the serial batched eigensolve and crossing
  search); ``sta`` times a cold ``ECOTimingEngine.full_pass`` on one
  design; ``eco`` replays single-net ``scale_net_rc`` edits on that design
  through ``ECOTimingEngine.apply`` and finishes with ``verify_parity()``.
* train: ``fit`` (``WireTimingEstimator.fit`` with validation),
  ``evaluate`` for R^2 and timed ``predict`` passes over the test split.
* serve: ``serve`` runs closed-loop ``TimingClient`` threads that post
  unique multi-net requests to an in-process ``start_server`` whose first
  tier is a ``LearnedWireModel``.

A slice builds its inputs from its own seed and adds its timing samples,
each with the window it was timed in, operation counts and failed checks
to a ``Tally``.  Long slices call ``Tally.mark`` between timed
operations, where the run takes a host-speed reading.  The program is driven
only through its public functions; nothing here changes its behaviour.
"""

from __future__ import annotations

import gc
import hashlib
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import get_solve_cache
from repro.core import PLANS, LearnedWireModel, WireTimingEstimator
from repro.data import design_net_samples, generate_dataset, train_val_split
from repro.design import (ECOTimingEngine, GoldenWireModel,
                          generate_benchmark, sample_timing_paths)
from repro.liberty import make_default_library
from repro.obs import get_metrics
from repro.rcnet import random_net
from repro.serve import (SHED_FULL, RetryPolicy, ServeClientError,
                         ServeConfig, ServeRequest, TimingClient,
                         TimingQuery, start_server)
from repro.serve.loadgen import DEFAULT_SERVE_WORKLOAD, OUTCOMES

#: Fallback-ladder tiers of the serving engine, in ladder order.
SERVE_TIERS = ("LearnedWireModel", "AWEWireModel", "D2MWireModel",
               "ElmoreWireModel", "lumped-rc")

#: Model hyper-parameters and initialisation are fixed.
MODEL_SEED = 7

#: The training nets are fixed too, so every run fits and serves the same
#: model: how often the serve ladder falls back depends on the model, so
#: a model that changed with the seed would make the serve metrics spread
#: with the seed.  The test nets come from the seed.
TRAIN_SEED = 0

#: The timing paths of the ECO design are fixed, so every cold pass times
#: the same paths; the edits come from the seed.
PATH_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """Designs and sizes the phases build their inputs from."""

    label_train: Tuple[str, ...]
    label_test: Tuple[str, ...]
    label_scale: int
    label_nets: int
    eco_design: str
    eco_scale: int
    eco_paths: int
    fit_train: Tuple[str, ...]
    fit_test: Tuple[str, ...]
    fit_scale: int
    fit_nets: int
    test_nets: int


FULL = Inputs(
    label_train=("PCI_BRIDGE", "DMA", "B19"),
    label_test=("WB_DMA", "LDPC", "DES_PERT"),
    label_scale=400, label_nets=60,
    eco_design="WB_DMA", eco_scale=400, eco_paths=60,
    fit_train=("PCI_BRIDGE", "DMA", "B19"),
    fit_test=("WB_DMA", "LDPC", "DES_PERT", "AES-128", "TV_CORE", "NOVA"),
    fit_scale=400, fit_nets=30, test_nets=50)

#: Warm-up inputs: every code path once, training on small designs.  The
#: labeling and ECO inputs stay full size: the first full-size labeling
#: ran at about half the speed of later ones, and the first pass over
#: the ECO paths was measurably slower too.
WARMUP = replace(
    FULL, fit_train=("PCI_BRIDGE",), fit_test=("WB_DMA",),
    fit_scale=1200, fit_nets=10, test_nets=6)

#: Epochs of a full fit: enough for the model to learn (R^2 ~0.9).
EPOCHS = 20

#: ECO edits between two ``Tally.mark`` calls (about 0.2 s of edits).
EDITS_PER_MARK = 20

#: Passes of an ECO slice over the nets on the timed paths: one gives
#: 79 edits; more, shorter slices spread the edits over more of the run.
ECO_PASSES = 1

#: Two clients send requests closed-loop, shaped like the program's own
#: default serve load.
CLIENTS = 2

#: Generous per-request budget: closed-loop traffic never queues deeply,
#: so a deadline miss means a stall, not load.
DEADLINE_MS = 10_000.0


def _no_mark() -> None:
    pass


@dataclass
class Tally:
    """Samples, operation counts and check failures of a set of slices.

    ``windows[key][i]`` is the ``perf_counter`` span in which timing
    sample ``samples[key][i]`` was taken; ``mark`` is called between
    timed operations of a long slice.
    """

    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    windows: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list))
    mark: Callable[[], object] = _no_mark
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    label_digests: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add(self, key: str, value: float, start: float, end: float) -> None:
        """A timing sample taken between ``start`` and ``end``."""
        self.samples[key].append(value)
        self.windows[key].append((start, end))


@dataclass
class TrainData:
    """A standardized train/validation/test split labeled in set-up."""

    train: list
    val: list
    test: list
    scaler: object


def _counter(name: str) -> int:
    return get_metrics().counter(name).snapshot()


# ----------------------------------------------------------------------
# golden
# ----------------------------------------------------------------------
def label_digest(samples: Sequence) -> str:
    """SHA-256 over every sample's identity and golden labels, in order."""
    digest = hashlib.sha256()
    for sample in samples:
        slews, delays = sample.labels()
        digest.update(f"{sample.design}/{sample.name}".encode())
        digest.update(np.ascontiguousarray(slews, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(delays, dtype=np.float64).tobytes())
    return digest.hexdigest()


def settle() -> None:
    """Collect the last slice's garbage before the next slice's clock."""
    gc.collect()


def label(seed: int, tally: Tally, inputs: Inputs = FULL) -> None:
    """Golden-label a multi-design dataset from a cold SolveCache."""
    settle()
    get_solve_cache().clear()
    start = time.perf_counter()
    dataset = generate_dataset(
        train_names=inputs.label_train, test_names=inputs.label_test,
        scale=inputs.label_scale, nets_per_design=inputs.label_nets,
        seed=seed, n_jobs=1)
    end = time.perf_counter()
    samples = dataset.train + dataset.test
    tried = len(samples) + len(dataset.skipped)
    tally.add("label_nets_per_s", tried / (end - start), start, end)
    tally.attempted += tried
    tally.failed += len(dataset.skipped)
    tally.check(not dataset.skipped,
                f"label seed {seed}: {len(dataset.skipped)} nets skipped")
    for sample in samples:
        slews, delays = sample.labels()
        if not (np.all(np.isfinite(slews)) and np.all(np.isfinite(delays))
                and np.all(slews > 0.0)):
            tally.check(False, f"label seed {seed}: net {sample.design}/"
                               f"{sample.name} has a non-finite label or a "
                               f"slew <= 0")
            break
    tally.label_digests.append(label_digest(samples))


def eco_netlist(inputs: Inputs = FULL):
    """The ECO design with its fixed timing paths."""
    netlist = generate_benchmark(inputs.eco_design, make_default_library(),
                                 inputs.eco_scale)
    for path in sample_timing_paths(netlist, inputs.eco_paths,
                                    np.random.default_rng(PATH_SEED)):
        netlist.add_path(path)
    return netlist


def sta(tally: Tally, inputs: Inputs = FULL):
    """One cold full pass over the ECO design's paths.

    Returns the netlist and the engine that timed it.
    """
    settle()
    netlist = eco_netlist(inputs)
    engine = ECOTimingEngine(netlist, GoldenWireModel())
    get_solve_cache().clear()
    hits, misses = (_counter("simulator.cache_hits"),
                    _counter("simulator.cache_misses"))
    start = time.perf_counter()
    engine.full_pass()
    end = time.perf_counter()
    tally.counts["sta_cache_hits"] += _counter("simulator.cache_hits") - hits
    tally.counts["sta_cache_misses"] += (_counter("simulator.cache_misses")
                                         - misses)
    tally.add("sta_paths_per_s", len(netlist.paths) / (end - start), start,
              end)
    tally.attempted += len(netlist.paths)
    return netlist, engine


def eco(seed: int, tally: Tally, inputs: Inputs = FULL,
        edits: Optional[int] = None) -> None:
    """A cold full pass (an ``sta`` sample), single-net RC edits, parity.

    The edits visit every net on a timed path once per pass (or the
    first ``edits`` of them), in an order and with R/C factors drawn from
    ``seed``.  So every seed edits the same nets and the latency
    percentiles do not hang on which few nets a seed happens to draw.
    """
    netlist, engine = sta(tally, inputs)
    path_nets = sorted({stage.net for path in netlist.paths
                        for stage in path.stages})
    stage_counts = [len(path.stages) for path in netlist.paths]
    rng = np.random.default_rng(seed)
    order = [path_nets[i] for _ in range(ECO_PASSES)
             for i in rng.permutation(len(path_nets))]
    order = order[:edits]
    for index, net in enumerate(order):
        if index and index % EDITS_PER_MARK == 0:
            tally.mark()
        edit = netlist.scale_net_rc(net, r_factor=float(rng.uniform(0.8, 1.25)),
                                    c_factor=float(rng.uniform(0.8, 1.25)))
        start = time.perf_counter()
        outcome = engine.apply(edit)
        end = time.perf_counter()
        tally.add("eco_edit_ms", (end - start) * 1e3, start, end)
        tally.counts["eco_edits"] += 1
        tally.counts["eco_cone_paths"] += outcome.cone_size
        tally.counts["eco_stages_reused"] += outcome.stages_reused
        tally.counts["eco_cone_stages"] += sum(
            stage_counts[index] for index in outcome.retimed_paths)
    problems = engine.verify_parity()
    tally.attempted += len(order)
    if problems:
        tally.failed += len(order)
    tally.check(not problems, f"eco seed {seed}: ECO replay differs from "
                              f"cold STA ({len(problems)} problems, first: "
                              f"{problems[:1]})")


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def train_data(seed: int, inputs: Inputs = FULL) -> TrainData:
    """Label the fixed training nets and a larger held-out test set.

    The test nets are drawn with ``seed``.
    """
    get_solve_cache().clear()
    dataset = generate_dataset(
        train_names=inputs.fit_train, test_names=(), scale=inputs.fit_scale,
        nets_per_design=inputs.fit_nets, seed=TRAIN_SEED, n_jobs=1)
    rng = np.random.default_rng(seed)
    library = make_default_library()
    test: list = []
    skipped: list = list(dataset.skipped)
    for name in inputs.fit_test:
        netlist = generate_benchmark(name, library, inputs.fit_scale)
        test += design_net_samples(netlist, max_nets=inputs.test_nets,
                                   rng=rng, skipped=skipped, jobs=1)
    if skipped:
        raise RuntimeError(f"labeling the training data skipped "
                           f"{len(skipped)} nets, first: {skipped[0]}")
    train, val = train_val_split(dataset.train, 0.1, seed=TRAIN_SEED)
    return TrainData(train=train, val=val,
                     test=dataset.scaler.transform(test),
                     scaler=dataset.scaler)


def fit(data: TrainData, epochs: int, tally: Tally,
        sample: bool = True) -> WireTimingEstimator:
    """Fit the estimator from scratch.

    One throughput sample per epoch, unless ``sample`` is false: a long
    fit has no host-speed reading inside it, so its epochs would all be
    scaled by the same readings.
    """
    settle()
    config = replace(PLANS["PlanB"], epochs=epochs, seed=MODEL_SEED)
    estimator = WireTimingEstimator(config)
    start = time.perf_counter()
    history = estimator.fit(data.train, val_samples=data.val, epochs=epochs,
                            patience=None)
    end = time.perf_counter()
    for epoch in history.epochs if sample else ():
        tally.add("train_samples_per_s", len(data.train) / epoch.seconds,
                  start, end)
    diverged = history.diverged is not None or not all(
        math.isfinite(epoch.train_loss) for epoch in history.epochs)
    tally.attempted += len(history.epochs)
    tally.failed += int(diverged)
    tally.check(not diverged, f"training diverged: {history.diverged}")
    return estimator


def evaluate(model: WireTimingEstimator, data: TrainData,
             tally: Tally) -> None:
    """R^2 against the golden labels of the test split."""
    metrics = model.evaluate(data.test)
    tally.samples["r2_delay"].append(metrics.r2_delay)
    tally.samples["r2_slew"].append(metrics.r2_slew)
    tally.check(math.isfinite(metrics.r2_delay)
                and math.isfinite(metrics.r2_slew),
                f"non-finite R^2: {metrics}")


def predict(model: WireTimingEstimator, data: TrainData,
            tally: Tally) -> None:
    """One timed ``predict`` pass over the test split."""
    settle()
    start = time.perf_counter()
    slews, delays = model.predict(data.test)
    end = time.perf_counter()
    tally.add("infer_nets_per_s", len(data.test) / (end - start), start, end)
    tally.check(bool(np.all(np.isfinite(slews))
                     and np.all(np.isfinite(delays))),
                "predict returned non-finite timing")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def start(model: WireTimingEstimator, data: TrainData):
    """In-process server (two workers) whose first tier is the model."""
    config = ServeConfig(host="127.0.0.1", port=0, workers=2)
    return start_server(config, learned=LearnedWireModel(model, data.scaler))


def _requests(seed: int, round_: int,
              per_client: int) -> List[List[ServeRequest]]:
    """One request stream per client; every net is distinct."""
    rng = np.random.default_rng([seed, round_])
    streams = []
    for client in range(CLIENTS):
        stream = []
        for index in range(per_client):
            tag = f"s{seed}.{round_}c{client}r{index}"
            queries = []
            for slot in range(DEFAULT_SERVE_WORKLOAD.nets_per_request):
                net = random_net(rng, name=f"{tag}n{slot}",
                                 n_nodes_range=DEFAULT_SERVE_WORKLOAD.net_nodes,
                                 n_sinks_range=(1, 4))
                queries.append(TimingQuery(
                    net=net, input_slew_s=float(rng.uniform(5e-12, 8e-11)),
                    drive_resistance_ohm=float(rng.uniform(50.0, 400.0)),
                    sink_loads_f=[float(v) for v in
                                  rng.uniform(1e-15, 6e-15, net.num_sinks)]))
            stream.append(ServeRequest(queries=queries,
                                       deadline_ms=DEADLINE_MS,
                                       request_id=tag))
        streams.append(stream)
    return streams


class _Caller:
    """One closed-loop client: sends the next request after each reply."""

    def __init__(self, port: int, stream: List[ServeRequest]) -> None:
        self.client = TimingClient(port=port, timeout_s=30.0,
                                   policy=RetryPolicy(max_attempts=3,
                                                      base_backoff_s=0.02))
        self.stream = stream
        self.outcomes = {key: 0 for key in OUTCOMES}
        #: (latency in ms, start, end) per answered request.
        self.latencies: List[Tuple[float, float, float]] = []
        self.nets_ok = 0
        self.problems: List[str] = []

    def run(self) -> None:
        try:
            for request in self.stream:
                self._one(request)
        except Exception as exc:  # reported as a failed check, not lost
            self.problems.append(f"client crashed: {type(exc).__name__}: "
                                 f"{exc}")

    def _one(self, request: ServeRequest) -> None:
        start = time.perf_counter()
        try:
            response = self.client.submit(request)
        except ServeClientError:
            self.outcomes["transport"] += 1
            return
        end = time.perf_counter()
        self.latencies.append(((end - start) * 1e3, start, end))
        if not response.ok:
            kind = (response.error or {}).get("type", "InternalError")
            self.outcomes[{"OverloadError": "rejected",
                           "DeadlineError": "deadline"}.get(kind, "error")] += 1
            return
        results = response.results or []
        broken = len(results) != len(request.queries)
        if broken:
            self.problems.append(f"{request.request_id}: {len(results)} "
                                 f"results for {len(request.queries)} nets")
        for query, result in zip(request.queries, results):
            if not result.ok:
                broken = True
                kind = (result.error or {}).get("type", "unknown error")
                self.problems.append(f"{result.net}: no timing ({kind})")
                continue
            delays = np.asarray(result.delays_s, dtype=np.float64)
            slews = np.asarray(result.slews_s, dtype=np.float64)
            if (delays.shape != (query.net.num_sinks,)
                    or slews.shape != delays.shape
                    or not np.all(np.isfinite(delays))
                    or not np.all(np.isfinite(slews))
                    or np.any(delays < 0.0) or np.any(slews <= 0.0)):
                self.problems.append(f"{result.net}: invalid timing from "
                                     f"tier {result.tier}")
                broken = True
                continue
            self.nets_ok += 1
        if broken:
            self.outcomes["error"] += 1
        elif any(result.degraded for result in results):
            self.outcomes["degraded"] += 1
        else:
            self.outcomes["ok"] += 1


def serve(handle, seed: int, per_client: int, tally: Tally,
          rounds: int = 1) -> None:
    """``rounds`` rounds of closed-loop callers on ``handle``.

    In a round each caller sends ``per_client`` requests; ``Tally.mark``
    runs between rounds.
    """
    for round_ in range(rounds):
        if round_:
            tally.mark()
        _serve_round(handle, seed, round_, per_client, tally)


def _serve_round(handle, seed: int, round_: int, per_client: int,
                 tally: Tally) -> None:
    """One round of requests, on a prediction cache emptied first so no
    round is answered from an earlier one."""
    settle()
    handle.service.engine.cache.clear()
    streams = _requests(seed, round_, per_client)
    callers = [_Caller(handle.port, stream) for stream in streams]
    chain = handle.service.engine.chain_for(SHED_FULL)
    learned = chain.stats.get(SERVE_TIERS[0])
    skipped_open = learned.skipped_open if learned is not None else 0
    tiers = {name: _counter(f"serve.tier.{name}") for name in SERVE_TIERS}
    threads = [threading.Thread(target=caller.run, name=f"caller-{i}")
               for i, caller in enumerate(callers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    end = time.perf_counter()
    tally.check(not any(thread.is_alive() for thread in threads),
                f"serve seed {seed}: a caller did not finish in time")

    sent = sum(len(stream) for stream in streams)
    outcomes = {key: sum(c.outcomes[key] for c in callers) for key in OUTCOMES}
    answered = sum(outcomes.values())
    tally.attempted += sent
    tally.failed += sent - outcomes["ok"] - outcomes["degraded"]
    tally.check(answered == sent, f"serve seed {seed}: census broken, sent "
                                  f"{sent} but {answered} accounted for "
                                  f"({outcomes})")
    for caller in callers:
        for problem in caller.problems:
            tally.check(False, f"serve seed {seed}: {problem}")
        for latency_ms, sent_at, answered_at in caller.latencies:
            tally.add("serve_ms", latency_ms, sent_at, answered_at)
    tally.add("serve_nets_per_s",
              sum(c.nets_ok for c in callers) / (end - start), start, end)
    for key, value in outcomes.items():
        tally.counts[f"outcome.{key}"] += value
    for name in SERVE_TIERS:
        tally.counts[f"tier.{name}"] += (_counter(f"serve.tier.{name}")
                                         - tiers[name])
    if learned is not None:
        tally.counts["learned_skipped_open"] += (learned.skipped_open
                                                 - skipped_open)


def warm_up(seed: int) -> None:
    """Run every phase once on small inputs, so first-call costs land here."""
    tally = Tally()
    label(seed, tally, WARMUP)
    sta(tally, WARMUP)
    eco(seed, tally, WARMUP, edits=4)
    data = train_data(seed, WARMUP)
    model = fit(data, 1, tally)
    evaluate(model, data, tally)
    predict(model, data, tally)
    handle = start(model, data)
    try:
        serve(handle, seed, 3, tally)
    finally:
        handle.stop(drain=True, timeout=10.0)
    if tally.problems:
        raise RuntimeError(f"warm-up failed: {tally.problems[:3]}")
