"""Outside-in span tracing for the traced benchmark run.

The program is not edited.  ``SpanRecorder.install`` replaces the public
callables listed in ``TARGETS`` with wrappers that record one span per
call: id, name, start, end, parent id and thread.  ``uninstall`` puts the
originals back.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time covered by its direct
children, which are the spans opened on the same thread while it ran.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute, span name).  ``Class.attr`` patches the class, so
#: instances created before ``install`` are traced too.  A function is
#: patched in the module that looks it up at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.batch", "golden_analyze_many", "analysis.golden_analyze"),
    ("repro.analysis.batch", "BatchedEigenEngine.solve_many",
     "analysis.solve_many"),
    ("repro.data.generate", "generate_benchmark", "design.generate"),
    ("repro.data.generate", "build_net_sample", "features.build"),
    ("repro.features.path_features", "analyze_nets_for_features",
     "features.build"),
    ("repro.design.sta", "GoldenWireModel.wire_timing", "design.wire_timing"),
    ("repro.design.eco", "ECOTimingEngine.apply", "design.eco_apply"),
    ("repro.core.gnntrans", "GNNTrans.__call__", "nn.forward"),
    ("repro.core.gnn_layer", "GNNModule.__call__", "core.gnn"),
    ("repro.core.transformer_layer", "TransformerModule.__call__",
     "core.transformer"),
    ("repro.core.gnntrans", "pool_paths", "core.pooling"),
    ("repro.core.heads", "TimingHeads.__call__", "core.heads"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Optimizer.clip_grad_norm", "nn.clip"),
    ("repro.nn.optim", "Adam.step", "nn.optim_step"),
    ("repro.nn.trainer", "Trainer.evaluate", "nn.val"),
    ("repro.core.estimator", "WireTimingEstimator.predict", "core.predict"),
    ("repro.serve.engine", "EstimationEngine.serve_batch",
     "serve.engine_batch"),
    ("repro.core.estimator", "LearnedWireModel.wire_timing", "serve.learned"),
)

#: One recorded span: (id, name, start, end, parent id, thread id).
Span = Tuple[int, str, float, float, Optional[int], int]


class SpanRecorder:
    """Records spans around the ``TARGETS`` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, name, start, end, parent,
                                       threading.get_ident()))
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("SpanRecorder is already installed")
        for module_name, attr, name in TARGETS:
            owner: Any = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            own = vars(owner).get(attr)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            if own is None:  # inherited: drop the wrapper to restore
                self._restore.append(
                    functools.partial(delattr, owner, attr))
            else:
                self._restore.append(
                    functools.partial(setattr, owner, attr, own))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds.

        Inclusive time counts only the outermost of nested same-name
        spans, so recursion is not counted twice.
        """
        by_id = {span[0]: span for span in self.spans}
        child_s: Dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span_id, name, start, end, parent, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[span_id]
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                entry["total_s"] += end - start
        return dict(out)

    def records(self) -> List[Dict[str, Any]]:
        return [{"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "thread": thread}
                for span_id, name, start, end, parent, thread in self.spans]
