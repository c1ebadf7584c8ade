"""Layer spans and counters, recorded from outside the package.

Wrappers replace public functions at the name where the caller looks them
up (modules use ``from .x import f``, so ``pdvox.ensemble.fit_cart`` is the
name the ensembles call). Each call records a span ``[name, start, end,
parent, op, draws, draw_s]`` in memory; counts come from the objects the
calls return. RNG draws are counted and timed by a proxy that the wrapped
``stream`` returns to ``ensemble``, ``resample`` and ``dataset``; their
time is charged to the span that made them, like a child span.

A span's self time is its duration minus its children's durations and
its draw time. Span names are the per-layer metric names they feed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

_now = time.perf_counter

GBDT_NAMES = {"leaf-wise": "lightgbm-like", "level-wise": "xgboost-like"}


def _gbdt_span(args, kwargs) -> str:
    params = args[1] if len(args) > 1 else kwargs["params"]
    return "ensemble.fit_s." + GBDT_NAMES[params.variant]


def _count_tree(c, args, kwargs, tree):
    c["tree.nodes"] += tree.n_nodes
    c["tree.internal_nodes"] += int((tree.feature >= 0).sum())


def _count_bins(c, args, kwargs, bins):
    c["tree.bins"] += int(bins.n_bins.sum())


def _count_gbdt(c, args, kwargs, model):
    c["ensemble.gbdt_rounds"] += len(model.trees)


def _count_adaboost(c, args, kwargs, model):
    c["ensemble.adaboost_stumps"] += len(model.stumps)


def _count_svm(c, args, kwargs, model):
    c["svm.sweeps"] += model.sweeps
    c["svm.smo_steps"] += len(model.objective_trace) - 1  # one entry per accepted step
    c["svm.support_vectors"] += model.support_vectors.shape[0]
    c["svm.unconverged"] += not model.converged


def _count_smote(c, args, kwargs, out):
    c["resample.synth_rows"] += out.n_records - args[0].n_records


#: (module, attribute, span name, counter). Order is irrelevant.
LAYERS = (
    ("experiment", "run_experiment", "experiment.self_s", None),
    ("experiment", "emit_comparison", "experiment.report_s", None),
    ("experiment", "load_dataset", "dataset.load_s", None),
    ("experiment", "stratified_split", "dataset.split_s", None),
    ("experiment", "smote", "resample.smote_s", _count_smote),
    ("experiment", "fit_gbdt", _gbdt_span, _count_gbdt),
    ("experiment", "fit_adaboost", "ensemble.fit_s.adaboost", _count_adaboost),
    ("experiment", "fit_bagging", "ensemble.fit_s.bagging", None),
    ("experiment", "ensemble_scores", "ensemble.score_s", None),
    ("experiment", "fit_svm", "svm.fit_s", _count_svm),
    ("experiment", "decision_scores", "svm.score_s", None),
    ("experiment", "confusion", "metrics.confusion_s", None),
    ("experiment", "roc_auc", "metrics.roc_auc_s", None),
    ("ensemble", "fit_cart", "tree.fit_cart_s", _count_tree),
    ("ensemble", "build_bins", "tree.build_bins_s", _count_bins),
    ("ensemble", "predict_many", "tree.predict_many_s", None),
)

#: Modules whose ``stream`` lookups get the counting proxy.
RNG_CALLERS = ("ensemble", "resample", "dataset")

#: Span names whose call counts are reported as ``<prefix>_calls``.
CALL_COUNTS = {"tree.fit_cart_s": "tree.fit_cart_calls", "tree.predict_many_s": "tree.predict_many_calls"}

ROOT_SPAN = "op"


class CountingStream:
    """Proxy for a ``pdvox.rng`` generator that counts and times draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def below(self, n):
        t0 = _now()
        out = self._gen.below(n)
        self._tracer.draw(1, _now() - t0)
        return out

    def random(self):
        t0 = _now()
        out = self._gen.random()
        self._tracer.draw(1, _now() - t0)
        return out

    def next_u64(self):
        t0 = _now()
        out = self._gen.next_u64()
        self._tracer.draw(1, _now() - t0)
        return out

    def shuffle(self, items):
        t0 = _now()
        self._gen.shuffle(items)
        self._tracer.draw(max(len(items) - 1, 0), _now() - t0)

    def __getattr__(self, name):  # methods added later pass through uncounted
        return getattr(self._gen, name)


class Tracer:
    """In-memory spans and per-op counters; install() around traced ops only."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _now()
        return span

    def _close(self, span: list) -> None:
        span[2] = _now()
        self._stack.pop()

    def draw(self, n: int, seconds: float) -> None:
        span = self.spans[self._stack[-1]]
        span[5] += n
        span[6] += seconds

    def _wrap(self, real, name, counter):
        tracer = self

        @functools.wraps(real)
        def traced(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = real(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                counter(tracer.counts[tracer._op], args, kwargs, out)
            return out

        return traced

    def _wrap_stream(self, real):
        tracer = self

        @functools.wraps(real)
        def counting_stream(*args, **kwargs):
            return CountingStream(real(*args, **kwargs), tracer)

        return counting_stream

    def install(self) -> None:
        for mod_name, attr, name, counter in LAYERS:
            self._replace(mod_name, attr, lambda real: self._wrap(real, name, counter))
        for mod_name in RNG_CALLERS:
            self._replace(mod_name, "stream", self._wrap_stream)

    def _replace(self, mod_name, attr, make) -> None:
        module = importlib.import_module(f"pdvox.{mod_name}")
        real = getattr(module, attr)
        self._saved.append((module, attr, real))
        setattr(module, attr, make(real))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, real = self._saved.pop()
            setattr(module, attr, real)

    def begin_op(self, op: int) -> None:
        self._op = op
        self.counts[op] = defaultdict(int)
        self._open(ROOT_SPAN)

    def end_op(self) -> None:
        self._close(self.spans[self._stack[-1]])

    # -- derived metrics ------------------------------------------------
    def op_metrics(self, op: int) -> dict[str, float]:
        """Self time per layer plus counts for one traced op."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == op]
        child = defaultdict(float)
        for i in ids:
            name, start, end, parent = self.spans[i][:4]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in ids:
            name, start, end, _, _, draws, draw_s = self.spans[i]
            out["rng.draws"] += draws
            out["rng.draw_s"] += draw_s
            if name == ROOT_SPAN:
                continue
            out[name] += end - start - child[i] - draw_s
            if name in CALL_COUNTS:
                out[CALL_COUNTS[name]] += 1
        out.update(self.counts[op])
        nodes = out["tree.nodes"]
        out["tree.split_yield"] = out["tree.internal_nodes"] / nodes if nodes else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op, draws, draw_s) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "parent": parent, "op": op, "name": name, "start": start,
                         "end": end, "draws": draws, "draw_s": draw_s}
                    )
                    + "\n"
                )


def layer_summary(per_op: list[dict], names_units: dict[str, str]) -> dict[str, float]:
    """Per-layer report: times are medians over ops, counts are the first op's.

    The first traced op runs the run's own seed, so counts repeat exactly
    for a given seed (``tree.nodes`` is 6,490 at compare-195, seed 42).
    """
    out = {}
    for name, unit in names_units.items():
        values = [m.get(name, 0.0) for m in per_op]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0] if unit == "ratio" else int(values[0])
    return out
