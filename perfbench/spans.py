"""In-memory spans and counters recorded from outside the program.

``Tracer.patched()`` replaces public refsel functions, at the name their
caller looks up, with wrappers that count calls and, when timing is on,
record a span (name, start, end, parent, thread). Nothing in ``src/`` is
edited; everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import Counter, defaultdict

import refsel.classifiers
import refsel.cli
import refsel.ensemble
import refsel.evaluate
import refsel.nn

LR_ITERATIONS = "classifiers.logistic_regression_iterations"

# Counted in every in-process pass; all passes must agree exactly.
EXACT_COUNTS = (
    "nn.adam_step",
    LR_ITERATIONS,
    "metrics.auroc",
    "sampling.build_component_split",
)


def _layer_products(model) -> int:
    """Sum of in*out over the dense layers, i.e. multiply-adds per row."""
    return sum(w.size for w in model.weights)


class Tracer:
    def __init__(self, timing: bool):
        self.timing = timing
        self.counts = Counter()
        self.values = defaultdict(list)
        self.spans = []  # [name, start, end, parent index, thread id]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def observe(self, key, value):
        with self._lock:
            self.values[key].append(value)

    def wrap(self, name, fn, after=None, span=True):
        """Count calls to ``fn``; with timing on, record a span and call ``after``.

        A span opened by a pool worker with nothing open on its own thread
        takes the main thread's innermost open span as parent, so component
        work is charged to the ``run_ensemble`` call that fanned it out.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            if not (tracer.timing and span):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                parents = stack or tracer._main_stack
                record = [name, 0.0, None, parents[-1] if parents else None,
                          threading.get_ident()]
                tracer.spans.append(record)
                stack.append(len(tracer.spans) - 1)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                with tracer._lock:
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, after, span, inner in self._patch_table():
                saved.append((owner, attr, vars(owner)[attr]))
                fn = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, inner(fn) if inner else fn, after, span))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patch_table(self):
        cli, ens, nn, ev, clf = (refsel.cli, refsel.ensemble, refsel.nn,
                                 refsel.evaluate, refsel.classifiers)
        observe, counts = self.observe, self.counts

        def forward(args, result):
            observe("nn.flop", 2 * len(args[1]) * _layer_products(args[0]))

        def backward(args, result):
            model = args[0]
            # grad_w for every layer plus grad_a for all but the first layer.
            first = model.weights[0].size
            observe("nn.flop", 2 * len(args[1]) * (2 * _layer_products(model) - first))

        def adam(args, result):
            model = args[0]
            n = sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
            # Read param, grad, m, v; write param, m, v: 7 float64 per parameter.
            observe("nn.adam_bytes", 7 * 8 * n)

        def train(args, result):
            observe("nn.final_loss", result[1][-1])

        def load_csv(args, result):
            observe("data.load_csv_bytes", os.path.getsize(args[0]))

        def export_q(args, result):
            observe("data.export_q_csv_bytes", os.path.getsize(args[1]))

        def run_ensemble(args, result):
            observe("ensemble.args", args)
            observe("ensemble.q_bytes", result.Q.nbytes)

        def count_converged(fit):
            # Evaluation is single-threaded, so the iteration count read
            # around one fit belongs to that fit alone.
            def fit_and_count(model, *args, **kwargs):
                before = counts[LR_ITERATIONS]
                result = fit(model, *args, **kwargs)
                if counts[LR_ITERATIONS] - before < model.max_iter:
                    observe("classifiers.lr_converged", 1)
                return result
            return fit_and_count

        def entry(owner, attr, name, after=None, span=True, inner=None):
            return owner, attr, name, after, span, inner

        return [
            entry(cli, "main", "cli.main"),
            entry(cli, "load_run_config", "config.load_run_config"),
            entry(cli, "load_csv", "data.load_csv", load_csv),
            entry(cli, "save_csv", "data.save_csv"),
            entry(cli, "fit_scaling", "data.scaling"),
            entry(cli, "apply_scaling", "data.scaling"),
            entry(cli, "build_fsds_cds", "data.build_fsds_cds"),
            entry(cli, "export_q_csv", "data.export_q_csv", export_q),
            entry(cli, "run_ensemble", "ensemble.run_ensemble", run_ensemble),
            entry(cli, "select_at_thresholds", "ensemble.select_at_thresholds"),
            entry(cli, "evaluate_selection", "evaluate.evaluate_selection"),
            entry(ens, "build_component_split", "sampling.build_component_split"),
            entry(ens, "train", "nn.train", train),
            entry(ens, "reconstruction_errors", "nn.reconstruction_errors"),
            entry(nn.DsaeModel, "from_config", "nn.from_config"),
            entry(nn, "forward", "nn.forward", forward),
            entry(nn, "backward", "nn.backward", backward),
            entry(nn, "adam_step", "nn.adam_step", adam),
            entry(ev, "stratified_split", "evaluate.stratified_split"),
            entry(ev, "auroc", "metrics.auroc"),
            entry(ev, "sensitivity", "metrics.sensitivity"),
            entry(clf.GaussianNB, "fit", "classifiers.gaussian_nb"),
            entry(clf.GaussianNB, "predict_scores", "classifiers.gaussian_nb"),
            entry(clf.KNeighbors, "predict_scores", "classifiers.knn_predict"),
            entry(clf.LogisticRegression, "fit", "classifiers.logistic_regression_fit",
                  inner=count_converged),
            # Once per gradient-descent iteration: counted, never timed.
            entry(clf, "logistic_loss_grad", LR_ITERATIONS, span=False),
        ]

    def inclusive_seconds(self, name) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_seconds(self, name) -> float:
        """Duration of every ``name`` span minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total = 0.0
        for index, (n, start, end, _, _) in enumerate(self.spans):
            if n != name:
                continue
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children[index]):
                lo, hi = max(child_start, reach), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            total += end - start - covered
        return total
