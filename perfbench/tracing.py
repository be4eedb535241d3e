"""Span recorders wrapped around the public functions of each itoflow layer.

Nothing inside the library is instrumented.  ``Tracer.install`` rebinds
every name under which a layer function is reachable (in the module that
defines it and in every module that imported it) to a recorder, and
``Tracer.uninstall`` puts the original objects back.  A span's self time
is its duration minus the time covered by the spans it called; the work
counts are derived from the operands and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import prod

import itoflow
from itoflow.surjections import SurjElement
from itoflow.words import Expansion, as_word

# Attribute set on every recorder, so a stray one can be found.
MARK = "_perfbench_span"

# (defining module, function names, span name; None means "<module>.<name>").
FUNCTIONS = [
    ("quasishuffle", ["qsh", "qsh_via_surjections"], None),
    ("surjections", ["diamond", "apply_element"], None),
    (
        "logseries",
        [
            "identity_series",
            "log_identity_series",
            "log_identity_closed_form",
            "log_identity_subset_form",
            "exp_element",
            "strichartz_restriction",
            "subset_alternating_sum",
        ],
        "logseries",
    ),
    ("matrixseries", ["matrix_exp", "matrix_log"], None),
    (
        "flows",
        ["compare_flows", "flow_reference", "truncated_expm", "brownian_increments"],
        None,
    ),
    ("paths", ["simulate_bundle"], None),
]

# Every function the kernel dispatch module exports, whichever backend it is.
KERNELS = [
    "pack_word",
    "is_surjection",
    "descent_count",
    "descent_set",
    "surjections",
    "qsh_words",
    "apply_to_blocks",
    "diamond_words",
]

# (defining module, class, method names, span name).
METHODS = [
    ("matrixseries", "MatrixExpansion", ["matmul"], "matrixseries.matmul"),
    ("evaluate", "Evaluator", ["word_path"], "evaluate.word_path"),
    ("evaluate", "Evaluator", ["word_terminal"], "evaluate.word_terminal"),
    ("evaluate", "Evaluator", ["__call__"], "evaluate.call"),
    (
        "words",
        "Expansion",
        ["__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"],
        "words.expansion",
    ),
]


def _modules():
    names = sorted(n for n in sys.modules if n == "itoflow" or n.startswith("itoflow."))
    return [sys.modules[n] for n in names]


def _targets():
    """Yield (span name, original object, [(owner, attribute), ...])."""
    modules = _modules()
    originals = []
    for mod, names, span in FUNCTIONS:
        defining = sys.modules[f"itoflow.{mod}"]
        for name in names:
            originals.append((span or f"{mod}.{name}", getattr(defining, name)))
    for name in KERNELS:
        originals.append((f"kernels.{name}", getattr(itoflow.kernels, name)))
    for span, fn in originals:
        sites = [
            (m, attr)
            for m in modules
            for attr, value in vars(m).items()
            if value is fn
        ]
        yield span, fn, sites
    for mod, cls_name, methods, span in METHODS:
        cls = getattr(sys.modules[f"itoflow.{mod}"], cls_name)
        for name in methods:
            yield span, vars(cls)[name], [(cls, name)]


def installed_spans() -> list[str]:
    """Names still bound to a recorder anywhere in the library."""
    owners = _modules()
    for mod, cls_name, _, _ in METHODS:
        owners.append(getattr(sys.modules[f"itoflow.{mod}"], cls_name))
    return sorted(
        f"{getattr(o, '__name__', o)}.{attr}"
        for o in owners
        for attr, value in vars(o).items()
        if hasattr(value, MARK)
    )


def _weights(x) -> list[int]:
    if isinstance(x, Expansion):
        return [w.weight for w in x.words()]
    return [as_word(x).weight]


def _grades(x) -> list[int]:
    if isinstance(x, SurjElement):
        return [len(f) for f in x.support()]
    return [len(x)]


def _pairs(left, right, limit):
    """(pairs tried, pairs whose summed size is within limit)."""
    tried = len(left) * len(right)
    if limit is None:
        return tried, tried
    lc, rc = Counter(left), Counter(right)
    return tried, sum(n * m for a, n in lc.items() for b, m in rc.items() if a + b <= limit)


class Tracer:
    """Per-span call counts and self times, plus layer work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.prefixes: set = set()
        self._stack: list[float] = []  # child time accumulated per open span
        self._bound: list[tuple] = []  # (owner, attribute, original)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        """Recorder for fn; before/after hooks run outside every span's time."""
        stats = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # hook time is tracing cost: it is charged to no span, the
            # caller's included
            t_hook = clock()
            state = before(args, kwargs) if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stats[0] += 1
                stats[1] += (t1 - t0) - stack.pop()
                if stack:
                    stack[-1] += t1 - t_hook
            if after:
                after(args, kwargs, result, state)
                if stack:
                    stack[-1] += clock() - t1
            return result

        setattr(span, MARK, name)
        return span

    # -- layer counters -----------------------------------------------------

    def _hooks(self, span):
        if span == "quasishuffle.qsh":

            def before(args, kwargs):
                if len(args) == 2:  # no workload folds three or more operands
                    tried, kept = _pairs(
                        _weights(args[0]), _weights(args[1]), kwargs.get("max_weight")
                    )
                    self.count("qsh.pairs_tried", tried)
                    self.count("qsh.pairs_kept", kept)

            def after(args, kwargs, result, state):
                self.count("qsh.terms_out", len(result))

            return before, after
        if span == "surjections.diamond":

            def before(args, kwargs):
                limit = kwargs.get("max_grade", args[2] if len(args) > 2 else None)
                tried, kept = _pairs(_grades(args[0]), _grades(args[1]), limit)
                self.count("diamond.pairs_tried", tried)
                self.count("diamond.pairs_kept", kept)

            def after(args, kwargs, result, state):
                self.count("diamond.terms_out", len(result))

            return before, after
        if span == "evaluate.word_path":

            def before(args, kwargs):
                ev, w = args[0], as_word(args[1])
                batch, cells = prod(ev.shape[:-1]), ev.shape[-1]
                # arrays word_path allocates: the ones start, then per block
                # the block increment (one array per letter), the left-point
                # product and the zero-led cumulative sum
                floats = batch * (cells + 1) + sum(
                    len(b) * batch * cells + batch * cells + batch * (cells + 1)
                    for b in w
                )
                self.count("word_path.blocks", len(w))
                self.count("word_path.bytes_computed", 8 * floats)
                self.prefixes.update(w[:i] for i in range(1, len(w)))

            return before, None
        if span == "evaluate.word_terminal":
            paths = self.spans.setdefault("evaluate.word_path", [0, 0.0])

            def before(args, kwargs):
                return paths[0]

            def after(args, kwargs, result, calls_before):
                self.count("word_terminal.hits", paths[0] == calls_before)

            return before, after
        return None, None

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._bound or installed_spans():
            raise RuntimeError("span recorders are already installed")
        for span, fn, sites in _targets():
            before, after = self._hooks(span)
            recorder = self.wrap(span, fn, before, after)
            for owner, attr in sites:
                self._bound.append((owner, attr, fn))
                setattr(owner, attr, recorder)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._bound):
            setattr(owner, attr, fn)
        wrong = [a for o, a, fn in self._bound if getattr(o, a) is not fn]
        self._bound.clear()
        left = installed_spans()
        if wrong or left:
            raise RuntimeError(f"names not restored: {wrong + left}")

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        span = lambda name: self.spans.get(name, [0, 0.0])  # noqa: E731
        c = lambda name: self.counts.get(name, 0)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        out: dict[str, tuple[float, str]] = {}

        def calls_self(name, calls=True):
            n, s = span(name)
            if calls:
                out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_s"] = (s, "s")

        calls_self("quasishuffle.qsh")
        for key in ("pairs_tried", "pairs_kept", "terms_out"):
            out[f"quasishuffle.qsh.{key}"] = (c(f"qsh.{key}"), "count")
        out["quasishuffle.qsh.keep_ratio"] = (
            ratio(c("qsh.pairs_kept"), c("qsh.pairs_tried")),
            "ratio",
        )
        for name in ("matrix_exp", "matrix_log", "matmul"):
            calls_self(f"matrixseries.{name}")
        calls_self("surjections.diamond")
        for key in ("pairs_tried", "pairs_kept", "terms_out"):
            out[f"surjections.diamond.{key}"] = (c(f"diamond.{key}"), "count")
        calls_self("surjections.apply_element")
        calls_self("logseries", calls=False)
        for name in ("qsh_words", "diamond_words", "apply_to_blocks"):
            calls_self(f"kernels.{name}", calls=False)
        kernels = [span(f"kernels.{name}") for name in KERNELS]
        out["kernels.calls"] = (sum(n for n, _ in kernels), "count")
        out["kernels.self_s"] = (sum(s for _, s in kernels), "s")
        calls_self("words.expansion")
        calls_self("quasishuffle.qsh_via_surjections")
        calls_self("evaluate.word_path")
        out["evaluate.word_path.blocks"] = (c("word_path.blocks"), "count")
        out["evaluate.word_path.distinct_prefixes"] = (len(self.prefixes), "count")
        out["evaluate.word_path.bytes_computed"] = (
            c("word_path.bytes_computed"),
            "bytes",
        )
        n_terminal = span("evaluate.word_terminal")[0]
        out["evaluate.word_terminal.calls"] = (n_terminal, "count")
        out["evaluate.word_terminal.hit_ratio"] = (
            ratio(c("word_terminal.hits"), n_terminal),
            "ratio",
        )
        calls_self("evaluate.call")
        for name in ("compare_flows", "flow_reference", "truncated_expm", "brownian_increments"):
            calls_self(f"flows.{name}")
        calls_self("paths.simulate_bundle", calls=False)
        return out

    def self_sum(self) -> float:
        """Self time of every span, listed in the metrics or not."""
        return sum(s for _, s in self.spans.values())
