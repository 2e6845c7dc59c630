"""Spans and work counters at ncbv layer boundaries, installed from outside.

``install`` replaces each traced function wherever an ncbv module binds
it: every module global that is the function (so ``ncbv.element``'s
imported ``canonicalize_monomial`` is replaced as well as the one in
``ncbv.words``) and, for methods, the class attribute.  No source file
of the library changes.

Every call updates an aggregate keyed by (parent boundary, boundary):
calls, total time and self time, where self time is the call's duration
minus the time covered by traced calls beneath it on the same thread.
Boundaries hit hundreds of thousands of times per run stop there; the
others also keep one span per call (id, parent id, item id, name,
start, end, thread) in memory until ``write_spans``.

Work done in Monte Carlo worker threads is traced on a stack of its own;
such spans name the item span as their parent, and their time is not
subtracted from the item, since they run concurrently with it.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("name", "stack", "stats", "spans", "counters")

    def __init__(self, name):
        self.name = name
        self.stack = []
        self.stats = {}
        self.spans = []
        self.counters = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.item = 0  # id of the item span in progress; read by worker threads

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(self, name, func, store=False, before=None, after=None):
        """``func`` traced as boundary ``name``.

        ``before(counters, args, kwargs)`` and ``after(counters, args,
        kwargs, result)`` update work counters of the calling thread.
        """
        local = self._local
        new_state = self._state
        ids = self._ids
        tracer = self
        clock = perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, name, next(ids) if store else 0]
            if before is not None:
                before(state.counters, args, kwargs)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (parent[1] if parent else None, name)
                row = state.stats.get(key)
                if row is None:
                    row = state.stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if store:
                    parent_id = parent[2] if parent else tracer.item
                    state.spans.append(
                        (frame[2], parent_id, tracer.item, name, start, end, state.name)
                    )
            if after is not None:
                after(state.counters, args, kwargs, result)
            return result

        return traced

    def reset(self):
        """Forget everything recorded so far (the set-up's calls)."""
        for state in self._states:
            state.stats.clear()
            state.spans.clear()
            state.counters.clear()

    def item_span(self, name, func):
        """Run ``func()`` as one item: a stored span whose id its spans share."""
        self.item = next(self._ids)
        state = self._state()
        frame = [0.0, name, self.item]
        state.stack.append(frame)
        start = perf_counter()
        try:
            return func()
        finally:
            end = perf_counter()
            state.stack.pop()
            duration = end - start
            row = state.stats.setdefault((None, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
            state.spans.append((self.item, 0, self.item, name, start, end, state.name))
            self.item = 0

    def summary(self):
        """Per boundary: calls, total and self seconds; plus the counters."""
        boundaries = {}
        counters = {}
        for state in self._states:
            for (_, name), (calls, total, own) in state.stats.items():
                row = boundaries.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += own
            for key, value in state.counters.items():
                counters[key] = counters.get(key, 0) + value
        return {"boundaries": boundaries, "counters": counters}

    def write_spans(self, path):
        """Stored spans, one JSON object a line, then the per-parent aggregates."""
        with open(path, "w") as out:
            for state in self._states:
                for span_id, parent, item, name, start, end, thread in state.spans:
                    out.write(json.dumps({
                        "id": span_id, "parent": parent, "item": item, "name": name,
                        "start": start, "end": end, "thread": thread,
                    }) + "\n")
            for state in self._states:
                for (parent, name), (calls, total, own) in state.stats.items():
                    out.write(json.dumps({
                        "aggregate": name, "parent": parent, "thread": state.name,
                        "calls": calls, "total_s": total, "self_s": own,
                    }) + "\n")


def _count_zero(counters, args, kwargs, result):
    if result is None:
        counters["words.canonicalize_cyclic.zero"] = (
            counters.get("words.canonicalize_cyclic.zero", 0) + 1
        )


def _count_state(counters, args, kwargs):
    reducer, state = args
    counters["reduction.lookups"] = counters.get("reduction.lookups", 0) + 1
    if state not in reducer._cache:
        counters["reduction.states"] = counters.get("reduction.states", 0) + 1


def _count_matchings(counters, args, kwargs, result):
    counters["wick.matchings"] = counters.get("wick.matchings", 0) + sum(result.values())


def _count_matrices(counters, args, kwargs):
    count = kwargs["count"] if "count" in kwargs else args[1]
    counters["sampling.matrices"] = counters.get("sampling.matrices", 0) + count


# (boundary name, module, attribute, store spans, before hook, after hook).
# Boundaries with hundreds of thousands of calls per run have store=False.
TARGETS = [
    ("words.canonicalize_cyclic", "words", "canonicalize_cyclic", False, None, _count_zero),
    ("words.sort_words", "words", "sort_words", False, None, None),
    ("words.canonicalize_monomial", "words", "canonicalize_monomial", False, None, None),
    ("element.accumulate", "element", "Element._accumulate", False, None, None),
    ("element.add", "element", "Element.__add__", False, None, None),
    ("element.scale", "element", "Element.scale", False, None, None),
    ("element.sym_product", "element", "Element.sym_product", False, None, None),
    ("element.from_terms", "element", "Element.from_terms", False, None, None),
    ("operators.bracket_words", "operators", "bracket_words", False, None, None),
    ("operators.cobracket_word", "operators", "cobracket_word", False, None, None),
    ("operators.ce_delta", "operators", "OperatorContext.ce_delta", False, None, None),
    ("operators.nc_cobracket", "operators", "OperatorContext.nc_cobracket", False, None, None),
    ("operators.nc_bracket", "operators", "OperatorContext.nc_bracket", False, None, None),
    ("operators.com_poisson", "operators", "OperatorContext.com_poisson", False, None, None),
    ("operators.bv_laplacian", "operators", "OperatorContext.bv_laplacian", False, None, None),
    ("operators.delta_K", "operators", "OperatorContext.delta_K", False, None, None),
    ("operators.internal_differential", "operators",
     "OperatorContext.internal_differential", False, None, None),
    ("operators.mc_defect", "operators", "OperatorContext.mc_defect", True, None, None),
    ("nupoly.add", "nupoly", "NuPolynomial.__add__", False, None, None),
    ("nupoly.scale", "nupoly", "NuPolynomial.scale", False, None, None),
    ("nupoly.shift", "nupoly", "NuPolynomial.shift", False, None, None),
    ("reduction.reduce", "reduction", "GueReducer.reduce", True, None, None),
    ("reduction.reduce_state", "reduction", "GueReducer._reduce_state", True,
     _count_state, None),
    ("frobenius.multiply", "frobenius", "FrobeniusAlgebra.multiply", False, None, None),
    ("frobenius.coerce", "frobenius", "FrobeniusAlgebra.coerce", False, None, None),
    ("frobenius.form", "frobenius", "FrobeniusAlgebra.form", False, None, None),
    ("frobenius.trace_form", "frobenius", "FrobeniusAlgebra.trace_form", False, None, None),
    ("frobenius.genus_map", "frobenius", "FrobeniusAlgebra.genus_map", False, None, None),
    ("frobenius.free_boundary", "frobenius", "FrobeniusAlgebra.free_boundary", False,
     None, None),
    ("frobenius.otft_mu", "frobenius", "otft_mu", True, None, None),
    ("frobenius.matrix_frobenius", "frobenius", "matrix_frobenius", True, None, None),
    ("frobenius.truncated_polynomials", "frobenius", "truncated_polynomials", True,
     None, None),
    ("morita.extension", "morita", "MatrixExtension.__init__", True, None, None),
    ("morita.inflate", "morita", "MatrixExtension.inflate", True, None, None),
    ("morita.restrict", "morita", "MatrixExtension.restrict", True, None, None),
    ("morita.sigma", "morita", "sigma", True, None, None),
    ("morita.sigma_K", "morita", "sigma_K", True, None, None),
    ("space.hyperbolic_space", "space", "hyperbolic_space", True, None, None),
    ("space.init", "space", "GradedSymplecticSpace.__post_init__", True, None, None),
    ("ainfinity.encode_ainfinity", "ainfinity", "encode_ainfinity", True, None, None),
    ("ainfinity.encode_commutator_linfinity", "ainfinity", "encode_commutator_linfinity",
     True, None, None),
    ("ainfinity.matrix_ainfinity", "ainfinity", "matrix_ainfinity", True, None, None),
    ("ainfinity.suspend_matrix", "ainfinity", "suspend_matrix", True, None, None),
    ("ainfinity.letter_differential", "ainfinity", "letter_differential", True, None, None),
    ("algebras.sigma_a_space", "algebras", "sigma_a_space", True, None, None),
    ("algebras.sigma_a_context", "algebras", "sigma_a_context", True, None, None),
    ("harer_zagier.closed", "harer_zagier", "harer_zagier_closed", True, None, None),
    ("harer_zagier.single_trace_polynomials", "harer_zagier", "single_trace_polynomials",
     True, None, None),
    ("harer_zagier.hz_recurrence_check", "harer_zagier", "hz_recurrence_check", True,
     None, None),
    ("harer_zagier.hz_closed_form_check", "harer_zagier", "hz_closed_form_check", True,
     None, None),
    ("harer_zagier.catalan_leading_check", "harer_zagier", "catalan_leading_check", True,
     None, None),
    ("harer_zagier.multitrace_sum_check", "harer_zagier", "multitrace_sum_check", True,
     None, None),
    ("harer_zagier.all_ones_check", "harer_zagier", "all_ones_check", True, None, None),
    ("wick.oracle", "wick", "wick_oracle", True, None, None),
    ("wick.cycle_counts", "wick", "cycle_counts_by_matching", True, None, _count_matchings),
    ("sampling.monte_carlo_moment", "sampling", "monte_carlo_moment", True, None, None),
    ("sampling.chunk_sums", "sampling", "_chunk_sums", True, None, None),
    ("sampling.sample_gue_batch", "sampling", "sample_gue_batch", True, _count_matrices, None),
]


class _View:
    """Attribute view of a module with some names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer):
    """Route every TARGETS boundary, and numpy's eigvalsh as called by
    ``ncbv.sampling``, through ``tracer``."""
    for _, module, _, _, _, _ in TARGETS:
        importlib.import_module("ncbv." + module)
    modules = [m for name, m in sys.modules.items() if name == "ncbv" or name.startswith("ncbv.")]
    for name, module, attr, store, before, after in TARGETS:
        owner = sys.modules["ncbv." + module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                traced = tracer.wrap(name, raw.__func__, store, before, after)
                setattr(cls, method, classmethod(traced))
            else:
                setattr(cls, method, tracer.wrap(name, raw, store, before, after))
            continue
        func = getattr(owner, attr)
        traced = tracer.wrap(name, func, store, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, traced)
    sampling = sys.modules["ncbv.sampling"]
    np = sampling.np
    eigvalsh = tracer.wrap("sampling.eigvalsh", np.linalg.eigvalsh, store=True)
    sampling.np = _View(np, linalg=_View(np.linalg, eigvalsh=eigvalsh))
