"""Per-layer spans and counters, installed from outside the package.

install() wraps public layer functions and methods of knapsolve in
place.  A function is rebound in every knapsolve module that holds it,
because gp_solver and hnn import names such as nf_R with
``from .trace import ...`` and a wrapper on the defining module alone
would miss those calls.  The six module-level caches are swapped for
dicts that count lookups.  Nothing in the package itself is edited.

Each wrapped call records a span (id, layer, start, end, parent id,
instance index) and adds its duration to the layer's total and its
duration minus its child spans to the layer's self time.
"""

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: layer -> (module, attribute); an attribute "Class.method" is a method
LAYERS = {
    "gp_solver.search": ("gp_solver", "ReductionSearch.run"),
    "hnn.search": ("hnn", "HnnReductionSearch.run"),
    "semilinear.dioph": ("semilinear", "solve_dioph_nonneg"),
    "semilinear.intersect": ("semilinear", "SemilinearSet.intersect"),
    "semilinear.membership": ("semilinear", "SemilinearSet.membership"),
    "trace.canon": ("trace", "TraceMonoid.canon"),
    "trace.nf_R": ("trace", "nf_R"),
    "trace.power_presentation": ("trace", "power_presentation"),
    "trace.alpha": ("trace", "TraceMonoid.alpha"),
    "hnn.britton_reduce": ("hnn", "britton_reduce"),
    "hnn.two_dim": ("hnn", "two_dim_hnn_solve"),
    "gp_solver.two_dim": ("gp_solver", "two_dim_trace_solve"),
    "unary_automata.word_pair": ("unary_automata", "word_pair_power_solutions"),
    "unary_automata.length_set": ("unary_automata", "unary_length_set"),
    "expr.knapsackify": ("expr", "knapsackify"),
    "groups.build_backend": ("groups", "build_backend"),
    "groups.word_problem": ("groups", ("IntegerGroup.word_problem",
                                       "FiniteGroup.word_problem")),
    "gp_solver.word_problem": ("gp_solver", "GraphProductBackend.word_problem"),
    "hnn.word_problem": ("hnn", ("HnnBackend.word_problem",
                                 "AmalgamBackend.word_problem")),
    "finite_ext.word_problem": ("finite_ext", "FiniteExtBackend.word_problem"),
}

#: layers whose states and outcomes count_searches adds up
SEARCH_LAYERS = ("gp_solver.search", "hnn.search")

#: cache name -> (module, global name)
CACHES = {
    "gp_solver.factorization_cache": ("gp_solver", "_FACTORIZATION_CACHE"),
    "gp_solver.grid_cache": ("gp_solver", "_GRID_CACHE"),
    "gp_solver.two_dim_cache": ("gp_solver", "_TWO_DIM_CACHE"),
    "gp_solver.concrete_power_cache": ("gp_solver", "_CONCRETE_POWER_CACHE"),
    "gp_solver.component_cache": ("gp_solver", "_COMPONENT_CACHE"),
    "hnn.two_dim_cache": ("hnn", "_HNN_TWO_DIM_CACHE"),
}

#: spans kept in memory for the spans file; counters cover every call
SPAN_LIMIT = 100_000


def _module(name):
    return importlib.import_module(f"knapsolve.{name}")


def _rebind_everywhere(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "knapsolve" and not mod_name.startswith("knapsolve."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class CountingDict(dict):
    """A cache dict that counts lookups made while its tracer records."""

    def __init__(self, tracer, name, contents):
        super().__init__(contents)
        self._tracer = tracer
        self._name = name

    def _count(self, key):
        found = dict.__contains__(self, key)
        if self._tracer.recording:
            self._tracer.counts[f"{self._name}.hits" if found
                                else f"{self._name}.misses"] += 1
        return found

    def get(self, key, default=None):
        self._count(key)
        return dict.get(self, key, default)

    def __contains__(self, key):
        return self._count(key)


class Tracer:
    """Spans and counters of the wrapped layers.

    recording switches collection on and off: a run records its set-up
    and its timed loop, not the preparation of inputs or the oracle gate.
    """

    def __init__(self):
        self.recording = False
        self.instance = -1
        self.stack = []
        self.spans = []
        self.next_id = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.caches = {}

    def start_instance(self, index):
        self.instance = index
        self.stack.clear()

    def end_instance(self):
        # a timeout can land between a push and its try block
        self.stack.clear()

    def _wrap(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            start = perf_counter()
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                elapsed = end - start
                tracer.calls[layer] += 1
                tracer.total[layer] += elapsed
                tracer.self_time[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((
                        span_id, layer, start, end,
                        parent[0] if parent is not None else None,
                        tracer.instance,
                    ))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self):
        for layer, (mod_name, attrs) in LAYERS.items():
            mod = _module(mod_name)
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                else:
                    original = getattr(mod, attr)
                    _rebind_everywhere(original, self._wrap(layer, original))
        for name, (mod_name, attr) in CACHES.items():
            mod = _module(mod_name)
            counting = CountingDict(self, name, getattr(mod, attr))
            setattr(mod, attr, counting)
            self.caches[name] = counting

    def layer_metrics(self, search_counts):
        """name -> value for every layer and cache.

        search_counts holds the states and outcomes that count_searches
        added up over the timed loop.
        """
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.total_s"] = self.total[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        for layer in SEARCH_LAYERS:
            states = search_counts[f"{layer}.states"]
            outcomes = search_counts[f"{layer}.outcomes"]
            out[f"{layer}.states"] = states
            out[f"{layer}.outcomes"] = outcomes
            out[f"{layer}.yield"] = outcomes / states if states else 0.0
        for name, cache in self.caches.items():
            hits = self.counts[f"{name}.hits"]
            lookups = hits + self.counts[f"{name}.misses"]
            out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{name}.size"] = len(cache)
        return out


def count_searches(sink):
    """Add every reduction search's states and outcomes to sink.

    sink["<layer>.states"] and sink["<layer>.outcomes"] grow by the final
    counts of the search object, read in a finally block, so they are
    kept when BudgetExceededError or a timeout ends the search;
    diagnostics["states"] is only filled after a search returns.
    """
    for layer in SEARCH_LAYERS:
        mod_name, attr = LAYERS[layer]
        cls_name, meth = attr.split(".")
        cls = getattr(_module(mod_name), cls_name)
        original = getattr(cls, meth)

        def run(self, items, _original=original, _layer=layer):
            try:
                return _original(self, items)
            finally:
                sink[f"{_layer}.states"] += self.states
                sink[f"{_layer}.outcomes"] += len(self.results)

        setattr(cls, meth, run)
