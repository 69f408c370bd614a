"""Outside-in layer tracing for the gemkit benchmark.

Spans come from wrappers installed over gemkit's public functions; no
gemkit source file knows about them.  Modules import names directly
(``from .graph import residues``), so each wrapper replaces the function in
every gemkit module that binds it, in every function default that holds it
(``enumerate_census(classifier=classify)``), and in module-level dicts.
``assert_covered`` then proves that no original is still reachable, so an
import refactor that would silently drop spans fails loudly instead.

Spans are aggregated as they close, per function: call count and self
time, where self time is the span's duration minus the time covered by its
child spans.  In one thread child spans nest strictly inside their parent,
so the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) pairs; "Class.method" patches the class itself.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("formats", "parse_cgf"),
    ("formats", "write_cgf"),
    ("graph", "residues"),
    ("graph", "genus_of_residue"),
    ("graph", "has_property_P"),
    ("graph", "kappa_r"),
    ("graph", "is_connected"),
    ("graph", "residue_subgraph"),
    ("graph", "colour_deleted_components"),
    ("graph", "ColourfulGraph.cycles_of_pair"),
    ("graph", "ColourfulGraph.__init__"),
    ("dipoles", "melonic_reduce"),
    ("dipoles", "find_dipoles"),
    ("dipoles", "remove_dipole"),
    ("homology", "order_complex"),
    ("homology", "betti_numbers"),
    ("verdicts", "is_sphere"),
    ("verdicts", "is_manifold"),
    ("verdicts", "is_rational_homology_sphere"),
    ("verdicts", "euler_poincare_check"),
    ("verdicts", "lemma1_witness"),
    ("census", "classify"),
    ("census", "enumerate_census"),
    ("census", "verify_lemma_bounds"),
    ("census", "verify_extension_bound"),
    ("constructions", "build_manifold"),
    ("constructions", "random_construction_params"),
    ("constructions", "random_graph"),
    ("cli", "run"),
)

# Counts read from returned values, named as metrics.
COUNTERS = (
    "homology.cells",
    "dipoles.reductions",
    "dipoles.reached",
    "dipoles.moves_applied",
    "census.extensions_tried",
    "census.planar_extensions",
    "verdicts.issued",
    "verdicts.unknown",
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix: graph.ColourfulGraph for the constructor, else module.function."""
    if attr == "ColourfulGraph.__init__":
        return f"{module}.ColourfulGraph"
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Per-name call counts and self times, aggregated as spans close."""

    def __init__(self, names, clock: Callable[[], float] = time.perf_counter):
        self.names = tuple(names)
        self.clock = clock
        self.enabled = True
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: Dict[str, int] = {c: 0 for c in COUNTERS}
        # open spans: [start, time covered by closed children]
        self._stack: List[List[float]] = []

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        idx = self.names.index(name)
        stack, clock, calls, self_s = self._stack, self.clock, self.calls, self.self_s
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark itself spent out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def snapshot(self) -> Tuple[List[int], List[float], Dict[str, int]]:
        return list(self.calls), list(self.self_s), dict(self.counts)

    def reset(self) -> None:
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        for c in self.counts:
            self.counts[c] = 0


def _observe_order_complex(counts, K):
    counts["homology.cells"] += sum(K.f_counts())


def _observe_reduction(counts, trace):
    counts["dipoles.reductions"] += 1
    counts["dipoles.reached"] += trace.reached_dipole is True
    counts["dipoles.moves_applied"] += len(trace.moves)


def _observe_extension(counts, report):
    counts["census.extensions_tried"] += report.extensions_tried
    counts["census.planar_extensions"] += report.planar_extensions


def _observe_verdict(counts, verdict):
    counts["verdicts.issued"] += 1
    counts["verdicts.unknown"] += verdict.status.value == "Unknown"


OBSERVERS = {
    ("homology", "order_complex"): _observe_order_complex,
    ("dipoles", "melonic_reduce"): _observe_reduction,
    ("census", "verify_extension_bound"): _observe_extension,
    ("verdicts", "is_sphere"): _observe_verdict,
    ("verdicts", "is_manifold"): _observe_verdict,
}


def gemkit_modules() -> List[types.ModuleType]:
    """The gemkit package and every submodule, imported."""
    pkg = importlib.import_module("gemkit")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"gemkit.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "gemkit" or name.startswith("gemkit.")]


def _functions_of(mod: types.ModuleType):
    """Functions defined in a module, including methods of its classes."""
    for value in list(vars(mod).values()):
        value = getattr(value, "__wrapped__", value)
        if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
            yield value
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            for member in vars(value).values():
                if isinstance(member, types.FunctionType):
                    yield member


class Installation:
    """Wrappers installed over gemkit; ``uninstall`` puts every binding back."""

    def __init__(self):
        self.originals: Dict[int, Callable] = {}
        self._undo: List[Callable[[], None]] = []

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installation:
    """Wrap every target and rebind it wherever gemkit holds the original."""
    modules = gemkit_modules()
    inst = Installation()
    # keyed by id(original); inst.originals keeps each original alive, so
    # an id found here can only belong to that original
    swap: Dict[int, Callable] = {}
    for module, attr in TARGETS:
        mod = importlib.import_module(f"gemkit.{module}")
        name = span_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = vars(cls)[meth]
            wrapped = tracer.wrap(fn, name, OBSERVERS.get((module, attr)))
            setattr(cls, meth, wrapped)
            inst._undo.append(lambda cls=cls, meth=meth, fn=fn: setattr(cls, meth, fn))
        else:
            fn = getattr(mod, attr)
            wrapped = tracer.wrap(fn, name, OBSERVERS.get((module, attr)))
        inst.originals[id(fn)] = fn
        swap[id(fn)] = wrapped

    for mod in modules:
        for key, value in list(vars(mod).items()):
            if id(value) in swap:
                setattr(mod, key, swap[id(value)])
                inst._undo.append(lambda mod=mod, key=key, value=value: setattr(mod, key, value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in swap:
                        value[k] = swap[id(v)]
                        inst._undo.append(lambda d=value, k=k, v=v: d.__setitem__(k, v))
        for fn in _functions_of(mod):
            if fn.__defaults__ and any(id(v) in swap for v in fn.__defaults__):
                old = fn.__defaults__
                fn.__defaults__ = tuple(swap.get(id(v), v) for v in old)
                inst._undo.append(lambda fn=fn, old=old: setattr(fn, "__defaults__", old))
            if fn.__kwdefaults__ and any(id(v) in swap for v in fn.__kwdefaults__.values()):
                old = dict(fn.__kwdefaults__)
                fn.__kwdefaults__ = {k: swap.get(id(v), v) for k, v in old.items()}
                inst._undo.append(lambda fn=fn, old=old: setattr(fn, "__kwdefaults__", old))
    assert_covered(inst)
    return inst


def unwrapped_bindings(inst: Installation) -> List[str]:
    """Places in gemkit that still bind an original the installation wrapped."""
    left = []

    def is_original(v) -> bool:
        return id(v) in inst.originals

    for mod in gemkit_modules():
        for key, value in vars(mod).items():
            if is_original(value):
                left.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                left.extend(f"{mod.__name__}.{key}[{k!r}]"
                            for k, v in value.items() if is_original(v))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{key}.{m}"
                            for m, v in vars(value).items() if is_original(v))
        for fn in _functions_of(mod):
            if any(is_original(v) for v in fn.__defaults__ or ()):
                left.append(f"{fn.__module__}.{fn.__qualname__} (default)")
            if any(is_original(v) for v in (fn.__kwdefaults__ or {}).values()):
                left.append(f"{fn.__module__}.{fn.__qualname__} (keyword default)")
    return left


def assert_covered(inst: Installation) -> None:
    """Fail if any gemkit module still reaches an unwrapped original."""
    left = unwrapped_bindings(inst)
    if left:
        raise RuntimeError("trace coverage lost; unwrapped bindings: " + ", ".join(left))


def layer_metrics(calls, self_s, counts, names) -> Dict[str, float]:
    """Per-layer metric values from aggregated spans and counters."""
    out: Dict[str, float] = {}
    for name, n, s in zip(names, calls, self_s):
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = s
    out["homology.cells"] = counts["homology.cells"]
    out["dipoles.moves_applied"] = counts["dipoles.moves_applied"]
    out["dipoles.reached_ratio"] = _ratio(counts["dipoles.reached"], counts["dipoles.reductions"])
    out["census.planar_ratio"] = _ratio(
        counts["census.planar_extensions"], counts["census.extensions_tried"])
    out["verdicts.unknown_ratio"] = _ratio(counts["verdicts.unknown"], counts["verdicts.issued"])
    return out


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reports 0 rather than no value
    return num / den if den else 0.0
