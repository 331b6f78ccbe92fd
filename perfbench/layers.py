"""Layer tracing from outside the program.

A :class:`Tracer` replaces each layer entry point with a timing wrapper at
every place the entry point is bound: its home module or class, and every
``phishevade`` module (or the package itself) that imported it by name.
Leaving the tracer restores every original binding.

Wrappers record nested spans on a stack.  A layer's self time is each span's
duration minus the time covered by the spans opened inside it, so the self
times of all layers plus the time outside any span add up to the wall time.
A span opened inside a span of the same layer (``load_page`` calling
``parse_html``, ``extract_all_features`` calling ``extract_page_features``)
adds self time but is not counted as another call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import phishevade
from phishevade import attacks, classifier, collision, dom, features, mutation, pelican

# (layer, home, attribute): the entry points the benchmark times.  The home
# is where the attribute is defined; linear_sum_assignment is timed where
# pelican binds it, not inside SciPy.
SPANS = (
    ("dom.copy", dom.DomTree, "copy"),
    ("dom.parse", dom, "parse_html"),
    ("dom.parse", dom, "load_page"),
    ("features.extract", features, "extract_all_features"),
    ("features.extract", features, "extract_page_features"),
    ("features.hash", features, "hash_feature"),
    ("classifier.score", classifier.ScoreOracle, "score_map"),
    ("mutation.plan", mutation, "plan_delete_feature"),
    ("mutation.plan", mutation, "plan_add_rule"),
    ("mutation.apply", mutation, "apply"),
    ("mutation.apply", mutation, "apply_op"),
    ("attacks.influence", attacks, "influence_feature"),
    ("attacks.influence", attacks, "influence_rule"),
    ("attacks.white", attacks, "white_box"),
    ("attacks.grey", attacks, "grey_box"),
    ("attacks.black", attacks, "black_box"),
    ("pelican.signature", pelican, "signature_of"),
    ("pelican.similarity", pelican, "tree_similarity_pelican"),
    ("pelican.lsa", pelican, "linear_sum_assignment"),
    ("pelican.scan", pelican.PhishStore, "max_similarity"),
    ("pelican.insert", pelican.PhishStore, "insert"),
    ("collision.load_corpus", collision, "load_corpus"),
    ("collision.harvest", collision, "harvest_candidates"),
    ("collision.invert", collision, "invert_hashes"),
)

# Entry points that are only counted, without a span: the three NodeOp
# constructors, whose calls are the NodeOps planned (``mutation.ops``).
COUNTS = (
    ("mutation.ops", mutation, "modify_attribute"),
    ("mutation.ops", mutation, "modify_text"),
    ("mutation.ops", mutation, "add_invisible_element"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS + COUNTS))
COUNTED = frozenset(layer for layer, _, _ in COUNTS)


def _bindings(home, name: str) -> list[tuple[object, str]]:
    """Every ``(owner, attribute)`` that binds the entry point: the home
    itself and, for module-level functions, each phishevade module holding
    the same object under the same name."""
    if isinstance(home, type):
        return [(home, name)]
    original = getattr(home, name)
    owners = [phishevade] + [module for key, module in sorted(sys.modules.items())
                             if key.startswith("phishevade.")]
    return [(owner, name) for owner in owners
            if getattr(owner, name, None) is original]


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Context manager that installs the wrappers on entry and restores the
    original bindings on exit.  ``stats`` accumulates across uses until
    :meth:`reset`."""

    stats: dict[str, LayerStats] = field(
        default_factory=lambda: {layer: LayerStats() for layer in LAYERS})
    _stack: list[list] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        for layer in self.stats:
            self.stats[layer] = LayerStats()

    def values(self) -> dict[str, float]:
        """Flat metrics: ``<layer>.calls``, ``.failed`` and ``.self_s`` per
        spanned layer, and the bare layer name for a counted one."""
        out: dict[str, float] = {}
        for layer, stats in self.stats.items():
            if layer in COUNTED:
                out[layer] = float(stats.calls)
                continue
            out[f"{layer}.calls"] = float(stats.calls)
            out[f"{layer}.failed"] = float(stats.failed)
            out[f"{layer}.self_s"] = stats.self_s
        return out

    def _span(self, layer: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]          # layer, time covered by child spans
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if outermost:
                    stats[layer].failed += 1
                raise
            finally:
                elapsed = clock() - started
                stack.pop()
                stats[layer].self_s += elapsed - frame[1]
                if outermost:
                    stats[layer].calls += 1
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer: str, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stats[layer].calls += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> Tracer:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for layer, home, name in table:
                original = getattr(home, name)
                if isinstance(home, type):
                    original = home.__dict__[name]
                wrapped = make(layer, original)
                for owner, attr in _bindings(home, name):
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()
