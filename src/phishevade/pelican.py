"""Layered DOM-tree similarity and the evasion-detection pipeline.

Both similarity measures compare trees layer by layer (breadth-first).  An
element is summarized by its tag plus hash sets of its attributes
(``name=value``) and text children; same-tag elements of a layer are matched
by maximum-weight assignment.

* The baseline measure is symmetric: per-pair Jaccard ratios over attribute
  and text sets, layer ratios normalized by the union of both layers,
  averaged over the larger tree's layer count.
* The personalized measure is asymmetric: ratios and layer sums are
  normalized by the stored phishing tree only, so invisible additions to the
  unknown page cannot lower it.  A bounded layer-skip absorbs inserted
  wrapper layers, falling back to same-index pairing.

Both measures fill a layer pair's similarity blocks from one kernel.  Each
signature keeps its layers in tag order, so a same-tag block is a slice, and
each layer maps each attribute hash to the rows holding it, and in a separate
map each text hash.  A hash shared by the two layers meets each stored
row holding it with each unknown column holding it; tallying the meetings
per cell gives every intersection size ``|a & b|`` as an exact integer, and
the block values are array divisions of those integers by ``|a|``
(personalized) or by ``|a| + |b| - |a & b|`` (baseline).  These are the
same IEEE divisions of the same integers as ``len(a & b) / len(a)`` on the
sets, so every block, and every assignment over it, is bit-identical to
comparing the element pairs one by one.  The assignment runs per block in
sorted tag order, except that a one-row or one-column block takes its
maximum.  numpy is imported where a full comparison first builds a
layer's arrays, and SciPy, which does the assignment, at the first
assignment, so a visit that compares nothing in full loads neither.

A store scan compares few entries in full.  Entries are visited in store
order, and each first gets an upper bound on its personalized similarity,
whatever ``layer_accept`` and ``lookahead`` are.  A stored element's value
against any unknown element is at most its worth
``(|A & UA|/|A| + |T & UT|/|T|) / 2`` (a ratio counts 1 when its set is
empty), where UA and UT are the attribute and text hashes of the whole
unknown tree.  A stored layer's bound is the sum of its elements' worths
divided by its size, and the entry's bound averages its layers.  That is
linear in which stored hashes the unknown tree holds, so each stored
signature keeps a table of a constant base and one weight per hash, and
the bound is the base plus the weights of the shared hashes.  An entry is
compared only when its bound plus ``BOUND_SLACK`` (which absorbs the
different summation order) is above the best value so far and reaches the
floor, and the unknown tree's layers are built only once an entry is
compared.  The scan thus returns what comparing every entry in index order
returns, the largest value and the first entry reaching it, whenever that
value reaches the floor, and ``(0.0, None)`` otherwise.

The pipeline checks whitelist and blacklist, then the similarity store, and
only then the classifier; detected phishing pages enter the recency-bounded
store, whose expired and over-capacity entries are evicted before each scan.
A store file is read and written with the cyclic garbage collector paused:
its entries hold no reference cycles, and a collection would otherwise walk
every element signature built so far.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING

from .classifier import SchemaError, ScoreOracle, decode_json, finite_number
from .dom import TEXT, DomTree, bfs_layers

if TYPE_CHECKING:
    import numpy as np

WHITELISTED = "whitelisted"
BLACKLISTED = "blacklisted"
EVASION_DETECTED = "evasion_detected"
PHISHING_BY_CLASSIFIER = "phishing_by_classifier"
BENIGN = "benign"


def _h(value: str) -> str:
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ElementSignature:
    tag: str
    attr_hashes: frozenset[str]
    text_hashes: frozenset[str]

    @classmethod
    def of(cls, element) -> "ElementSignature":
        attrs = frozenset(_h(f"{name}={value}")
                          for name, value in element.attrs.items())
        texts = frozenset(_h(c.value) for c in element.children
                          if c.node_type == TEXT)
        return cls(element.tag, attrs, texts)


class _Layer:
    """One signature layer in tag order, built once per signature.

    The same-tag elements are the contiguous rows ``spans[tag]``, in page
    order within the tag, so every same-tag block is a slice.
    ``attr_rows`` maps each attribute hash to the rows holding it, and
    ``text_rows`` each text hash; the two stay apart, since a text equal to
    ``name=value`` hashes like that attribute.
    """

    __slots__ = ("size", "spans", "sizes", "divisors", "empty", "attr_rows",
                 "text_rows")

    def __init__(self, elements):
        import numpy as np   # the first full comparison loads numpy

        ordered = sorted(elements, key=attrgetter("tag"))   # stable
        self.size = len(ordered)
        self.spans = {}
        self.attr_rows, self.text_rows = {}, {}
        for row, e in enumerate(ordered):
            self.spans.setdefault(e.tag, [row, row])[1] = row + 1
            for h in e.attr_hashes:
                self.attr_rows.setdefault(h, []).append(row)
            for h in e.text_hashes:
                self.text_rows.setdefault(h, []).append(row)
        # set sizes stacked like the count rows: attributes, then texts
        self.sizes = np.array([len(e.attr_hashes) for e in ordered]
                              + [len(e.text_hashes) for e in ordered], dtype=float)
        self.divisors = np.maximum(self.sizes, 1.0)[:, None]
        self.empty = (self.sizes == 0.0)[:, None]


@dataclass(frozen=True)
class TreeSignature:
    layers: tuple[tuple[ElementSignature, ...], ...]

    # Instance caches: built on first use, excluded from ==, hash and repr,
    # and gone with the signature.
    @cached_property
    def _layers(self) -> tuple[_Layer, ...]:
        return tuple(_Layer(layer) for layer in self.layers)

    @cached_property
    def _hashes(self) -> tuple[frozenset[str], frozenset[str]]:
        """Every attribute hash and every text hash of the tree."""
        return (frozenset(h for layer in self.layers for e in layer
                          for h in e.attr_hashes),
                frozenset(h for layer in self.layers for e in layer
                          for h in e.text_hashes))

    @cached_property
    def _weights(self) -> tuple[float, dict[str, float], dict[str, float],
                                frozenset[str], frozenset[str]]:
        """``(base, attr_weights, text_weights, attrs, texts)``, which
        :func:`_bound` sums.  In a tree of L layers, an n-element layer adds
        ``e/(2n)/L`` to ``base`` for its e empty sets (an empty layer adds
        ``1/L``, and a tree without layers has base 1), and each hash of a
        non-empty set adds ``1/(2Ln|set|)`` to its weight.  ``attrs`` and
        ``texts`` are the keys of the two tables: every hash of the tree,
        as ``_hashes`` holds them, but read off the tables in one step."""
        depth = len(self.layers)
        if not depth:
            return 1.0, {}, {}, frozenset(), frozenset()
        base = []
        attr_weights, text_weights = {}, {}
        for layer in self.layers:
            empty = 0
            for e in layer:
                for hashes, weights in ((e.attr_hashes, attr_weights),
                                        (e.text_hashes, text_weights)):
                    if not hashes:
                        empty += 1
                        continue
                    weight = 0.5 / (depth * len(layer) * len(hashes))
                    for h in hashes:
                        weights[h] = weights.get(h, 0.0) + weight
            base.append(empty / (2 * len(layer)) if layer else 1.0)
        return (math.fsum(base) / depth, attr_weights, text_weights,
                frozenset(attr_weights), frozenset(text_weights))


def signature_of(tree: DomTree) -> TreeSignature:
    return TreeSignature(tuple(
        tuple(ElementSignature.of(el) for el in layer)
        for layer in bfs_layers(tree)))


def _coerce(tree_or_sig) -> TreeSignature:
    if isinstance(tree_or_sig, TreeSignature):
        return tree_or_sig
    return signature_of(tree_or_sig)


def _counts(stored: _Layer, unknown: _Layer) -> np.ndarray:
    """The exact intersection sizes of every (stored element, unknown
    element) pair: ``|A_s & A_u|`` in the first n rows, ``|T_s & T_u|`` in
    the next n, rows and columns in each layer's tag order.

    Each hash the two layers share puts every stored row holding it against
    every unknown column holding it, and the meetings are tallied per cell.
    A hash held once on each side meets in one cell; a hash held more often
    meets in a block of cells, built as one array, so many identical
    elements cost one array operation, not one Python step per cell.
    """
    import numpy as np

    n, m = stored.size, unknown.size
    cells, blocks = [], []
    for offset, rows_of, cols_of in ((0, stored.attr_rows, unknown.attr_rows),
                                     (n, stored.text_rows, unknown.text_rows)):
        for h in rows_of.keys() & cols_of.keys():
            rows, cols = rows_of[h], cols_of[h]
            if len(rows) == len(cols) == 1:
                cells.append((rows[0] + offset) * m + cols[0])
            else:
                starts = np.multiply(rows, m) + offset * m
                blocks.append(np.add.outer(starts, cols).ravel())
    cells = np.concatenate([np.array(cells, dtype=np.intp), *blocks])
    return np.bincount(cells, minlength=2 * n * m).reshape(2 * n, m)


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False):
    """SciPy's ``linear_sum_assignment``, imported on the call: importing
    SciPy costs more than most visits, which assign nothing."""
    import scipy.optimize
    return scipy.optimize.linear_sum_assignment(cost, maximize=maximize)


def _match(values: np.ndarray, left: _Layer, right: _Layer,
           tags) -> tuple[float, int]:
    """Maximum-weight same-tag matching of one layer pair.

    ``values`` holds the element similarities, rows in ``left``'s tag
    order, columns in ``right``'s.  Returns (sum of matched similarities,
    number of matched pairs); pairs with zero similarity are not counted
    as matched.  A one-row or one-column block takes its maximum, which is
    what the assignment would pick.
    """
    comm = 0.0
    matched = 0
    for tag in tags:
        r0, r1 = left.spans[tag]
        c0, c1 = right.spans[tag]
        block = values[r0:r1, c0:c1]
        if r1 - r0 == 1 or c1 - c0 == 1:
            picked = (block.max().item(),)
        else:
            rows, cols = linear_sum_assignment(block, maximize=True)
            picked = block[rows, cols].tolist()
        for value in picked:
            if value > 0.0:
                comm += value
                matched += 1
    return comm, matched


def _common_tags(left: _Layer, right: _Layer) -> list[str]:
    return sorted(left.spans.keys() & right.spans.keys())


def _jaccard(shared: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``|a & b| / |a | b|``, and 1 where both sets are empty."""
    union = left[:, None] + right[None, :] - shared
    return shared / union.clip(min=1.0) + (union == 0.0)


def _baseline_layer(left: _Layer, right: _Layer) -> float:
    tags = _common_tags(left, right)
    comm, matched = 0.0, 0
    if tags:
        n, m = left.size, right.size
        shared = _counts(left, right)
        values = (_jaccard(shared[:n], left.sizes[:n], right.sizes[:m])
                  + _jaccard(shared[n:], left.sizes[n:], right.sizes[m:])) / 2.0
        comm, matched = _match(values, left, right, tags)
    union = left.size + right.size - matched
    return comm / union if union else 1.0


def _pelican_layer(stored: _Layer, unknown: _Layer) -> float:
    n = stored.size
    if not n:
        return 1.0
    tags = _common_tags(stored, unknown)
    if not tags:
        return 0.0
    # |a & b| / |a|, and 1 where a is empty
    ratios = _counts(stored, unknown) / stored.divisors + stored.empty
    values = (ratios[:n] + ratios[n:]) / 2.0
    comm, _ = _match(values, stored, unknown, tags)
    return comm / n


def tree_similarity_baseline(a, b) -> float:
    """Symmetric layer-averaged similarity over the larger layer count;
    a layer missing from either tree contributes 0."""
    sig_a, sig_b = _coerce(a), _coerce(b)
    m = max(len(sig_a.layers), len(sig_b.layers))
    if m == 0:
        return 1.0
    total = 0.0
    for left, right in zip(sig_a._layers, sig_b._layers):
        total += _baseline_layer(left, right)
    return total / m


def tree_similarity_pelican(stored, unknown, layer_accept: float = 0.5,
                            lookahead: int = 3) -> float:
    """Asymmetric similarity of an unknown tree against a stored phishing
    tree, with bounded layer-skip.

    For each stored layer, unknown layers from the current cursor onward are
    probed (up to ``lookahead``) until one reaches ``layer_accept``; if none
    qualifies the stored layer is paired with the same-index unknown layer.
    """
    sig_p, sig_u = _coerce(stored), _coerce(unknown)
    m = len(sig_p.layers)
    if m == 0:
        return 1.0
    unknown_layers = sig_u._layers
    total = 0.0
    cursor = 0
    for i, layer in enumerate(sig_p._layers):
        hit = None
        for j in range(cursor, min(cursor + lookahead, len(unknown_layers))):
            value = _pelican_layer(layer, unknown_layers[j])
            if value >= layer_accept:
                hit = (j, value)
                break
        if hit is not None:
            total += hit[1]
            cursor = hit[0] + 1
        else:
            if i < len(unknown_layers):
                total += _pelican_layer(layer, unknown_layers[i])
            cursor = max(cursor, i + 1)
    return total / m


# -- an upper bound for the store scan ------------------------------------------

# Added to a bound before it is compared with a similarity: the two sum
# their element values in different groupings and orders.
BOUND_SLACK = 1e-9


def _bound(stored: TreeSignature, unknown: TreeSignature) -> float:
    """An upper bound on ``tree_similarity_pelican(stored, unknown)``,
    whatever ``layer_accept`` and ``lookahead`` are.

    A stored element's similarity to any unknown element is at most its
    worth ``(|A & UA|/|A| + |T & UT|/|T|) / 2``, a ratio counting 1 where
    its set is empty, where UA and UT are the attribute and text hashes of
    the whole unknown tree.  Whichever unknown layer the layer-skip pairs a
    stored layer with, a matching pairs each element at most once, so the
    layer's value is at most the sum of its elements' worths divided by its
    size (1 for an empty layer), and the bound averages that over the
    stored layers.  A tree without layers has similarity 1.

    That sum is the stored tree's ``base`` plus the weight of every stored
    hash the unknown tree holds (:attr:`TreeSignature._weights`, which also
    holds the stored hashes, so a stored tree never builds ``_hashes``);
    ``fsum`` rounds it exactly, so the order of the sets cannot change it.
    """
    base, attr_weights, text_weights, attrs, texts = stored._weights
    attr_held, text_held = unknown._hashes
    return math.fsum([base] + [attr_weights[h] for h in attrs & attr_held]
                     + [text_weights[h] for h in texts & text_held])


# -- recency-bounded store ------------------------------------------------------

@dataclass
class StoreEntry:
    signature: TreeSignature
    timestamp: float


def _clock(now: float | None) -> float:
    """The store's clock: ``now``, or the current time when it is None.  A
    non-finite ``now`` raises ``ValueError``: no entry's age compares
    against NaN or an infinity, so every entry would be evicted or kept."""
    if now is None:
        return time.time()
    if not math.isfinite(now):
        raise ValueError(f"store clock must be a finite time, not {now!r}")
    return now


@dataclass
class PhishStore:
    """Recent detected phishing signatures, bounded by count (``k``) and
    age (``h_hours``); either bound below 0, or NaN, raises ``ValueError``."""

    k: int = 50
    h_hours: float = 24.0
    entries: list[StoreEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.k >= 0:
            raise ValueError("store capacity k must be >= 0")
        if not self.h_hours >= 0.0:   # also rejects NaN
            raise ValueError("store horizon h_hours must be >= 0")

    def evict(self, now: float | None = None) -> None:
        now = _clock(now)
        horizon = self.h_hours * 3600.0
        self.entries = [e for e in self.entries if now - e.timestamp <= horizon]
        while len(self.entries) > self.k:
            self.entries.pop(0)

    def insert(self, tree_or_sig, now: float | None = None) -> None:
        now = _clock(now)
        self.entries.append(StoreEntry(_coerce(tree_or_sig), now))
        self.evict(now)

    def max_similarity(self, tree_or_sig, layer_accept: float = 0.5,
                       lookahead: int = 3,
                       floor: float = 0.0) -> tuple[float, int | None]:
        """Best Pelican similarity of the unknown tree against the store,
        and the first entry reaching it; ``(0.0, None)`` when no entry
        scores above 0 and at least ``floor``.

        Entries are visited in index order, and each first gets an upper
        bound (:func:`_bound`) on its similarity.  The full comparison runs
        only on an entry that can still win: one is skipped when
        ``bound + BOUND_SLACK`` is at most the best value so far or below
        ``floor``.  A compared entry becomes the best when its value is
        larger than the best and reaches ``floor``.
        """
        sig = _coerce(tree_or_sig)
        best, best_index = 0.0, None
        for index, entry in enumerate(self.entries):
            reach = _bound(entry.signature, sig) + BOUND_SLACK
            if reach <= best or reach < floor:
                continue
            value = tree_similarity_pelican(entry.signature, sig,
                                            layer_accept, lookahead)
            if value > best and value >= floor:
                best, best_index = value, index
        return best, best_index


def _signature_to_json(sig: TreeSignature) -> list:
    return [[{"tag": e.tag, "attrs": sorted(e.attr_hashes),
              "texts": sorted(e.text_hashes)} for e in layer]
            for layer in sig.layers]


def _hashes_from_json(value, key: str) -> frozenset[str]:
    if isinstance(value, list):
        try:
            "".join(value)   # one C-level pass; any item not a string raises
        except TypeError:
            pass
        else:
            return frozenset(value)
    raise SchemaError(f"store element {key!r} must be a list of strings")


def _element_from_json(e: dict) -> ElementSignature:
    if not isinstance(e["tag"], str):
        raise SchemaError("store element 'tag' must be a string")
    return ElementSignature(e["tag"], _hashes_from_json(e["attrs"], "attrs"),
                            _hashes_from_json(e["texts"], "texts"))


def _signature_from_json(layers: list) -> TreeSignature:
    return TreeSignature(tuple(tuple(_element_from_json(e) for e in layer)
                               for layer in layers))


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector disabled, then
    restore its previous state, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_store(store: PhishStore, path) -> None:
    with collector_paused():
        doc = {"entries": [{"signature": _signature_to_json(e.signature),
                            "timestamp": e.timestamp} for e in store.entries]}
        text = json.dumps(doc, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_store(path, k: int = 50, h_hours: float = 24.0) -> PhishStore:
    """Read a store file; a document of the wrong shape, or a timestamp that
    is not a finite number, raises :class:`SchemaError`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    store = PhishStore(k=k, h_hours=h_hours)
    with collector_paused():
        doc = decode_json(text, "store file")
        try:
            for entry in doc.get("entries", []):
                store.entries.append(StoreEntry(
                    _signature_from_json(entry["signature"]),
                    finite_number(entry["timestamp"], "store entry 'timestamp'")))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed store file: {type(exc).__name__}: {exc}") from exc
    return store


# -- pipeline -------------------------------------------------------------------

@dataclass
class Verdict:
    label: str
    similarity: float | None = None
    matched_entry: int | None = None

    def to_dict(self) -> dict:
        return {"label": self.label, "similarity": self.similarity,
                "matched_entry": self.matched_entry}


def pipeline(url: str, page: DomTree, whitelist: set[str], blacklist: set[str],
             store: PhishStore, oracle: ScoreOracle,
             detect_threshold: float = 0.9, layer_accept: float = 0.5,
             lookahead: int = 3, now: float | None = None) -> Verdict:
    """Whitelist / blacklist / similarity store / classifier, in that order.

    Store entries older than the store's horizon at ``now``, and the oldest
    beyond its capacity, are evicted before the scan, so they never match.
    The scan's floor is ``detect_threshold``, so any entry it returns is a
    detection.  The classifier is only queried when the earlier stages do
    not decide; classifier-detected pages are inserted into the store.
    """
    if url in whitelist:
        return Verdict(WHITELISTED)
    if url in blacklist:
        return Verdict(BLACKLISTED)
    sig = signature_of(page)
    store.evict(now)
    best, index = store.max_similarity(sig, layer_accept, lookahead,
                                       detect_threshold)
    if index is not None:
        return Verdict(EVASION_DETECTED, similarity=best, matched_entry=index)
    score = oracle.score_page(page)
    if score >= oracle.classifier.threshold:
        store.insert(sig, now)
        return Verdict(PHISHING_BY_CLASSIFIER)
    return Verdict(BENIGN)
