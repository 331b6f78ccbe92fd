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

The pipeline checks whitelist and blacklist, then the similarity store, and
only then the classifier; detected phishing pages enter the recency-bounded
store.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .classifier import SchemaError, ScoreOracle
from .dom import TEXT, DomTree, bfs_layers

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


@dataclass(frozen=True)
class TreeSignature:
    layers: tuple[tuple[ElementSignature, ...], ...]


def signature_of(tree: DomTree) -> TreeSignature:
    return TreeSignature(tuple(
        tuple(ElementSignature.of(el) for el in layer)
        for layer in bfs_layers(tree)))


def _coerce(tree_or_sig) -> TreeSignature:
    if isinstance(tree_or_sig, TreeSignature):
        return tree_or_sig
    return signature_of(tree_or_sig)


def _ratio_union(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _ratio_left(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a) if a else 1.0


def element_similarity_baseline(e1: ElementSignature, e2: ElementSignature) -> float:
    """Symmetric element similarity in [0, 1]; different tags compare as 0,
    empty-against-empty sets count as agreement."""
    if e1.tag != e2.tag:
        return 0.0
    return (_ratio_union(e1.attr_hashes, e2.attr_hashes)
            + _ratio_union(e1.text_hashes, e2.text_hashes)) / 2.0


def element_similarity_pelican(stored: ElementSignature,
                               unknown: ElementSignature) -> float:
    """Asymmetric element similarity normalized by the stored phishing
    element's own attribute and text sets."""
    if stored.tag != unknown.tag:
        return 0.0
    return (_ratio_left(stored.attr_hashes, unknown.attr_hashes)
            + _ratio_left(stored.text_hashes, unknown.text_hashes)) / 2.0


def _layer_match(layer_a, layer_b, sim_fn) -> tuple[float, int]:
    """Maximum-weight same-tag matching between two layers.

    Returns (sum of matched similarities, number of matched pairs); pairs
    with zero similarity are not counted as matched.
    """
    comm = 0.0
    matched = 0
    tags = {e.tag for e in layer_a} & {e.tag for e in layer_b}
    for tag in sorted(tags):
        group_a = [e for e in layer_a if e.tag == tag]
        group_b = [e for e in layer_b if e.tag == tag]
        matrix = np.array([[sim_fn(a, b) for b in group_b] for a in group_a])
        rows, cols = linear_sum_assignment(matrix, maximize=True)
        for i, j in zip(rows, cols):
            if matrix[i, j] > 0.0:
                comm += float(matrix[i, j])
                matched += 1
    return comm, matched


def _baseline_layer(layer_a, layer_b) -> float:
    comm, matched = _layer_match(layer_a, layer_b, element_similarity_baseline)
    union = len(layer_a) + len(layer_b) - matched
    return comm / union if union else 1.0


def _pelican_layer(stored_layer, unknown_layer) -> float:
    if not stored_layer:
        return 1.0
    comm, _ = _layer_match(stored_layer, unknown_layer, element_similarity_pelican)
    return comm / len(stored_layer)


def tree_similarity_baseline(a, b) -> float:
    """Symmetric layer-averaged similarity over the larger layer count;
    a layer missing from either tree contributes 0."""
    sig_a, sig_b = _coerce(a), _coerce(b)
    m = max(len(sig_a.layers), len(sig_b.layers))
    if m == 0:
        return 1.0
    total = 0.0
    for i in range(m):
        if i < len(sig_a.layers) and i < len(sig_b.layers):
            total += _baseline_layer(sig_a.layers[i], sig_b.layers[i])
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
    total = 0.0
    cursor = 0
    for i, layer in enumerate(sig_p.layers):
        hit = None
        for j in range(cursor, min(cursor + lookahead, len(sig_u.layers))):
            value = _pelican_layer(layer, sig_u.layers[j])
            if value >= layer_accept:
                hit = (j, value)
                break
        if hit is not None:
            total += hit[1]
            cursor = hit[0] + 1
        else:
            if i < len(sig_u.layers):
                total += _pelican_layer(layer, sig_u.layers[i])
            cursor = max(cursor, i + 1)
    return total / m


# -- recency-bounded store ------------------------------------------------------

@dataclass
class StoreEntry:
    signature: TreeSignature
    timestamp: float


@dataclass
class PhishStore:
    """Recent detected phishing signatures, bounded by count and age."""

    k: int = 50
    h_hours: float = 24.0
    entries: list[StoreEntry] = field(default_factory=list)

    def evict(self, now: float | None = None) -> None:
        now = time.time() if now is None else now
        horizon = self.h_hours * 3600.0
        self.entries = [e for e in self.entries if now - e.timestamp <= horizon]
        while len(self.entries) > self.k:
            self.entries.pop(0)

    def insert(self, tree_or_sig, now: float | None = None) -> None:
        now = time.time() if now is None else now
        self.entries.append(StoreEntry(_coerce(tree_or_sig), now))
        self.evict(now)

    def max_similarity(self, tree_or_sig, layer_accept: float = 0.5,
                       lookahead: int = 3) -> tuple[float, int | None]:
        """Best Pelican similarity of the unknown tree against the store."""
        sig = _coerce(tree_or_sig)
        best, best_index = 0.0, None
        for index, entry in enumerate(self.entries):
            value = tree_similarity_pelican(entry.signature, sig,
                                            layer_accept, lookahead)
            if value > best:
                best, best_index = value, index
        return best, best_index


def _signature_to_json(sig: TreeSignature) -> list:
    return [[{"tag": e.tag, "attrs": sorted(e.attr_hashes),
              "texts": sorted(e.text_hashes)} for e in layer]
            for layer in sig.layers]


def _hashes_from_json(value, key: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"store element {key!r} must be a list of strings")
    return frozenset(value)


def _element_from_json(e: dict) -> ElementSignature:
    if not isinstance(e["tag"], str):
        raise SchemaError("store element 'tag' must be a string")
    return ElementSignature(e["tag"], _hashes_from_json(e["attrs"], "attrs"),
                            _hashes_from_json(e["texts"], "texts"))


def _signature_from_json(layers: list) -> TreeSignature:
    return TreeSignature(tuple(tuple(_element_from_json(e) for e in layer)
                               for layer in layers))


def save_store(store: PhishStore, path) -> None:
    doc = {"entries": [{"signature": _signature_to_json(e.signature),
                        "timestamp": e.timestamp} for e in store.entries]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_store(path, k: int = 50, h_hours: float = 24.0) -> PhishStore:
    """Read a store file; a document of the wrong shape raises
    :class:`SchemaError`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    store = PhishStore(k=k, h_hours=h_hours)
    try:
        for entry in doc.get("entries", []):
            store.entries.append(StoreEntry(
                _signature_from_json(entry["signature"]), float(entry["timestamp"])))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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

    The classifier is only queried when the earlier stages do not decide;
    classifier-detected pages are inserted into the store.
    """
    if url in whitelist:
        return Verdict(WHITELISTED)
    if url in blacklist:
        return Verdict(BLACKLISTED)
    sig = signature_of(page)
    best, index = store.max_similarity(sig, layer_accept, lookahead)
    if index is not None and best >= detect_threshold:
        return Verdict(EVASION_DETECTED, similarity=best, matched_entry=index)
    score = oracle.score_page(page)
    if score >= oracle.classifier.threshold:
        store.insert(sig, now)
        return Verdict(PHISHING_BY_CLASSIFIER)
    return Verdict(BENIGN)
