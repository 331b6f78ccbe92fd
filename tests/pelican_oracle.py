"""Reference definitions of the two Pelican similarity measures.

Each element pair is compared with one Python call on its hash sets, and
each same-tag block is matched with ``linear_sum_assignment``.  The
program computes the same blocks from integer intersection counts;
``tests/test_pelican.py`` checks that both give the same floats.  The
store-scan bound is defined here with set arithmetic too.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment


def _ratio_union(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _ratio_left(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a) if a else 1.0


def element_similarity_baseline(e1, e2) -> float:
    """Symmetric element similarity in [0, 1]; different tags compare as 0,
    empty-against-empty sets count as agreement."""
    if e1.tag != e2.tag:
        return 0.0
    return (_ratio_union(e1.attr_hashes, e2.attr_hashes)
            + _ratio_union(e1.text_hashes, e2.text_hashes)) / 2.0


def element_similarity_pelican(stored, unknown) -> float:
    """Asymmetric element similarity normalized by the stored phishing
    element's own attribute and text sets."""
    if stored.tag != unknown.tag:
        return 0.0
    return (_ratio_left(stored.attr_hashes, unknown.attr_hashes)
            + _ratio_left(stored.text_hashes, unknown.text_hashes)) / 2.0


def layer_match(layer_a, layer_b, sim_fn) -> tuple[float, int]:
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
    comm, matched = layer_match(layer_a, layer_b, element_similarity_baseline)
    union = len(layer_a) + len(layer_b) - matched
    return comm / union if union else 1.0


def _pelican_layer(stored_layer, unknown_layer) -> float:
    if not stored_layer:
        return 1.0
    comm, _ = layer_match(stored_layer, unknown_layer, element_similarity_pelican)
    return comm / len(stored_layer)


def tree_similarity_baseline(sig_a, sig_b) -> float:
    m = max(len(sig_a.layers), len(sig_b.layers))
    if m == 0:
        return 1.0
    total = 0.0
    for i in range(m):
        if i < len(sig_a.layers) and i < len(sig_b.layers):
            total += _baseline_layer(sig_a.layers[i], sig_b.layers[i])
    return total / m


def tree_similarity_pelican(sig_p, sig_u, layer_accept: float = 0.5,
                            lookahead: int = 3) -> float:
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


def max_similarity(signatures, sig_u, layer_accept: float = 0.5,
                   lookahead: int = 3) -> tuple[float, int | None]:
    """Best Pelican similarity of ``sig_u`` against a list of stored
    signatures, and the first index reaching it."""
    best, best_index = 0.0, None
    for index, sig_p in enumerate(signatures):
        value = tree_similarity_pelican(sig_p, sig_u, layer_accept, lookahead)
        if value > best:
            best, best_index = value, index
    return best, best_index


def bound(sig_p, sig_u) -> float:
    """The store-scan upper bound on ``tree_similarity_pelican(sig_p,
    sig_u)``: each stored element's worth against the attribute and text
    hashes of the whole unknown tree, averaged per layer (1 for an empty
    layer), then over the layers (1 for a tree without layers)."""
    attrs = frozenset().union(*(e.attr_hashes for layer in sig_u.layers for e in layer))
    texts = frozenset().union(*(e.text_hashes for layer in sig_u.layers for e in layer))
    def worth(e):
        return (_ratio_left(e.attr_hashes, attrs) + _ratio_left(e.text_hashes, texts)) / 2.0

    layers = [sum(map(worth, layer)) / len(layer) if layer else 1.0
              for layer in sig_p.layers]
    return sum(layers) / len(layers) if layers else 1.0
