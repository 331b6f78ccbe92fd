"""Rule-based logistic page classifier.

A classifier is a bias plus a set of classification rules.  Each rule is a
weighted conjunction of features; a rule is hit when every one of its
features has a non-zero value (frequency features must also reach the
detection threshold).  The raw score is ``bias + sum over hit rules of
weight * product of feature values`` and the decision score is the logistic
transform of the raw score; a page is flagged when the decision score
reaches the threshold.

Models may carry hashed feature names (64-hex SHA-256 digests); extraction
output is then hashed before hit testing.

A rule is evaluated in one place, ``gated_product``: the product of its
feature values taken in sorted feature order (``rule.order``), or None when
a feature is unmet, so no score depends on the hash seed.  ``hit_table``
collects the gated products of the rules hit on a feature map, reading only
the rules that ``Classifier.rules_by_feature`` files under its keys, and
``_raw`` adds ``weight * product`` to the bias in rule order.  ``score``
builds the table of a feature map.  A working page is read instead through
a ``TallyHits`` tracker bound to its ``PageTally``: the tracker keeps the
page's map and hit table and, on ``update``, re-reads ``PageTally.value``
of the features the tally's journal lists past its own position and
re-evaluates only the rules filed under those whose value changed, so its
table is bit for bit ``hit_table`` of the tally's feature map.
``ScoreOracle.score_tally`` scores through one tracker, and an attack counts its mutated rules
through another over the same tally.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import features as F
from .dom import DomTree
from .features import FeatureValueMap, PageTally, extract_all_features, hash_feature

HEX64 = re.compile(r"^[0-9a-f]{64}$")

# Frequency feature names, plain and hashed.  A plain name is never 64-hex
# and a hashed model holds only 64-hex digests, so one set serves both.
_FREQ_FEATURES = F.FREQUENCY_KINDS | {hash_feature(k) for k in F.FREQUENCY_KINDS}


class SchemaError(ValueError):
    """An input file is not JSON, or is missing required keys or has the
    wrong shape."""


def decode_json(text: str, what: str):
    """One JSON document; text that is not JSON, or that nests deeper than
    the decoder can recurse, raises :class:`SchemaError` naming ``what``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def clip(text: str, limit: int = 80) -> str:
    """``text`` for an error message: its first ``limit`` characters, and
    its length when it is longer."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def finite_number(value, what: str) -> float:
    """A decoded JSON number as a float; a boolean, a string, an infinity
    or NaN, or an integer beyond the float range raises
    :class:`SchemaError` naming ``what``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"{what} must be a finite number, not {clip(repr(value))}")


class HashFormatError(ValueError):
    """A digest is not 64 lowercase hex characters."""


class UnknownRuleError(KeyError):
    """A rule id does not exist in the classifier."""


@dataclass(frozen=True)
class ClassificationRule:
    id: str
    features: frozenset[str]
    weight: float
    # the features in sorted order, the order a rule's values are multiplied in
    order: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.features:
            raise ValueError(f"rule {self.id!r} has no features")
        object.__setattr__(self, "order", tuple(sorted(self.features)))


@dataclass(frozen=True)
class Classifier:
    bias: float
    rules: tuple[ClassificationRule, ...]
    threshold: float = 0.5
    hashed: bool = False
    freq_detect_threshold: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        check_freq_detect_threshold(self.freq_detect_threshold)
        ids = [r.id for r in self.rules]
        if len(ids) != len(set(ids)):
            raise ValueError("rule ids must be unique")
        if self.hashed:
            for rule in self.rules:
                for feat in rule.features:
                    if not HEX64.match(feat):
                        raise HashFormatError(
                            f"rule {rule.id!r}: {feat!r} is not a 64-hex digest")

    def rule(self, rule_id: str) -> ClassificationRule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise UnknownRuleError(rule_id)

    @cached_property
    def rules_by_feature(self) -> dict[str, tuple[int, ...]]:
        """Each feature (a digest in a hashed model) -> the ascending
        indices in ``rules`` of the rules that hold it."""
        index: dict[str, list[int]] = {}
        for i, rule in enumerate(self.rules):
            for feat in rule.features:
                index.setdefault(feat, []).append(i)
        return {feat: tuple(positions) for feat, positions in index.items()}


def check_freq_detect_threshold(t: float) -> None:
    """Raise ``ValueError`` unless the frequency detection threshold is in
    (0, 1): at t = 0 the dilution arithmetic divides by zero, and from
    t = 1 on no padding can raise a ratio to t."""
    if not 0.0 < t < 1.0:
        raise ValueError("freq_detect_threshold must be in (0, 1)")


def logistic(x: float) -> float:
    """Numerically stable e^x / (1 + e^x)."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _unmet(feat: str, value: float, freq_detect_threshold: float) -> bool:
    """Whether a feature with this value is not satisfied: it is valued
    zero, or it is a frequency feature (plain or hashed) below the
    detection threshold."""
    return value == 0.0 or (feat in _FREQ_FEATURES and value < freq_detect_threshold)


def unsatisfied(features, fmap: FeatureValueMap,
                freq_detect_threshold: float) -> set[str]:
    """The features that are not satisfied on ``fmap`` (absent ones are
    valued zero)."""
    return {feat for feat in features
            if _unmet(feat, fmap.get(feat, 0.0), freq_detect_threshold)}


def rule_hit(rule: ClassificationRule, fmap: FeatureValueMap,
             freq_detect_threshold: float = 0.05) -> bool:
    """True when every feature of the rule is satisfied."""
    return not unsatisfied(rule.features, fmap, freq_detect_threshold)


def gated_product(rule: ClassificationRule, fmap: FeatureValueMap,
                  freq_detect_threshold: float) -> float | None:
    """The product of the rule's feature values on ``fmap``, in
    ``rule.order``, when the rule is hit, else None."""
    product = 1.0
    for feat in rule.order:
        value = fmap.get(feat, 0.0)
        if _unmet(feat, value, freq_detect_threshold):
            return None
        product *= value
    return product


def hit_contribution(rule: ClassificationRule, fmap: FeatureValueMap,
                     freq_detect_threshold: float) -> float | None:
    """The rule's weight times its gated product when the rule is hit on
    ``fmap``, else None."""
    product = gated_product(rule, fmap, freq_detect_threshold)
    return None if product is None else rule.weight * product


def hit_table(classifier: Classifier, fmap: FeatureValueMap) -> dict[int, float]:
    """Rule index -> gated product of each rule hit on ``fmap``, a map with
    the classifier's keys (digests for a hashed model).  A rule with no
    feature on the map is not hit, so only the rules that
    ``rules_by_feature`` files under a key of ``fmap`` are evaluated."""
    rules, index = classifier.rules, classifier.rules_by_feature
    t = classifier.freq_detect_threshold
    table = {}
    for i in {i for feat in fmap for i in index.get(feat, ())}:
        product = gated_product(rules[i], fmap, t)
        if product is not None:
            table[i] = product
    return table


def _raw(classifier: Classifier, table: dict[int, float]) -> float:
    """``bias + weight * product`` over a hit table, added in rule order."""
    rules, x = classifier.rules, classifier.bias
    for i in sorted(table):
        x += rules[i].weight * table[i]
    return x


def raw_score(classifier: Classifier, fmap: FeatureValueMap) -> float:
    if classifier.hashed:
        fmap = {hash_feature(k): v for k, v in fmap.items()}
    return _raw(classifier, hit_table(classifier, fmap))


def score(classifier: Classifier, fmap: FeatureValueMap) -> float:
    return logistic(raw_score(classifier, fmap))


def partition_rules(classifier: Classifier) -> tuple[list[ClassificationRule],
                                                     list[ClassificationRule]]:
    """(positive rules, negative rules); zero-weight rules are in neither."""
    positive = [r for r in classifier.rules if r.weight > 0]
    negative = [r for r in classifier.rules if r.weight < 0]
    return positive, negative


def find_subset_rules(classifier: Classifier) -> set[tuple[str, str]]:
    """Ordered pairs ``(r, r')`` of rule ids with ``features(r') subset-of
    features(r)`` and ``r != r'``: the rules ``r`` are those filed under
    every feature of ``r'``."""
    rules, index = classifier.rules, classifier.rules_by_feature
    pairs = set()
    for j, sub in enumerate(rules):
        supersets = set.intersection(*(set(index[f]) for f in sub.features))
        pairs.update((rules[i].id, sub.id) for i in supersets - {j})
    return pairs


def find_single_rules(classifier: Classifier) -> set[str]:
    """Rules whose every feature appears in no other rule: each files
    exactly one rule."""
    index = classifier.rules_by_feature
    return {r.id for r in classifier.rules
            if all(len(index[f]) == 1 for f in r.features)}


def prune(classifier: Classifier, rule_ids) -> Classifier:
    """Zero the weights of the named rules; the rules stay in the model."""
    ids = set(rule_ids)
    known = {r.id for r in classifier.rules}
    missing = ids - known
    if missing:
        raise UnknownRuleError(sorted(missing)[0])
    rules = tuple(replace(r, weight=0.0) if r.id in ids else r
                  for r in classifier.rules)
    return replace(classifier, rules=rules)


class _Digests(dict):
    """Canonical feature name -> digest, each name hashed once."""

    def __missing__(self, name: str) -> str:
        digest = self[name] = hash_feature(name)
        return digest


class TallyHits:
    """The rules of a classifier hit on the page a ``PageTally`` folds,
    kept up to date from the tally's journal.

    ``values`` is the tally's feature map with the classifier's keys
    (digests for a hashed model, each name hashed once) and ``hits`` its
    ``hit_table``.  :meth:`update` catches up with the tally's edits and
    :meth:`raw` adds up the score of ``hits``.  Each tracker keeps its own
    position in the journal, so any number of them can follow one tally."""

    def __init__(self, classifier: Classifier, tally: PageTally):
        self.classifier, self.tally = classifier, tally
        self._digests = digests = _Digests() if classifier.hashed else None
        self._read = len(tally.journal)
        fmap = tally.fmap()
        self.values = fmap if digests is None else \
            {digests[name]: value for name, value in fmap.items()}
        self.hits = hit_table(classifier, self.values)

    def update(self) -> set[int]:
        """Re-read the tally's :meth:`~PageTally.value` of each feature the
        journal lists past this tracker's position, re-evaluate the rules
        filed under those whose value changed, and return the positions of
        the rules whose gated product changed (an unhit rule's being
        None)."""
        clf, tally, values, hits = self.classifier, self.tally, self.values, self.hits
        journal, value_of = tally.journal, tally.value
        digests, index, dirty = self._digests, clf.rules_by_feature, set()
        for name in dict.fromkeys(journal[self._read:]):
            value = value_of(name)
            key = name if digests is None else digests[name]
            if values.get(key, 0.0) != value:
                if value:
                    values[key] = value
                else:
                    del values[key]
                dirty.update(index.get(key, ()))
        self._read = len(journal)
        changed = set()
        for i in dirty:
            product = gated_product(clf.rules[i], values, clf.freq_detect_threshold)
            if product != hits.get(i):
                changed.add(i)
                if product is None:
                    del hits[i]
                else:
                    hits[i] = product
        return changed

    def raw(self) -> float:
        return _raw(self.classifier, self.hits)


@dataclass
class ScoreOracle:
    """Query-counting wrapper around a classifier.

    Single owner per attack: the counter is not synchronized.
    """

    classifier: Classifier
    query_count: int = 0
    _state: TallyHits | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def score_map(self, fmap: FeatureValueMap) -> float:
        self.query_count += 1
        return score(self.classifier, fmap)

    def score_page(self, page: DomTree) -> float:
        return self.score_map(extract_all_features(page))

    def score_tally(self, tally: PageTally) -> float:
        """``score_map(tally.fmap())``, one query.  Successive calls on one
        tally re-evaluate only the rules that its edits since the last call
        touch; a call on another tally starts over."""
        self.query_count += 1
        state = self._state
        if state is None or state.tally is not tally \
                or state.classifier is not self.classifier:
            state = self._state = TallyHits(self.classifier, tally)
        state.update()
        return logistic(state.raw())


# -- model files -----------------------------------------------------------

def _rule_to_dict(rule: ClassificationRule, strip_weights: bool) -> dict:
    entry: dict = {"id": rule.id, "features": sorted(rule.features)}
    if not strip_weights:
        entry["weight"] = rule.weight
    return entry


def save_model(classifier: Classifier, path, strip_weights: bool = False) -> None:
    """Write the model as JSON; ``strip_weights`` omits rule weights, the
    grey-box export."""
    doc = {
        "bias": classifier.bias,
        "threshold": classifier.threshold,
        "freq_detect_threshold": classifier.freq_detect_threshold,
        "hashed": classifier.hashed,
        "rules": [_rule_to_dict(r, strip_weights) for r in classifier.rules],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"model file is missing {key!r}")
    return doc[key]


def _read_model_file(path) -> tuple[dict, list[tuple[dict, str, frozenset[str]]]]:
    """The model document and its rules as ``(entry, id, features)``, with
    the shape of the document and of every rule checked; a rule with no
    features raises :class:`SchemaError`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = decode_json(fh.read(), "model file")
    if not isinstance(doc, dict):
        raise SchemaError("model file must hold a JSON object")
    raw_rules = _require(doc, "rules")
    if not isinstance(raw_rules, list):
        raise SchemaError("model 'rules' must be a list")
    rules = []
    for entry in raw_rules:
        if not isinstance(entry, dict):
            raise SchemaError(f"model rule {clip(repr(entry))} is not a JSON object")
        rule_id = str(_require(entry, "id"))
        feats = _require(entry, "features")
        if not isinstance(feats, list) or not all(isinstance(f, str) for f in feats):
            raise SchemaError(f"rule {clip(repr(rule_id))}: "
                              "'features' must be a list of strings")
        if not feats:
            raise SchemaError(f"rule {clip(repr(rule_id))} has no features")
        rules.append((entry, rule_id, frozenset(feats)))
    return doc, rules


def load_model(path) -> Classifier:
    """Read a model file; a document of the wrong shape, a bias, threshold
    or weight that is not a finite number, or a ``hashed`` flag that is not
    ``true`` or ``false`` (a missing one means false), raises
    :class:`SchemaError`."""
    doc, entries = _read_model_file(path)
    bias = finite_number(_require(doc, "bias"), "model 'bias'")
    threshold = finite_number(_require(doc, "threshold"), "model 'threshold'")
    hashed = doc.get("hashed", False)
    if not isinstance(hashed, bool):
        raise SchemaError("model 'hashed' must be true or false, "
                          f"not {clip(repr(hashed))}")
    freq_t = finite_number(doc.get("freq_detect_threshold", 0.05),
                           "model 'freq_detect_threshold'")
    if not 0.0 < freq_t < 1.0:
        raise SchemaError("model 'freq_detect_threshold' must be in (0, 1)")
    rules = tuple(ClassificationRule(
        rule_id, feats,
        finite_number(_require(entry, "weight"),
                      f"rule {clip(repr(rule_id))} 'weight'"))
        for entry, rule_id, feats in entries)
    return Classifier(bias, rules, threshold, hashed, freq_t)


def load_rule_features(path) -> list[tuple[str, frozenset[str]]]:
    """Load just ``(id, features)`` pairs; accepts weight-stripped exports."""
    _, entries = _read_model_file(path)
    return [(rule_id, feats) for _, rule_id, feats in entries]
