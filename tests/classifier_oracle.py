"""Reference definitions of rule evaluation and of the rule analyses.

Every rule of the model is tested for a hit on the whole feature map, and
every pair of rules is compared for the subset and single-rule analyses.
The program reads only the rules that ``Classifier.rules_by_feature`` files
under the keys involved and multiplies a rule's values in one function,
``gated_product``; ``tests/test_classifier.py`` checks that both give the
same floats, bit for bit, and the same sets.  Values are multiplied in
sorted feature order with the weight last, as the program does.
"""

import math

from phishevade.features import hash_feature

FREQUENCY_NAMES = {"PageExternalLinksFreq", "PageSecureLinksFreq",
                   "PageActionOtherDomainFreq", "PageImgOtherDomainFreq"}
_FREQUENCY_KEYS = FREQUENCY_NAMES | {hash_feature(n) for n in FREQUENCY_NAMES}


def keyed(clf, fmap):
    """``fmap`` with the classifier's keys: digests for a hashed model."""
    return {hash_feature(k): v for k, v in fmap.items()} if clf.hashed else fmap


def hit(clf, rule, fmap) -> bool:
    """Every feature of ``rule`` is non-zero on ``fmap`` (already keyed)
    and, for a frequency feature, at least the detection threshold."""
    t = clf.freq_detect_threshold
    return all(fmap.get(f, 0.0) != 0.0
               and not (f in _FREQUENCY_KEYS and fmap[f] < t)
               for f in rule.features)


def product(rule, fmap) -> float:
    """The rule's feature values multiplied in sorted feature order."""
    return math.prod(fmap[f] for f in sorted(rule.features))


def raw_score(clf, fmap) -> float:
    """``bias + weight * product`` over every hit rule, in rule order."""
    fmap = keyed(clf, fmap)
    x = clf.bias
    for rule in clf.rules:
        if hit(clf, rule, fmap):
            x += rule.weight * product(rule, fmap)
    return x


def rule_products(clf, fmap) -> dict[int, float]:
    """The product of every hit non-zero-weight rule by rule position."""
    fmap = keyed(clf, fmap)
    return {i: product(rule, fmap) for i, rule in enumerate(clf.rules)
            if rule.weight != 0.0 and hit(clf, rule, fmap)}


def find_subset_rules(clf) -> set[tuple[str, str]]:
    """Every ordered pair of distinct rules whose second's features are a
    subset of the first's."""
    return {(a.id, b.id) for a in clf.rules for b in clf.rules
            if a.id != b.id and b.features <= a.features}


def find_single_rules(clf) -> set[str]:
    """The rules that share no feature with any other rule."""
    return {a.id for a in clf.rules
            if not any(a.id != b.id and a.features & b.features
                       for b in clf.rules)}
