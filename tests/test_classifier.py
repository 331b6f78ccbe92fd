import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishevade.classifier import (
    ClassificationRule,
    HashFormatError,
    SchemaError,
    ScoreOracle,
    UnknownRuleError,
    find_single_rules,
    find_subset_rules,
    hit_table,
    load_model,
    load_rule_features,
    logistic,
    partition_rules,
    prune,
    raw_score,
    rule_hit,
    save_model,
    score,
    unsatisfied,
)
from phishevade.features import extract_all_features, hash_feature

import classifier_oracle as reference
from conftest import build_page, make_classifier, rule


def test_logistic_midpoint_and_symmetry():
    assert logistic(0.0) == 0.5
    rng = random.Random(1)
    for _ in range(200):
        x = rng.uniform(-30, 30)
        assert abs(logistic(x) + logistic(-x) - 1.0) < 1e-12
    assert logistic(0.1) > 0.5 > logistic(-0.1)


def test_rule_hit_basics():
    r = rule("r1", {"PageHasForms"}, 1.0)
    assert rule_hit(r, {"PageHasForms": 1.0})
    r2 = rule("r2", {"PageHasForms", "PageTerm=login"}, 1.0)
    assert not rule_hit(r2, {"PageHasForms": 1.0})  # missing feature is 0


def test_rule_hit_frequency_threshold():
    r = rule("r", {"PageExternalLinksFreq"}, 1.0)
    assert not rule_hit(r, {"PageExternalLinksFreq": 0.01}, 0.05)
    assert rule_hit(r, {"PageExternalLinksFreq": 0.05}, 0.05)
    assert rule_hit(r, {"PageExternalLinksFreq": 0.2}, 0.05)


FREQUENCY_NAMES = {"PageExternalLinksFreq", "PageSecureLinksFreq",
                   "PageActionOtherDomainFreq", "PageImgOtherDomainFreq"}
PREDICATE_NAMES = sorted(FREQUENCY_NAMES | {
    "PageHasForms", "PageTerm=login", "PageNumScriptTags>1", "UrlPathToken=page"})


@settings(max_examples=300, deadline=None)
@given(data=st.data(), hashed=st.booleans(),
       t=st.floats(0.01, 0.9, allow_nan=False))
def test_unsatisfied_and_rule_hit_match_the_definition(data, hashed, t):
    """A feature is satisfied when its value is non-zero and, for a
    frequency feature, at least the detection threshold; a rule is hit
    when all of its features are satisfied.  Checked on plain and hashed
    names, with values absent, zero, below, at and above the threshold."""
    key = hash_feature if hashed else str
    fmap = {}
    for name in PREDICATE_NAMES:
        value = data.draw(st.one_of(
            st.none(), st.just(0.0), st.just(t),
            st.floats(0.0, t, exclude_min=True, exclude_max=True),
            st.floats(t, 5.0, exclude_min=True)))
        if value is not None:
            fmap[key(name)] = value
    names = data.draw(st.lists(st.sampled_from(PREDICATE_NAMES), min_size=1,
                               unique=True))

    def satisfied(name):
        value = fmap.get(key(name), 0.0)
        return value != 0.0 and (name not in FREQUENCY_NAMES or value >= t)

    feats = frozenset(key(n) for n in names)
    expected = {key(n) for n in names if not satisfied(n)}
    assert unsatisfied(feats, fmap, t) == expected
    assert rule_hit(rule("r", feats, 1.0), fmap, t) == (not expected)


def test_raw_score_empty_and_single_rule():
    empty = make_classifier([], bias=0.0)
    assert raw_score(empty, {}) == 0.0
    clf = make_classifier([rule("r2", {"UrlPathToken=login"}, 2.23)], bias=0.0)
    assert raw_score(clf, {"UrlPathToken=login": 1.0}) == pytest.approx(2.23)


def _brute_force_raw(clf, fmap):
    total = clf.bias
    for r in clf.rules:
        hit = all(fmap.get(f, 0.0) != 0.0
                  and not (f in ("PageExternalLinksFreq", "PageSecureLinksFreq",
                                 "PageActionOtherDomainFreq",
                                 "PageImgOtherDomainFreq")
                           and fmap.get(f, 0.0) < clf.freq_detect_threshold)
                  for f in r.features)
        if hit:
            product = 1.0
            for f in sorted(r.features):
                product *= fmap[f]
            total += r.weight * product
    return total


def _random_fixture(rng, n_rules=5, n_features=8):
    features = [f"PageTerm=w{i}" for i in range(n_features - 2)] + \
        ["PageExternalLinksFreq", "PageSecureLinksFreq"]
    rules = []
    for i in range(n_rules):
        feats = rng.sample(features, rng.randrange(1, 4))
        rules.append(rule(f"r{i}", feats, round(rng.uniform(-3, 3), 3)))
    clf = make_classifier(rules, bias=round(rng.uniform(-1, 1), 3))
    fmap = {}
    for f in features:
        roll = rng.random()
        if roll < 0.4:
            continue
        fmap[f] = round(rng.uniform(0.01, 1.0), 3) if "Freq" in f else 1.0
    return clf, fmap


def test_raw_score_matches_brute_force_summation():
    rng = random.Random(42)
    for _ in range(50):
        clf, fmap = _random_fixture(rng)
        assert raw_score(clf, fmap) == pytest.approx(
            _brute_force_raw(clf, fmap), abs=1e-12)


# weights with four decimals, as in a trained model, and frequency values
# that are ratios of link, action or image counts, as on a page
WEIGHTS = st.one_of(st.just(0.0), st.integers(-50_000, 50_000).map(lambda n: n / 1e4))
RATIOS = st.builds(lambda k, m: k / (k + m), st.integers(1, 40), st.integers(0, 40))


@st.composite
def models_and_maps(draw):
    """A plain or hashed model of up to 12 rules, some of weight zero: each
    over the predicate and frequency features, or over two to four
    frequency features, whose product then depends on the order its values
    are multiplied in.  The feature map values each frequency feature as a
    count ratio or leaves it out."""
    hashed = draw(st.booleans())
    key = hash_feature if hashed else str
    features = st.one_of(
        st.lists(st.sampled_from(PREDICATE_NAMES), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(sorted(FREQUENCY_NAMES)), min_size=2, max_size=4,
                 unique=True))
    rules = [rule(f"r{i:02d}", {key(name) for name in draw(features)}, draw(WEIGHTS))
             for i in range(draw(st.integers(0, 12)))]
    clf = make_classifier(rules, bias=draw(WEIGHTS), hashed=hashed,
                          freq_detect_threshold=draw(st.floats(0.01, 0.5)))
    fmap = {}
    for name in PREDICATE_NAMES:
        value = draw(st.one_of(st.none(), RATIOS) if name in FREQUENCY_NAMES
                     else st.sampled_from([None, 1.0]))
        if value is not None:
            fmap[name] = value
    return clf, fmap


@settings(max_examples=300, deadline=None)
@given(case=models_and_maps())
def test_one_evaluation_is_the_all_rules_reference_bit_for_bit(case):
    """Scores and the hit table without its zero-weight rules (the
    attacks' counted products), read through the rule index, equal a scan
    over every rule bit for bit, and the rule analyses read from the index
    give the pairwise scans' sets."""
    clf, fmap = case
    assert raw_score(clf, fmap).hex() == reference.raw_score(clf, fmap).hex()
    table = hit_table(clf, reference.keyed(clf, fmap))
    assert {i: p.hex() for i, p in table.items() if clf.rules[i].weight != 0.0} == \
        {i: p.hex() for i, p in reference.rule_products(clf, fmap).items()}
    assert find_subset_rules(clf) == reference.find_subset_rules(clf)
    assert find_single_rules(clf) == reference.find_single_rules(clf)


def test_rule_order_is_its_sorted_features_and_not_compared():
    a = rule("r", {"PageTerm=b", "PageHasForms", "PageTerm=a"}, 1.0)
    assert a.order == ("PageHasForms", "PageTerm=a", "PageTerm=b")
    assert a == rule("r", {"PageTerm=a", "PageTerm=b", "PageHasForms"}, 1.0)
    assert prune(make_classifier([a]), ["r"]).rules[0].order == a.order


def test_score_threshold_decision():
    clf = make_classifier([rule("r", {"PageHasForms"}, 0.1)], bias=0.0)
    assert score(clf, {"PageHasForms": 1.0}) >= 0.5          # x = 0.1
    assert score(clf, {}) < 0.5 or math.isclose(score(clf, {}), 0.5)
    assert score(clf, {}) == 0.5  # x = 0 sits exactly on the threshold


def test_partition_rules():
    clf = make_classifier([rule("a", {"f"}, 1.0), rule("b", {"g"}, -1.0),
                           rule("c", {"h"}, 0.0)])
    pos, neg = partition_rules(clf)
    assert [r.id for r in pos] == ["a"]
    assert [r.id for r in neg] == ["b"]


def test_partition_all_positive():
    clf = make_classifier([rule("a", {"f"}, 1.0), rule("b", {"g"}, 2.0)])
    pos, neg = partition_rules(clf)
    assert len(pos) == 2 and neg == []


def test_partition_sizes_on_fixture():
    rng = random.Random(5)
    weights = [round(rng.uniform(-2, 2), 2) or 0.5 for _ in range(20)]
    clf = make_classifier([rule(f"r{i}", {f"PageTerm=t{i}"}, w)
                           for i, w in enumerate(weights)])
    pos, neg = partition_rules(clf)
    assert len(pos) == sum(1 for w in weights if w > 0)
    assert len(neg) == sum(1 for w in weights if w < 0)


def test_find_subset_rules_simple():
    clf = make_classifier([rule("big", {"A", "B"}, 1.0), rule("small", {"A"}, 1.0)])
    assert find_subset_rules(clf) == {("big", "small")}


def test_find_subset_rules_disjoint_empty():
    clf = make_classifier([rule("a", {"A"}, 1.0), rule("b", {"B"}, 1.0)])
    assert find_subset_rules(clf) == set()


def test_find_subset_rules_matches_pairwise_oracle():
    rng = random.Random(11)
    feats = [f"F{i}" for i in range(6)]
    rules = [rule(f"r{i}", rng.sample(feats, rng.randrange(1, 5)), 1.0)
             for i in range(10)]
    clf = make_classifier(rules)
    assert find_subset_rules(clf) == reference.find_subset_rules(clf)


def test_find_single_rules():
    clf = make_classifier([
        rule("solo", {"X"}, 1.0),
        rule("pair1", {"Y", "Z"}, 1.0),
        rule("pair2", {"Z"}, 1.0),
    ])
    assert find_single_rules(clf) == {"solo"}


def test_find_single_rules_matches_occurrence_count_oracle():
    rng = random.Random(13)
    feats = [f"F{i}" for i in range(10)]
    rules = [rule(f"r{i}", rng.sample(feats, rng.randrange(1, 4)), 1.0)
             for i in range(12)]
    clf = make_classifier(rules)
    counts = {}
    for r in rules:
        for f in r.features:
            counts[f] = counts.get(f, 0) + 1
    expected = {r.id for r in rules if all(counts[f] == 1 for f in r.features)}
    assert find_single_rules(clf) == expected


def test_prune_empty_and_all():
    rng = random.Random(17)
    clf, fmap = _random_fixture(rng)
    same = prune(clf, [])
    assert raw_score(same, fmap) == raw_score(clf, fmap)
    zeroed = prune(clf, [r.id for r in clf.rules])
    assert raw_score(zeroed, fmap) == clf.bias


def test_prune_unknown_rule():
    clf = make_classifier([rule("a", {"f"}, 1.0)])
    with pytest.raises(UnknownRuleError):
        prune(clf, ["missing"])


def test_prune_delta_equals_contribution_sum():
    rng = random.Random(19)
    for _ in range(20):
        clf, fmap = _random_fixture(rng)
        subs = sorted({sub for _, sub in find_subset_rules(clf)})
        pruned = prune(clf, subs)
        expected_delta = 0.0
        hits = [r for r in clf.rules if rule_hit(r, fmap, clf.freq_detect_threshold)]
        for r in hits:
            if r.id in subs:
                product = r.weight
                for f in r.features:
                    product *= fmap[f]
                expected_delta += product
        assert raw_score(clf, fmap) - raw_score(pruned, fmap) == pytest.approx(
            expected_delta, abs=1e-12)


def test_subset_rule_entailment_property():
    rng = random.Random(23)
    for _ in range(30):
        clf, fmap = _random_fixture(rng, n_rules=8)
        t = clf.freq_detect_threshold
        for sup_id, sub_id in find_subset_rules(clf):
            if rule_hit(clf.rule(sup_id), fmap, t):
                assert rule_hit(clf.rule(sub_id), fmap, t)


def test_single_rule_isolation_property():
    rng = random.Random(29)
    clf, fmap = _random_fixture(rng, n_rules=10)
    t = clf.freq_detect_threshold
    for single_id in find_single_rules(clf):
        pruned = prune(clf, [single_id])
        before = {r.id: rule_hit(r, fmap, t) for r in clf.rules}
        after = {r.id: rule_hit(r, fmap, t) for r in pruned.rules}
        assert before == after  # pruning never changes hit status of others


# -- oracle ----------------------------------------------------------------------

def test_oracle_counts_queries():
    clf = make_classifier([rule("r", {"PageHasForms"}, 1.0)])
    oracle = ScoreOracle(clf)
    page = build_page(bare_form=True)
    oracle.score_page(page)
    assert oracle.query_count == 1
    for _ in range(4):
        oracle.score_page(page)
    assert oracle.query_count == 5


def test_oracle_equals_direct_score(paypal_page):
    clf = make_classifier([
        rule("r1", {"PageHasPswdInputs"}, 1.2),
        rule("r2", {"PageTerm=login", "UrlPathToken=signin"}, 0.8),
    ], bias=-0.5)
    oracle = ScoreOracle(clf)
    assert oracle.score_page(paypal_page) == score(
        clf, extract_all_features(paypal_page))


# -- model files -----------------------------------------------------------------

def test_model_round_trip(tmp_path):
    clf = make_classifier(
        [rule("a", {"PageHasForms", "PageTerm=login"}, 1.5),
         rule("b", {"PageSecureLinksFreq"}, -0.75)],
        bias=-0.25, threshold=0.6, freq_detect_threshold=0.1)
    path = tmp_path / "model.json"
    save_model(clf, path)
    again = load_model(path)
    assert again == clf


@pytest.mark.parametrize("doc", [
    {"bias": 0.0, "rules": []},
    {"bias": 0.0, "threshold": 0.5, "rules": 5},
    {"bias": 0.0, "threshold": 0.5, "rules": [1]},
    {"bias": 0.0, "threshold": 0.5,
     "rules": [{"id": "r", "features": "PageHasForms", "weight": 1.0}]},
    {"bias": 0.0, "threshold": 0.5, "freq_detect_threshold": 0, "rules": []},
    {"bias": 0.0, "threshold": 0.5,
     "rules": [{"id": "r", "features": ["PageHasForms"], "weight": float("inf")}]},
    {"bias": 0.0, "threshold": float("nan"), "rules": []},
    {"bias": "0.5", "threshold": 0.5, "rules": []},
    {"bias": 0.0, "threshold": 0.5,
     "rules": [{"id": "r", "features": ["PageHasForms"], "weight": True}]},
    {"bias": 10 ** 400, "threshold": 0.5, "rules": []},
], ids=["missing-threshold", "rules-not-a-list", "rule-not-an-object",
        "features-a-string", "freq-threshold-zero", "weight-infinite",
        "threshold-nan", "bias-a-string", "weight-a-boolean",
        "bias-too-large-an-integer"])
def test_malformed_model_is_schema_error(tmp_path, doc):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5])
def test_classifier_rejects_frequency_threshold_outside_unit_interval(t):
    with pytest.raises(ValueError, match="freq_detect_threshold"):
        make_classifier([rule("a", {"PageHasForms"}, 1.0)],
                        freq_detect_threshold=t)


def test_hashed_model_round_trip_and_scoring(tmp_path):
    digest = hash_feature("PageTerm=login")
    clf = make_classifier([rule("h1", {digest}, 2.0)], bias=-1.0, hashed=True)
    path = tmp_path / "hashed.json"
    save_model(clf, path)
    again = load_model(path)
    assert again.hashed
    # plaintext extraction output is hashed before hit testing
    assert raw_score(again, {"PageTerm=login": 1.0}) == pytest.approx(1.0)
    assert raw_score(again, {"PageTerm=other": 1.0}) == pytest.approx(-1.0)


def test_hashed_model_rejects_bad_digests():
    with pytest.raises(HashFormatError):
        make_classifier([rule("h", {"nothex"}, 1.0)], hashed=True)


def test_strip_weights_export(tmp_path):
    clf = make_classifier([rule("a", {"PageHasForms"}, 1.5)])
    path = tmp_path / "grey.json"
    save_model(clf, path, strip_weights=True)
    import json
    doc = json.loads(path.read_text())
    assert "weight" not in doc["rules"][0]
    with pytest.raises(SchemaError):
        load_model(path)  # full load requires weights
    assert load_rule_features(path) == [("a", frozenset({"PageHasForms"}))]


@pytest.mark.parametrize("weighted", [True, False])
def test_a_rule_with_no_features_is_schema_error(tmp_path, weighted):
    entry = {"id": "p01", "features": []}
    if weighted:
        entry["weight"] = 1.0
    path = tmp_path / "empty-rule.json"
    path.write_text(json.dumps({"bias": 0.0, "threshold": 0.5,
                                "rules": [entry]}))
    for load in (load_model, load_rule_features):
        with pytest.raises(SchemaError, match="'p01' has no features"):
            load(path)


def test_hashed_twin_scores_match_plaintext(paypal_page):
    plain = make_classifier([
        rule("r1", {"PageHasPswdInputs", "PageTerm=login"}, 1.4),
        rule("r2", {"PageExternalLinksFreq"}, 0.6),
    ], bias=-0.4)
    hashed_rules = [ClassificationRule(r.id,
                                       frozenset(hash_feature(f) for f in r.features),
                                       r.weight) for r in plain.rules]
    twin = make_classifier(hashed_rules, bias=-0.4, hashed=True)
    fmap = extract_all_features(paypal_page)
    assert score(twin, fmap) == pytest.approx(score(plain, fmap), abs=1e-12)
