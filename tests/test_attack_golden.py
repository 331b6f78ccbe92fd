"""Golden equivalence for the white, grey and black attacks.

``attack_golden.json`` holds, per attack run, the status, the trajectory,
the mutated feature and rule counts, the queries, the black-box additions
and the SHA-256 of the final page's HTML.  The runs cover the 30 suite seed
pages at all three levels, the six single-rule seeds of criterion 10, a
hashed twin of the suite model, and randomized models and pages.

The file was recorded before the three attack loops were folded into one
skeleton; any change to it is a change in attack behaviour.  Regenerate it
only for an intended behaviour change, with::

    PYTHONPATH=src python tests/test_attack_golden.py
"""

import hashlib
import json
import os
import random

import pytest

from phishevade.attacks import (
    black_box,
    black_knowledge,
    grey_box,
    grey_knowledge,
    white_box,
    white_knowledge,
)
from phishevade.classifier import ClassificationRule, ScoreOracle, find_single_rules
from phishevade.dom import serialize
from phishevade.features import hash_feature
from phishevade.mutation import ElementSpec

from conftest import (
    build_page,
    make_classifier,
    single_rule_model,
    single_rule_seeds,
    suite_model,
    suite_pool,
    suite_seed_pages,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "attack_golden.json")


def _record(result) -> dict:
    return {
        "status": result.status,
        "trajectory": [[s.op, s.score] for s in result.trajectory],
        "mutated_features": result.mutated_features,
        "mutated_rules": result.mutated_rules,
        "queries": result.queries,
        "additions": result.additions,
        "score_after_modification": result.score_after_modification,
        "final_sha256": hashlib.sha256(
            serialize(result.final_page).encode("utf-8")).hexdigest(),
    }


def _three_levels(clf, page, pool, rng_seed, budget=2000):
    rules = [(r.id, r.features) for r in clf.rules]
    return {
        "white": white_box(white_knowledge(clf, ScoreOracle(clf)), page),
        "grey": grey_box(grey_knowledge(rules, ScoreOracle(clf)), page),
        "black": black_box(black_knowledge(ScoreOracle(clf)), page, pool,
                           budget=budget, rng_seed=rng_seed),
    }


def _suite():
    clf, pool = suite_model(), suite_pool()
    out = {}
    for i, (_, page) in enumerate(suite_seed_pages()):
        for level, result in _three_levels(clf, page, pool, 100 + i).items():
            out[f"{i:02d}-{level}"] = _record(result)
    return out


def _single_rule():
    """The criterion-10 model and seeds, attacked with ``only_rules``."""
    clf = single_rule_model()
    singles = find_single_rules(clf)
    return {f"{i}-white": _record(white_box(white_knowledge(clf, ScoreOracle(clf)),
                                            page, only_rules=singles))
            for i, page in enumerate(single_rule_seeds())}


def _hashed():
    """A hashed twin of the suite model: white and grey know only digests
    and find nothing to mutate; black works from the oracle alone."""
    plain = suite_model()
    twin = make_classifier(
        [ClassificationRule(r.id, frozenset(hash_feature(f) for f in r.features),
                            r.weight) for r in plain.rules],
        bias=plain.bias, hashed=True)
    pool = suite_pool()
    out = {}
    for i, (_, page) in enumerate(suite_seed_pages(per_bucket=2)):
        for level, result in _three_levels(twin, page, pool, 200 + i).items():
            out[f"{i:02d}-{level}"] = _record(result)
    return out


def _randomized():
    """Random rule sets over every feature family, including frequency and
    URL features, on random pages."""
    rng = random.Random(23)
    terms = [f"word{i}" for i in range(12)]
    kinds = ([f"PageTerm={t}" for t in terms] +
             ["PageHasForms", "PageHasTextInputs", "PageHasPswdInputs",
              "PageHasRadioInputs", "PageHasCheckInputs", "PageNumScriptTags>1",
              "PageExternalLinksFreq", "PageSecureLinksFreq",
              "PageActionOtherDomainFreq", "PageImgOtherDomainFreq",
              "PageLinkDomain=elsewhere.example.com", "UrlPathToken=page",
              "UrlDomain=unique-nowhere.test"])
    out = {}
    for trial in range(40):
        rules = [ClassificationRule(f"r{i:02d}",
                                    frozenset(rng.sample(kinds, rng.randrange(1, 4))),
                                    round(rng.uniform(-2, 2), 2))
                 for i in range(rng.randrange(3, 14))]
        clf = make_classifier(rules, bias=round(rng.uniform(-1, 1), 2))
        page = build_page(
            url=f"http://gz{trial:03d}.test/page", host=f"gz{trial:03d}.test",
            terms=rng.sample(terms, rng.randrange(0, 6)),
            secure_links=rng.randrange(3),
            insecure_external_links=rng.randrange(3),
            internal_links=rng.randrange(3),
            actions=rng.sample(["http://drop.example/p", "/local"], rng.randrange(0, 3)),
            input_types=rng.sample(["text", "password", "radio", "checkbox"],
                                   rng.randrange(0, 3)),
            imgs=rng.sample(["http://pics.example/a.png", "/b.png"], rng.randrange(0, 3)),
            scripts=rng.randrange(3), bare_form=rng.random() < 0.5,
            filler=rng.randrange(4))
        pool = [ElementSpec("div", (), t) for t in rng.sample(terms, 6)]
        pool.append(ElementSpec("input", (("type", "checkbox"),)))
        if ScoreOracle(clf).score_page(page) < clf.threshold:
            continue
        for level, result in _three_levels(clf, page, pool, trial, budget=300).items():
            out[f"{trial:02d}-{level}"] = _record(result)
    return out


GROUPS = {
    "suite": _suite,
    "single_rule": _single_rule,
    "hashed": _hashed,
    "randomized": _randomized,
}


def _load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_attacks_reproduce_golden_records(group):
    expected = _load_golden()[group]
    actual = json.loads(json.dumps(GROUPS[group]()))
    assert sorted(actual) == sorted(expected)
    mismatched = [case for case in sorted(expected) if actual[case] != expected[case]]
    assert not mismatched, (mismatched[0], actual[mismatched[0]], expected[mismatched[0]])


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: make() for name, make in sorted(GROUPS.items())}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
