import copy
import random
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phishevade import attacks
from phishevade.attacks import (
    _PLAN_FAILURES,
    BUDGET_EXHAUSTED,
    EXHAUSTED,
    SUCCESS,
    RuleAlreadyHit,
    _Run,
    black_box,
    black_knowledge,
    grey_box,
    grey_knowledge,
    influence_feature,
    influence_rule,
    white_box,
    white_knowledge,
)
from phishevade import classifier
from phishevade.classifier import (
    ScoreOracle,
    raw_score,
    rule_hit,
    score,
    unsatisfied,
)
from phishevade.dom import serialize
from phishevade.features import (
    PageTally,
    extract_all_features,
    extract_page_features,
    hash_feature,
)
from phishevade.mutation import (
    ElementSpec,
    FeatureAbsent,
    MutationPlan,
    addable_feature,
    apply,
    deletable_feature,
    plan_add_rule,
    plan_delete_feature,
    preservation_check,
    split_avoid_terms,
)

import classifier_oracle as reference
from conftest import (
    build_page,
    make_classifier,
    planned,
    rule,
    suite_model,
    suite_pool,
    suite_seed_pages,
)

FREQ = {"PageExternalLinksFreq", "PageSecureLinksFreq",
        "PageActionOtherDomainFreq", "PageImgOtherDomainFreq"}


# -- influence: brute-force rescoring oracles -----------------------------------

def brute_delta_feature(clf, fmap, feat):
    zeroed = dict(fmap)
    zeroed[feat] = 0.0
    return raw_score(clf, fmap) - raw_score(clf, zeroed)


def brute_delta_rule(clf, fmap, r):
    t = clf.freq_detect_threshold
    post = dict(fmap)
    for feat in r.features:
        value = post.get(feat, 0.0)
        if value == 0.0 or (feat in FREQ and value < t):
            post[feat] = 1.0
    return raw_score(clf, post) - raw_score(clf, fmap)


def test_influence_feature_single_rule():
    clf = make_classifier([rule("r", {"f"}, 1.7)])
    assert influence_feature(clf, {"f": 1.0}, "f") == pytest.approx(1.7)


def test_influence_feature_zero_when_no_hit_rule():
    clf = make_classifier([rule("r", {"f", "g"}, 1.7)])
    assert influence_feature(clf, {"f": 1.0}, "f") == 0.0


def test_influence_feature_absent_raises():
    clf = make_classifier([rule("r", {"f"}, 1.0)])
    with pytest.raises(FeatureAbsent):
        influence_feature(clf, {}, "f")


def test_influence_rule_isolated_negative():
    clf = make_classifier([rule("n", {"f"}, -2.0)])
    assert influence_rule(clf, {}, clf.rule("n")) == pytest.approx(-2.0)


def test_influence_rule_subset_entailment():
    clf = make_classifier([rule("big", {"f", "g"}, -2.0),
                           rule("sub", {"g"}, -1.0)])
    assert influence_rule(clf, {}, clf.rule("big")) == pytest.approx(-3.0)


def test_influence_rule_already_hit():
    clf = make_classifier([rule("n", {"f"}, -2.0)])
    with pytest.raises(RuleAlreadyHit):
        influence_rule(clf, {"f": 1.0}, clf.rule("n"))


def _random_fixture(rng, n_rules, n_features):
    names = [f"PageTerm=w{i}" for i in range(n_features - 3)] + [
        "PageExternalLinksFreq", "PageSecureLinksFreq", "PageImgOtherDomainFreq"]
    rules = [rule(f"r{i:02d}", rng.sample(names, rng.randrange(1, 4)),
                  round(rng.uniform(-4, 4), 3))
             for i in range(n_rules)]
    clf = make_classifier(rules, bias=round(rng.uniform(-1, 1), 3))
    fmap = {}
    for name in names:
        roll = rng.random()
        if roll < 0.45:
            continue
        fmap[name] = round(rng.uniform(0.02, 1.0), 3) if name in FREQ else 1.0
    return clf, fmap


def test_influence_matches_brute_force_on_random_fixtures():
    rng = random.Random(2024)
    for _ in range(30):
        clf, fmap = _random_fixture(rng, n_rules=8, n_features=10)
        t = clf.freq_detect_threshold
        for feat in fmap:
            if fmap[feat] == 0.0:
                continue
            assert influence_feature(clf, fmap, feat) == pytest.approx(
                brute_delta_feature(clf, fmap, feat), abs=1e-12)
        for r in clf.rules:
            if rule_hit(r, fmap, t):
                continue
            assert influence_rule(clf, fmap, r) == pytest.approx(
                brute_delta_rule(clf, fmap, r), abs=1e-12)


def rule_contribution(r, fmap):
    """The rule's weight times its feature values in sorted feature order,
    hit or not."""
    product = 1.0
    for feat in sorted(r.features):
        product *= fmap.get(feat, 0.0)
    return r.weight * product


def full_scan_influence_feature(clf, fmap, feat):
    """``influence_feature`` read over every rule of the model."""
    total = 0.0
    for r in clf.rules:
        if feat in r.features and rule_hit(r, fmap, clf.freq_detect_threshold):
            total += rule_contribution(r, fmap)
    return total


def full_scan_influence_rule(clf, fmap, added):
    """``influence_rule`` read over every rule of the model."""
    t = clf.freq_detect_threshold
    post = {**fmap, **dict.fromkeys(unsatisfied(added.features, fmap, t), 1.0)}
    total = 0.0
    for r in clf.rules:
        missing = unsatisfied(r.features, fmap, t)
        if missing and missing <= added.features:
            total += rule_contribution(r, post)
    return total


def test_influence_from_the_index_is_the_full_scan_bit_for_bit():
    """The index-driven influence sums add the same terms in the same order
    as a scan over every rule, on models with up to 40 rules sharing
    features."""
    rng = random.Random(16)
    for _ in range(60):
        clf, fmap = _random_fixture(rng, n_rules=rng.randrange(1, 40),
                                    n_features=rng.randrange(4, 14))
        for feat in fmap:
            assert influence_feature(clf, fmap, feat) == \
                full_scan_influence_feature(clf, fmap, feat)
        for r in clf.rules:
            if not rule_hit(r, fmap, clf.freq_detect_threshold):
                assert influence_rule(clf, fmap, r) == \
                    full_scan_influence_rule(clf, fmap, r)


# -- white-box -------------------------------------------------------------------

def test_white_single_deletion_success():
    clf = make_classifier([rule("p", {"PageTerm=signin"}, 0.9)], bias=-0.5)
    page = build_page(terms=["signin"])
    result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
    assert result.success and result.status == SUCCESS
    assert result.mutated_features == 1
    assert result.trajectory[-1].score < 0.5


def test_white_exhausted_on_undeletable_rules():
    clf = make_classifier([
        rule("p1", {"PageNumScriptTags>1"}, 0.6),
        rule("p2", {"PageHasForms"}, 0.5),
        rule("p3", {"UrlPathToken=page"}, 0.4),
    ], bias=-0.2)
    page = build_page(bare_form=True, scripts=2)
    result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
    assert not result.success and result.status == EXHAUSTED
    assert result.trajectory[-1].score >= 0.5


DELETABLE_SIMPLE = {"PageHasTextInputs", "PageHasPswdInputs"} | FREQ


def _deletable(feat):
    return feat in DELETABLE_SIMPLE or feat.startswith(
        ("PageTerm=", "PageActionURL=", "PageLinkDomain="))


def lookahead_choice(clf, fmap):
    """Independent one-step maximizer: every delta computed by rescoring."""
    t = clf.freq_detect_threshold
    base = raw_score(clf, fmap)
    deletions = {}
    positive_feats = {f for r in clf.rules if r.weight > 0 for f in r.features}
    for feat in positive_feats:
        if not _deletable(feat) or fmap.get(feat, 0.0) == 0.0:
            continue
        delta = brute_delta_feature(clf, fmap, feat)
        if delta > 0:
            deletions[feat] = delta
    additions = {}
    for r in clf.rules:
        if r.weight >= 0 or rule_hit(r, fmap, t):
            continue
        unsat = {f for f in r.features
                 if fmap.get(f, 0.0) == 0.0
                 or (f in FREQ and fmap.get(f, 0.0) < t)}
        if any(f.startswith("Url") for f in unsat):
            continue
        delta = brute_delta_rule(clf, fmap, r)
        if delta < 0:
            additions[r.id] = delta
    best_del = min(deletions.items(), key=lambda kv: (-kv[1], kv[0]), default=None)
    best_add = min(additions.items(), key=lambda kv: (kv[1], kv[0]), default=None)
    if best_del and (best_add is None or best_del[1] >= -best_add[1]):
        return ("delete", best_del[0])
    if best_add:
        return ("add", best_add[0])
    return None


def test_white_suite_matches_lookahead_oracle():
    clf = suite_model()
    avoid = {f.split("=", 1)[1] for r in clf.rules if r.weight > 0
             for f in r.features if f.startswith("PageTerm=")}
    for bucket, page in suite_seed_pages(per_bucket=2):
        result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
        assert result.success, bucket
        scores = [s.score for s in result.trajectory]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        assert scores[-1] < 0.5

        # replay: at every state the attack's choice must equal the
        # independent rescoring maximizer's choice
        tree = page
        for step in result.trajectory[1:]:
            fmap = extract_all_features(tree)
            choice = lookahead_choice(clf, fmap)
            assert choice is not None
            kind, arg = choice
            expected = f"delete {arg}" if kind == "delete" else f"add rule {arg}"
            assert step.op == expected
            if kind == "delete":
                plan = planned(plan_delete_feature, tree, arg,
                               clf.freq_detect_threshold, avoid)
            else:
                plan = planned(plan_add_rule, tree, clf.rule(arg).features,
                               clf.freq_detect_threshold)
            tree = apply(tree, plan)
        assert serialize(tree) == serialize(result.final_page)


def test_attacks_copy_the_page_once(copied_trees):
    """Each attack copies the seed page once, whatever it offers, and
    leaves the seed page as it was."""
    clf = suite_model()
    grey = [(r.id, r.features) for r in clf.rules]
    attacks = [
        lambda page: white_box(white_knowledge(clf, ScoreOracle(clf)), page),
        lambda page: grey_box(grey_knowledge(grey, ScoreOracle(clf)), page),
        lambda page: black_box(black_knowledge(ScoreOracle(clf)), page,
                               suite_pool(), rng_seed=3),
    ]
    for _, page in suite_seed_pages(per_bucket=1):
        before = serialize(page)
        for attack in attacks:
            copied_trees.clear()
            result = attack(page)
            assert len(result.trajectory) >= 2
            assert copied_trees == [page]
            assert serialize(page) == before


def test_white_bans_a_kept_step_that_does_not_lower_the_score(monkeypatch):
    """At t = 0.6 adding r1 pads secure links, which drops the external
    ratio below t and unhits r0, and adding r0 back pads external links,
    which unhits r1; each padding is about 1.5 times the last.  The re-added
    r0 raises the score, so its candidate is banned and the attack ends
    after four steps instead of growing the page for 50."""
    pushes = []
    push = MutationPlan.push

    def capped(plan, op):
        pushes.append(op)
        if len(pushes) > 10_000:
            raise RuntimeError("runaway padding")
        push(plan, op)

    monkeypatch.setattr(MutationPlan, "push", capped)
    clf = make_classifier([rule("r0", {"PageExternalLinksFreq"}, -0.5),
                           rule("r1", {"PageTerm=signin", "PageTerm=ab",
                                       "PageSecureLinksFreq"}, -0.5)],
                          bias=0.75, freq_detect_threshold=0.6)
    page = build_page(terms=["signin", "ab"], internal_links=2)
    result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
    assert result.status == EXHAUSTED
    assert [s.op for s in result.trajectory] == [
        "initial", "add rule r0", "add rule r1", "add rule r0", "add rule r1"]
    assert len(pushes) < 100


def test_white_rules_vs_features_accounting():
    clf = suite_model()
    for bucket, page in suite_seed_pages(per_bucket=1):
        result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
        assert result.mutated_rules >= result.mutated_features >= 1


def test_white_restricted_to_single_rules():
    clf = make_classifier([
        rule("s1", {"PageTerm=alpha"}, 1.0),
        rule("s2", {"PageTerm=beta"}, 0.8),
        rule("shared1", {"PageTerm=gamma", "PageHasForms"}, 0.5),
        rule("shared2", {"PageHasForms"}, 0.4),
        rule("sneg", {"PageTerm=quiet"}, -1.5),
    ], bias=-0.4)
    singles = {"s1", "s2", "sneg"}
    page = build_page(terms=["alpha", "beta", "gamma"], bare_form=True)
    result = white_box(white_knowledge(clf, ScoreOracle(clf)), page,
                       only_rules=singles)
    assert result.success
    for step in result.trajectory[1:]:
        assert any(key in step.op for key in
                   ["PageTerm=alpha", "PageTerm=beta", "sneg"])


# -- grey-box --------------------------------------------------------------------

def _grey(clf):
    return [(r.id, r.features) for r in clf.rules]


def test_grey_knowledge_rejects_a_rule_with_no_features():
    clf = suite_model()
    rules = _grey(clf) + [("empty", frozenset())]
    with pytest.raises(ValueError, match="'empty' has no features"):
        grey_knowledge(rules, ScoreOracle(clf))


def test_grey_knowledge_rejects_a_repeated_id():
    clf = suite_model()
    with pytest.raises(ValueError, match="unique"):
        grey_knowledge(_grey(clf) + _grey(clf)[:1], ScoreOracle(clf))


def test_grey_knowledge_is_a_unit_weight_model_of_the_known_rules():
    clf = replace(suite_model(), threshold=0.6, freq_detect_threshold=0.1)
    known = random.Random(18).sample(_grey(clf), len(clf.rules))
    model = grey_knowledge(known, ScoreOracle(clf)).model
    assert [r.id for r in model.rules] == sorted(r.id for r in clf.rules)
    assert {(r.id, r.features) for r in model.rules} == set(known)
    assert {r.weight for r in model.rules} == {1.0}
    assert (model.bias, model.threshold, model.freq_detect_threshold,
            model.hashed) == (0.0, 0.6, 0.1, False)


@pytest.mark.parametrize("fillers", [0, 1000])
def test_one_grey_knowledge_serves_every_page(fillers):
    """One grey knowledge reused over the 30 suite pages, and knowledge of
    the known rules in a shuffled order, give each page the trajectory,
    queries, counters and final HTML of a fresh knowledge, also with 1,000
    inert filler rules known."""
    known = _grey(suite_model()) + [
        (f"zf{i:04d}", frozenset({f"PageTerm=inertfiller{i:04d}"}))
        for i in range(fillers)]
    shuffled = random.Random(fillers).sample(known, len(known))
    clf = suite_model()
    reused = grey_knowledge(known, ScoreOracle(clf))
    for _, page in suite_seed_pages():
        fresh = _outcome(grey_box(grey_knowledge(known, ScoreOracle(clf)), page))
        assert _outcome(grey_box(reused, page)) == fresh
        assert _outcome(grey_box(grey_knowledge(shuffled, ScoreOracle(clf)),
                                 page)) == fresh


def test_grey_succeeds_with_deletions_only():
    clf = make_classifier([rule("p1", {"PageTerm=signin"}, 0.9),
                           rule("p2", {"PageHasPswdInputs"}, 1.1)], bias=-0.5)
    page = build_page(terms=["signin"], input_types=["password"])
    oracle = ScoreOracle(clf)
    result = grey_box(grey_knowledge(_grey(clf), oracle), page)
    assert result.success
    assert all("delete" in s.op for s in result.trajectory[1:])


def test_grey_succeeds_via_addition_phase():
    clf = make_classifier([
        rule("p1", {"PageHasForms"}, 0.7),            # undeletable
        rule("n1", {"PageTerm=privacy"}, -1.5),
    ], bias=-0.2)
    page = build_page(bare_form=True)
    result = grey_box(grey_knowledge(_grey(clf), ScoreOracle(clf)), page)
    assert result.success
    assert any(s.op == "add rule n1" for s in result.trajectory)


def test_grey_suite_success_and_cost_vs_white(capsys):
    clf = suite_model()
    pairs = []
    for bucket, page in suite_seed_pages(per_bucket=2):
        grey_result = grey_box(grey_knowledge(_grey(clf), ScoreOracle(clf)), page)
        white_result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
        assert grey_result.success
        scores = [s.score for s in grey_result.trajectory]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        pairs.append((bucket, grey_result.mutated_features,
                      white_result.mutated_features))
    # reported, not asserted: grey usually needs at least as many mutations
    wins = sum(1 for _, g, w in pairs if g >= w)
    print(f"grey >= white mutated features on {wins}/{len(pairs)} seeds")


# -- black-box -------------------------------------------------------------------

def test_black_phase1_only_success():
    clf = make_classifier([rule("p", {"PageHasPswdInputs"}, 0.8)], bias=-0.3)
    page = build_page(input_types=["password"])
    result = black_box(black_knowledge(ScoreOracle(clf)), page, suite_pool(),
                       rng_seed=1)
    assert result.success
    assert result.additions == 0
    assert result.score_after_modification < 0.5


def test_black_addition_phase_with_rollback(monkeypatch):
    # positives undeletable, negatives reachable only through the pool
    clf = make_classifier([
        rule("p1", {"PageHasForms"}, 0.6),
        rule("p2", {"PageNumScriptTags>1"}, 0.5),
        rule("n1", {"PageTerm=privacy"}, -0.45),
        rule("n2", {"PageTerm=copyright"}, -0.4),
        rule("n3", {"PageHasCheckInputs"}, -0.35),
    ], bias=-0.1)
    page = build_page(bare_form=True, scripts=2)
    # every rejected offer leaves the working page byte-identical to the page
    # after the previous offer, and its tally equal to that page's tally
    def state(tree, tally):
        return serialize(tree), dict(tally.features), copy.copy(tally.counts)

    tally = PageTally(page.source_url)
    extract_page_features(page, tally)
    current = [state(page, tally)]
    rolled_back = []
    offer = _Run.offer

    def checked(run, label, feature_step=True):
        kept = offer(run, label, feature_step)
        now = state(run.plan.tree, run.plan.tally)
        if not kept:
            assert now == current[-1]
            rolled_back.append(label)
        _assert_run_tables_are_the_reference(run, clf)
        current.append(now)
        return kept

    monkeypatch.setattr(_Run, "offer", checked)
    oracle = ScoreOracle(clf)
    before = oracle.query_count
    result = black_box(black_knowledge(oracle), page, suite_pool(),
                       batch=3, budget=500, rng_seed=7)
    assert result.success
    assert result.additions > 0
    assert result.score_after_modification >= 0.5
    assert result.queries == oracle.query_count - before
    assert any(label.startswith("add batch") for label in rolled_back)
    scores = [s.score for s in result.trajectory]
    assert all(b < a for a, b in zip(scores, scores[1:]))


def _assert_run_tables_are_the_reference(run, counted):
    """After an offer, kept or undone, the plan holds the kept page:
    ``run.fmap`` is its feature map and ``run.hits`` without its
    zero-weight rules its counted products, bit for bit, both in the keys
    of the counted model."""
    fmap = run.plan.fmap
    assert run.fmap == reference.keyed(counted, fmap)
    assert {i: p.hex() for i, p in run.hits.items()
            if counted.rules[i].weight != 0.0} == \
        {i: p.hex() for i, p in reference.rule_products(counted, fmap).items()}


@pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed-twin"])
def test_the_run_tables_are_the_reference_after_every_offer(monkeypatch, hashed):
    """White, grey and black on suite pages, with the suite model and with
    its hashed twin, whose digests grey knows as plain rule features."""
    clf = suite_model()
    if hashed:
        clf = make_classifier([rule(r.id, {hash_feature(f) for f in r.features},
                                    r.weight) for r in clf.rules],
                              bias=clf.bias, hashed=True)
    offer, counted, outcomes = _Run.offer, [], []

    def checked(run, label, feature_step=True):
        kept = offer(run, label, feature_step)
        _assert_run_tables_are_the_reference(run, counted[-1])
        outcomes.append(kept)
        return kept

    monkeypatch.setattr(_Run, "offer", checked)
    for _, page in suite_seed_pages():
        for knowledge, attack in [
                (white_knowledge(clf, ScoreOracle(clf)), white_box),
                (grey_knowledge(_grey(clf), ScoreOracle(clf)), grey_box),
                (black_knowledge(ScoreOracle(clf)),
                 lambda k, p: black_box(k, p, suite_pool(), rng_seed=5))]:
            counted.append(knowledge.model or clf)
            attack(knowledge, page)
    assert True in outcomes and False in outcomes


def test_a_kept_candidate_evaluates_only_the_rules_it_touches(monkeypatch):
    """Keeping a candidate re-evaluates, for the oracle and for the counted
    rules, only the rules filed under the features the candidate changed:
    a rule the page hits whose features it left alone is not evaluated."""
    clf = make_classifier([rule("touched", {"PageTerm=signin"}, 0.9),
                           rule("untouched", {"PageHasPswdInputs", "PageTerm=verify"},
                                1.1)], bias=-0.5)
    page = build_page(terms=["signin", "verify"], input_types=["password"])
    gated_product = classifier.gated_product
    for knowledge in [white_knowledge(clf, ScoreOracle(clf)),
                      grey_knowledge(_grey(clf), ScoreOracle(clf)),
                      black_knowledge(ScoreOracle(clf))]:
        run = _Run(knowledge, page)
        assert len(run.hits) == 2
        plan_delete_feature(run.plan, "PageTerm=signin", clf.freq_detect_threshold)
        evaluated = []
        monkeypatch.setattr(classifier, "gated_product", lambda r, fmap, t: (
            evaluated.append(r.id) or gated_product(r, fmap, t)))
        assert run.offer("delete PageTerm=signin")
        monkeypatch.setattr(classifier, "gated_product", gated_product)
        assert evaluated and set(evaluated) == {"touched"}
        assert run.mutated_rules == 1 and len(run.hits) == 1


def test_black_deterministic_per_seed():
    clf = make_classifier([
        rule("p1", {"PageHasForms"}, 0.6),
        rule("n1", {"PageTerm=privacy"}, -0.9),
    ], bias=-0.05)
    page = build_page(bare_form=True)
    runs = [black_box(black_knowledge(ScoreOracle(clf)), page, suite_pool(),
                      rng_seed=42) for _ in range(2)]
    assert serialize(runs[0].final_page) == serialize(runs[1].final_page)
    assert runs[0].trajectory == runs[1].trajectory
    assert runs[0].additions == runs[1].additions


def test_black_budget_exhausted_without_useful_pool():
    clf = make_classifier([rule("p1", {"PageHasForms"}, 0.8)], bias=-0.1)
    page = build_page(bare_form=True)
    pool = [ElementSpec("div", (), "meadow")]   # hits nothing
    result = black_box(black_knowledge(ScoreOracle(clf)), page, pool,
                       budget=30, rng_seed=3)
    assert not result.success and result.status == BUDGET_EXHAUSTED
    assert result.additions == 30


def test_black_suite_success():
    clf = suite_model()
    pool = suite_pool()
    for bucket, page in suite_seed_pages(per_bucket=2):
        result = black_box(black_knowledge(ScoreOracle(clf)), page, pool,
                           rng_seed=11)
        assert result.success, bucket


@pytest.mark.parametrize("level", ["white", "grey", "black", "white-at-0.9"])
def test_an_attack_stops_at_its_oracles_threshold(level):
    """An attack succeeds exactly when its oracle's classifier no longer
    flags the final page, whatever threshold the attacker's model holds:
    each level against an oracle at 0.4 with knowledge built from the
    suite model at 0.5, and white planning from the suite model at 0.9
    against the suite oracle at 0.5."""
    suite = suite_model()
    if level == "white-at-0.9":
        oracle_model, attacker = suite, replace(suite, threshold=0.9)
    else:
        oracle_model, attacker = replace(suite, threshold=0.4), suite
    oracle = ScoreOracle(oracle_model)
    if level == "grey":
        knowledge = grey_knowledge(_grey(attacker), oracle)
    elif level == "black":
        knowledge = black_knowledge(oracle)
    else:
        knowledge = white_knowledge(attacker, oracle)
    for bucket, page in suite_seed_pages():
        result = attacks.run_attack(knowledge, page, suite_pool(), rng_seed=11)
        final = score(oracle_model, extract_all_features(result.final_page))
        assert result.success == (final < oracle_model.threshold), (bucket, final)
        assert result.success, bucket


# -- the selection loops against their two-table references ------------------------

def reference_white_box(knowledge, page, only_rules=None):
    """White-box selection from two candidate tables and two ban sets:
    each step takes the best deletion unless the best addition lowers the
    score strictly more, and drops a candidate that fails to plan."""
    clf = knowledge.model
    t = clf.freq_detect_threshold
    run = _Run(knowledge, page, keep_all=True)
    rules = [r for r in clf.rules if only_rules is None or r.id in only_rules]
    positive = [r for r in rules if r.weight > 0]
    negative = [r for r in rules if r.weight < 0]
    positive_features = sorted({f for r in positive for f in r.features})
    avoid_terms = split_avoid_terms(f for r in positive for f in r.features)
    banned_deletions, banned_additions = set(), set()
    feature_universe = {f for r in rules for f in r.features}
    max_steps = max(50, 4 * (len(rules) + len(feature_universe)))
    while not run.done and len(run.trajectory) <= max_steps:
        fmap = run.fmap
        deletions = {}
        for feat in positive_features:
            if fmap.get(feat, 0.0) == 0.0 or feat in banned_deletions \
                    or not deletable_feature(feat):
                continue
            delta = influence_feature(clf, fmap, feat)
            if delta > 0:
                deletions[feat] = delta
        additions = {}
        for r in negative:
            if r.id in banned_additions:
                continue
            unsat = unsatisfied(r.features, fmap, t)
            if not unsat or not all(addable_feature(f) for f in unsat):
                continue
            delta = influence_rule(clf, fmap, r)
            if delta < 0:
                additions[r.id] = (delta, r)
        op_label = None
        while op_label is None:
            best_del = min(deletions.items(), key=lambda kv: (-kv[1], kv[0]),
                           default=None)
            best_add = min(additions.items(), key=lambda kv: (kv[1][0], kv[0]),
                           default=None)
            if best_del and (best_add is None or best_del[1] >= -best_add[1][0]):
                feat = best_del[0]
                try:
                    attacks.plan_delete_feature(run.plan, feat, t, avoid_terms)
                    op_label = f"delete {feat}"
                except _PLAN_FAILURES:
                    banned_deletions.add(feat)
                    del deletions[feat]
            elif best_add:
                r = best_add[1][1]
                try:
                    attacks.plan_add_rule(run.plan, r.features, t)
                    op_label = f"add rule {r.id}"
                except _PLAN_FAILURES:
                    banned_additions.add(r.id)
                    del additions[r.id]
            else:
                break
        if op_label is None:
            break
        before = run.score
        run.offer(op_label)
        if not run.score < before:
            kind, _, name = op_label.partition(" ")
            if kind == "delete":
                banned_deletions.add(name)
            else:
                banned_additions.add(name.removeprefix("rule "))
    return run.result(EXHAUSTED)


def reference_grey_box(knowledge, page):
    """Grey-box loops that count each feature's reliance and test every
    known rule with ``unsatisfied`` for its deletion candidates and again
    before each addition."""
    t = knowledge.model.freq_detect_threshold
    rules = [(r.id, r.features) for r in knowledge.model.rules]
    run = _Run(knowledge, page)
    avoid_terms = split_avoid_terms(f for _, feats in rules for f in feats)
    reliance = {}
    for _, feats in rules:
        for feat in feats:
            reliance[feat] = reliance.get(feat, 0) + 1
    candidates = sorted(
        {f for _, feats in rules if not unsatisfied(feats, run.fmap, t)
         for f in feats if deletable_feature(f)},
        key=lambda f: (-reliance[f], f))
    for feat in candidates:
        if run.done:
            break
        if run.fmap.get(feat, 0.0) == 0.0:
            continue
        try:
            attacks.plan_delete_feature(run.plan, feat, t, avoid_terms)
        except _PLAN_FAILURES:
            continue
        run.offer(f"delete {feat}")
    for rule_id, feats in sorted(rules):
        if run.done:
            break
        if not unsatisfied(feats, run.fmap, t):
            continue
        try:
            attacks.plan_add_rule(run.plan, feats, t)
        except _PLAN_FAILURES:
            continue
        run.offer(f"add rule {rule_id}")
    return run.result(EXHAUSTED)


@contextmanager
def planner_calls():
    """The planner calls the attacks make inside the block, in order, as
    ``(planner, features, planned)``."""
    calls = []

    def recorded(planner):
        def call(plan, features, *args):
            try:
                planner(plan, features, *args)
            except _PLAN_FAILURES:
                calls.append((planner.__name__, features, False))
                raise
            calls.append((planner.__name__, features, True))
        return call

    with mock.patch.object(attacks, "plan_delete_feature",
                           recorded(plan_delete_feature)), \
            mock.patch.object(attacks, "plan_add_rule", recorded(plan_add_rule)):
        yield calls


def _outcome(result):
    return (result.status, result.trajectory, result.queries,
            result.mutated_features, result.mutated_rules,
            serialize(result.final_page))


# Features of the random models: "ab" cannot be split when "a" or "b" is a
# rule term too, a link to the page's own domain cannot be added, the two
# link ratios cannot both be padded above a threshold of 1/2, and URL
# features are neither deletable nor addable.
MODEL_FEATURES = [
    "PageTerm=signin", "PageTerm=ab", "PageTerm=a", "PageTerm=b",
    "PageTerm=privacy", "PageTerm=quiet", "PageHasForms", "PageHasTextInputs",
    "PageHasPswdInputs", "PageHasCheckInputs", "PageNumScriptTags>1",
    "PageExternalLinksFreq", "PageSecureLinksFreq", "PageImgOtherDomainFreq",
    "PageLinkDomain=example.com", "PageLinkDomain=seed00.test",
    "UrlPathToken=page", "UrlDomain=unique-nowhere.test",
]
# a few weights, so that influences tie exactly
WEIGHTS = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
RULES = st.lists(st.tuples(st.frozensets(st.sampled_from(MODEL_FEATURES),
                                         min_size=1, max_size=3), WEIGHTS),
                 min_size=2, max_size=10)
RANDOM_PAGES = st.builds(
    build_page, url=st.just("http://seed00.test/page"), host=st.just("seed00.test"),
    terms=st.lists(st.sampled_from(["signin", "ab", "a", "privacy", "quiet",
                                    "meadow"]), max_size=5).map(["ab"].__add__),
    secure_links=st.integers(0, 2), insecure_external_links=st.integers(0, 2),
    internal_links=st.integers(0, 2),
    input_types=st.lists(st.sampled_from(["text", "password", "checkbox"]),
                         max_size=2),
    imgs=st.lists(st.just("http://pics.stock-farm.example/i.png"), max_size=1),
    scripts=st.integers(0, 2), bare_form=st.booleans())
SUITE_PAGES = [page for _, page in suite_seed_pages(per_bucket=1)]
PAGES = RANDOM_PAGES | st.sampled_from(SUITE_PAGES)


def _random_model(rules, bias, t):
    return make_classifier([rule(f"r{i:02d}", feats, weight)
                            for i, (feats, weight) in enumerate(rules)],
                           bias=bias, freq_detect_threshold=t)


# the top candidate, deleting "abc", fails to plan and ties with adding r02
@example(rules=[(frozenset({"PageTerm=abc"}), 1.0),
                (frozenset({"PageTerm=ab", "PageTerm=bc"}), 0.25),
                (frozenset({"PageTerm=privacy"}), -1.0),
                (frozenset({"PageTerm=signin"}), 0.5)],
         bias=-0.5, t=0.05, page=build_page(url="http://seed00.test/page",
                                            host="seed00.test",
                                            terms=["abc", "signin"]),
         only=None)
@settings(max_examples=300, deadline=None)
@given(rules=RULES, bias=st.sampled_from([-0.25, 0.25, 0.75]),
       t=st.sampled_from([0.05, 0.3, 0.6]), page=PAGES,
       only=st.none() | st.sets(st.integers(0, 9)))
def test_white_ranks_candidates_as_the_two_table_loop(rules, bias, t, page, only):
    """White's single ranked list tries the same planners in the same order
    and keeps the same candidates as the two-table loop, on random models
    with tied influences and candidates that fail to plan."""
    clf = _random_model(rules, bias, t)
    only_rules = None if only is None else {f"r{i:02d}" for i in only}
    with planner_calls() as calls:
        result = white_box(white_knowledge(clf, ScoreOracle(clf)), page,
                           only_rules)
    with planner_calls() as reference_calls:
        reference = reference_white_box(white_knowledge(clf, ScoreOracle(clf)),
                                        page, only_rules)
    assert calls == reference_calls
    assert _outcome(result) == _outcome(reference)


@settings(max_examples=150, deadline=None)
@given(rules=RULES, unknown=RULES, bias=st.sampled_from([-0.25, 0.25, 0.75]),
       t=st.sampled_from([0.05, 0.3, 0.6]), page=PAGES, data=st.data())
def test_grey_reads_its_candidates_from_the_hit_table(rules, unknown, bias, t,
                                                      page, data):
    """Grey's deletion candidates, their reliance order and the rules its
    second phase adds, in id order, are those of the ``unsatisfied`` scans,
    with known rules the oracle does not hold among them."""
    clf = _random_model(rules, bias, t)
    known = [(f"r{i:02d}", feats) for i, (feats, _) in enumerate(rules)]
    known += [(f"u{i:02d}", feats) for i, (feats, _) in enumerate(unknown)]
    known = data.draw(st.permutations(known), label="known")
    with planner_calls() as calls:
        result = grey_box(grey_knowledge(known, ScoreOracle(clf)), page)
    with planner_calls() as reference_calls:
        reference = reference_grey_box(
            grey_knowledge(known, ScoreOracle(clf)), page)
    assert calls == reference_calls
    assert _outcome(result) == _outcome(reference)


def test_the_white_example_bans_its_top_candidate_and_breaks_a_tie():
    """The explicit example above exercises what it claims: deleting "abc"
    fails, and adding r02 then wins its tie with deleting "signin"."""
    clf = make_classifier([rule("r00", {"PageTerm=abc"}, 1.0),
                           rule("r01", {"PageTerm=ab", "PageTerm=bc"}, 0.25),
                           rule("r02", {"PageTerm=privacy"}, -1.0),
                           rule("r03", {"PageTerm=signin"}, 0.5)], bias=-0.5)
    page = build_page(url="http://seed00.test/page", host="seed00.test",
                      terms=["abc", "signin"])
    with planner_calls() as calls:
        result = white_box(white_knowledge(clf, ScoreOracle(clf)), page)
    assert calls[0] == ("plan_delete_feature", "PageTerm=abc", False)
    assert [s.op for s in result.trajectory[1:]] == \
        ["add rule r02", "delete PageTerm=signin"]


# -- cross-cutting invariants ------------------------------------------------------

def test_inert_filler_rules_change_no_attack():
    """1,000 rules whose features occur on no page (weight 0.01) change no
    attack's trajectory, counters, queries or final page, at any level."""
    from dataclasses import replace

    clf = suite_model()
    filler = tuple(rule(f"zf{i:04d}", {f"PageTerm=inertfiller{i:04d}"}, 0.01)
                   for i in range(1000))
    padded = replace(clf, rules=clf.rules + filler)

    def attacks(model, page):
        grey = [(r.id, r.features) for r in model.rules]
        return [
            white_box(white_knowledge(model, ScoreOracle(model)), page),
            grey_box(grey_knowledge(grey, ScoreOracle(model)), page),
            black_box(black_knowledge(ScoreOracle(model)), page, suite_pool(),
                      rng_seed=9),
        ]

    for _, page in suite_seed_pages(per_bucket=2):
        for alone, with_filler in zip(attacks(clf, page), attacks(padded, page)):
            assert alone.success
            assert with_filler.trajectory == alone.trajectory
            assert with_filler.queries == alone.queries
            assert (with_filler.mutated_features, with_filler.mutated_rules,
                    with_filler.additions) == \
                (alone.mutated_features, alone.mutated_rules, alone.additions)
            assert serialize(with_filler.final_page) == serialize(alone.final_page)


def test_attack_invariants_on_random_models_and_pages():
    """Monotone trajectories, preservation, URL stability, rule/feature
    accounting, and termination over randomized fixtures, all levels."""
    from phishevade.classifier import ClassificationRule

    rng = random.Random(11)
    terms = [f"word{i}" for i in range(12)]
    kinds = ([f"PageTerm={t}" for t in terms] +
             ["PageHasForms", "PageHasTextInputs", "PageHasPswdInputs",
              "PageHasRadioInputs", "PageHasCheckInputs", "PageNumScriptTags>1",
              "PageExternalLinksFreq", "PageSecureLinksFreq",
              "PageImgOtherDomainFreq", "UrlPathToken=page",
              "UrlDomain=unique-nowhere.test"])
    attacked = 0
    for trial in range(40):
        rules = [ClassificationRule(f"r{i:02d}",
                                    frozenset(rng.sample(kinds, rng.randrange(1, 3))),
                                    round(rng.uniform(-2, 2), 2))
                 for i in range(rng.randrange(3, 14))]
        clf = make_classifier(rules, bias=round(rng.uniform(-1, 1), 2))
        page = build_page(
            url=f"http://fz{trial:03d}.test/page", host=f"fz{trial:03d}.test",
            terms=rng.sample(terms, rng.randrange(0, 6)),
            secure_links=rng.randrange(3),
            insecure_external_links=rng.randrange(3),
            internal_links=rng.randrange(3),
            input_types=rng.sample(["text", "password", "radio", "checkbox"],
                                   rng.randrange(0, 3)),
            scripts=rng.randrange(3), bare_form=rng.random() < 0.5,
            filler=rng.randrange(4))
        pool = [ElementSpec("div", (), t) for t in rng.sample(terms, 6)]
        pool.append(ElementSpec("input", (("type", "checkbox"),)))
        if ScoreOracle(clf).score_page(page) < 0.5:
            continue
        attacked += 1
        runs = [
            white_box(white_knowledge(clf, ScoreOracle(clf)), page),
            grey_box(grey_knowledge([(r.id, r.features) for r in rules],
                                    ScoreOracle(clf)), page),
            black_box(black_knowledge(ScoreOracle(clf)), page, pool,
                      budget=300, rng_seed=trial),
        ]
        for result in runs:
            scores = [s.score for s in result.trajectory]
            assert all(b < a for a, b in zip(scores, scores[1:]))
            assert result.success == (scores[-1] < 0.5)
            assert preservation_check(page, result.final_page).passed
            assert result.final_page.source_url == page.source_url
            if result.mutated_features:
                assert result.mutated_rules >= result.mutated_features
    assert attacked >= 10


def test_all_final_pages_preserve_seed(capsys):
    clf = suite_model()
    pool = suite_pool()
    for bucket, page in suite_seed_pages(per_bucket=1):
        for run in [
            white_box(white_knowledge(clf, ScoreOracle(clf)), page),
            grey_box(grey_knowledge(_grey(clf), ScoreOracle(clf)), page),
            black_box(black_knowledge(ScoreOracle(clf)), page, pool, rng_seed=5),
        ]:
            assert run.success
            report = preservation_check(page, run.final_page)
            assert report.passed, report.problems
            assert run.final_page.source_url == page.source_url


def test_query_accounting_matches_oracle_delta():
    clf = suite_model()
    page = build_page(terms=["signin", "urgent"])
    oracle = ScoreOracle(clf)
    oracle.score_page(page)            # unrelated earlier traffic
    before = oracle.query_count
    result = white_box(white_knowledge(clf, oracle), page)
    assert result.queries == oracle.query_count - before
