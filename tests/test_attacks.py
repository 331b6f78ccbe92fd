import random

import pytest

from phishevade.attacks import (
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
from phishevade.classifier import (
    ScoreOracle,
    raw_score,
    rule_contribution,
    rule_hit,
    unsatisfied,
)
from phishevade.dom import serialize
from phishevade.features import PageTally, extract_all_features
from phishevade.mutation import (
    ElementSpec,
    FeatureAbsent,
    apply,
    plan_add_rule,
    plan_delete_feature,
    preservation_check,
)

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
        return serialize(tree), dict(tally.features), tally.counts.copy()

    tally = PageTally(page.source_url)
    extract_all_features(page, tally)
    current = [state(page, tally)]
    rolled_back = []
    offer = _Run.offer

    def checked(run, label, feature_step=True):
        kept = offer(run, label, feature_step)
        now = state(run.plan.tree, run.plan.tally)
        if not kept:
            assert now == current[-1]
            assert run.plan.fmap == run.fmap
            rolled_back.append(label)
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
