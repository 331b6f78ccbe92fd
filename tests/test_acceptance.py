"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import os
import random
import subprocess
import sys
import time

import pytest

import phishevade
from phishevade.attacks import (
    EXHAUSTED,
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
    ClassificationRule,
    ScoreOracle,
    logistic,
    prune,
    raw_score,
    rule_hit,
    save_model,
    score,
)
from phishevade.collision import Corpus, CorpusPage, harvest_candidates, invert_hashes
from phishevade.dom import parse_html, serialize
from phishevade.features import extract_all_features, hash_feature
from phishevade.mutation import ElementSpec, preservation_check, save_pool
from phishevade.pelican import tree_similarity_baseline, tree_similarity_pelican

from conftest import (
    build_page,
    fixture_path,
    make_classifier,
    rule,
    single_rule_model,
    single_rule_seeds,
    suite_model,
    suite_pool,
    suite_seed_pages,
)

FREQ = {"PageExternalLinksFreq", "PageSecureLinksFreq",
        "PageActionOtherDomainFreq", "PageImgOtherDomainFreq"}


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")
        return wrapper
    return decorate


# -- criterion 1 ---------------------------------------------------------------

@criterion(1, "logistic properties (midpoint, symmetry, monotonicity, < 1s)")
def test_c01_logistic_properties():
    started = time.perf_counter()
    assert logistic(0.0) == 0.5
    rng = random.Random(101)
    xs = [rng.uniform(-30.0, 30.0) for _ in range(1000)]
    for x in xs:
        assert abs(logistic(x) + logistic(-x) - 1.0) <= 1e-12
    values = [logistic(x) for x in sorted(xs)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # strictness holds wherever doubles can resolve the increments; above
    # |x| ~ 29.5 the transform saturates to within one ulp of 0 or 1
    mid = sorted(rng.uniform(-20.0, 20.0) for _ in range(1000))
    strict = [logistic(x) for x in mid]
    assert all(a < b for a, b in zip(strict, strict[1:]))
    assert time.perf_counter() - started < 1.0


# -- criterion 2 ---------------------------------------------------------------

def _random_classifier(rng):
    n_features = rng.randrange(6, 16)
    names = [f"PageTerm=w{i}" for i in range(n_features - 3)] + [
        "PageExternalLinksFreq", "PageSecureLinksFreq", "PageImgOtherDomainFreq"]
    n_rules = rng.randrange(4, 21)
    rules = [ClassificationRule(
        f"r{i:02d}", frozenset(rng.sample(names, rng.randrange(1, 4))),
        round(rng.uniform(-4, 4), 3)) for i in range(n_rules)]
    clf = make_classifier(rules, bias=round(rng.uniform(-1, 1), 3))
    return clf, names


def _random_map(rng, names):
    fmap = {}
    for name in names:
        roll = rng.random()
        if roll < 0.45:
            continue
        fmap[name] = round(rng.uniform(0.02, 1.0), 3) if name in FREQ else 1.0
    return fmap


@criterion(2, "influence values equal brute-force rescoring diffs (1e-12, < 10s)")
def test_c02_influence_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(202)
    checked_f = checked_r = 0
    for _ in range(50):
        clf, names = _random_classifier(rng)
        t = clf.freq_detect_threshold
        for _ in range(20):
            fmap = _random_map(rng, names)
            base = raw_score(clf, fmap)
            for feat, value in fmap.items():
                if value == 0.0:
                    continue
                zeroed = dict(fmap)
                zeroed[feat] = 0.0
                expected = base - raw_score(clf, zeroed)
                assert abs(influence_feature(clf, fmap, feat) - expected) <= 1e-12
                checked_f += 1
            for r in clf.rules:
                if rule_hit(r, fmap, t):
                    continue
                post = dict(fmap)
                for feat in r.features:
                    v = post.get(feat, 0.0)
                    if v == 0.0 or (feat in FREQ and v < t):
                        post[feat] = 1.0
                expected = raw_score(clf, post) - base
                assert abs(influence_rule(clf, fmap, r) - expected) <= 1e-12
                checked_r += 1
    elapsed = time.perf_counter() - started
    assert checked_f > 1000 and checked_r > 1000
    assert elapsed < 10.0


# -- criteria 3, 5, 6 share one attack run over the 30-seed suite ----------------

@pytest.fixture(scope="module")
def suite_runs():
    clf = suite_model()
    pool = suite_pool()
    grey_rules = [(r.id, r.features) for r in clf.rules]
    seeds = suite_seed_pages(per_bucket=6)
    assert len(seeds) == 30
    runs = {}
    for index, (bucket, seed) in enumerate(seeds):
        runs[("white", index)] = (bucket, seed, white_box(
            white_knowledge(clf, ScoreOracle(clf)), seed))
        runs[("grey", index)] = (bucket, seed, grey_box(
            grey_knowledge(grey_rules, ScoreOracle(clf)), seed))
        runs[("black", index)] = (bucket, seed, black_box(
            black_knowledge(ScoreOracle(clf)), seed, pool, rng_seed=index))
    return runs


@criterion(3, "white/grey/black 100% success on the 30-seed suite, < 1s per seed")
def test_c03_attack_success(suite_runs):
    clf = suite_model()
    positive = [r for r in clf.rules if r.weight > 0]
    negative = [r for r in clf.rules if r.weight < 0]
    deletable_kinds = ("PageTerm=", "PageActionURL=", "PageLinkDomain=")
    deletable_pos = [r for r in positive if any(
        f.startswith(deletable_kinds) or f in FREQ
        or f in ("PageHasTextInputs", "PageHasPswdInputs")
        for f in r.features)]
    assert len(clf.rules) == 20
    assert len(deletable_pos) >= 5
    assert len([r for r in negative
                if not any(f.startswith("Url") for f in r.features)]) >= 3

    by_level = {"white": [], "grey": [], "black": []}
    for (level, _), (bucket, _, result) in suite_runs.items():
        by_level[level].append((bucket, result))
    buckets_seen = set()
    for level, results in by_level.items():
        assert len(results) == 30
        for bucket, result in results:
            buckets_seen.add(bucket)
            assert result.success, (level, bucket)
            assert result.trajectory[-1].score < 0.5
            assert result.elapsed < 1.0, (level, bucket, result.elapsed)
    assert buckets_seen == {"[0.5,0.6)", "[0.6,0.7)", "[0.7,0.8)",
                            "[0.8,0.9)", "[0.9,1.0)"}


# -- criterion 4 ---------------------------------------------------------------

def _partial_knowledge_fixture():
    """Hashed oracle model whose negative rules were never recovered: the
    white-box attacker sees only undeletable positives plus opaque digests."""
    pad_words = [f"padword{i:02d}" for i in range(50)]
    positives = [
        ("p1", {"PageNumScriptTags>1"}, 0.9),
        ("p2", {"PageHasForms"}, 0.7),
        ("p3", {"UrlPathToken=login"}, 0.8),
    ]
    negatives = [(f"n{i:02d}", {f"PageTerm={w}"}, -0.05)
                 for i, w in enumerate(pad_words)]
    hashed_rules = [
        ClassificationRule(rid, frozenset(hash_feature(f) for f in feats), w)
        for rid, feats, w in positives + negatives]
    oracle_model = make_classifier(hashed_rules, bias=-0.4, hashed=True)

    attacker_rules = [ClassificationRule(rid, frozenset(feats), w)
                      for rid, feats, w in positives]
    attacker_rules += [
        ClassificationRule(rid, frozenset(hash_feature(f) for f in feats), w)
        for rid, feats, w in negatives]          # unrecovered digests
    attacker_model = make_classifier(attacker_rules, bias=-0.4)

    pool = [ElementSpec("div", (), w) for w in pad_words]
    pool += [ElementSpec("span", (), f"noise{i:02d}") for i in range(50)]
    seed = build_page(url="http://crook.test/login", host="crook.test",
                      bare_form=True, scripts=2, filler=4)
    return oracle_model, attacker_model, pool, seed


@criterion(4, "undeletable-rule fixture: white-box exhausted, black-box "
              "rescued by > 100 additions")
def test_c04_exhaustion_and_addition_rescue():
    oracle_model, attacker_model, pool, seed = _partial_knowledge_fixture()
    oracle = ScoreOracle(oracle_model)
    assert oracle.score_page(seed) >= 0.5

    white = white_box(
        white_knowledge(attacker_model, ScoreOracle(oracle_model)), seed)
    assert white.status == EXHAUSTED
    assert not white.success

    black = black_box(black_knowledge(ScoreOracle(oracle_model)), seed, pool,
                      batch=3, budget=2000, rng_seed=404)
    assert black.success
    assert black.additions > 100
    print(f"  [criterion 4] black-box rescued after {black.additions} "
          f"additions (score after modification "
          f"{black.score_after_modification:.3f})")


# -- criterion 5 ---------------------------------------------------------------

@criterion(5, "100% of attack outputs preserve projection and function")
def test_c05_preservation(suite_runs):
    for (level, _), (bucket, seed, result) in suite_runs.items():
        report = preservation_check(seed, result.final_page)
        assert report.passed, (level, bucket, report.problems)


# -- criterion 6 ---------------------------------------------------------------

DILUTE_SEED = ("<html>" + "".join(
    f'<a href="https://dilute.test/s{i}">x</a>' for i in range(10)) + "</html>")


@criterion(6, "Pelican >= 0.9 on all attack outputs; dilution fixture: "
              "baseline < 0.6, Pelican = 1.0 +- 0.01")
def test_c06_pelican_detection(suite_runs):
    for (level, _), (bucket, seed, result) in suite_runs.items():
        value = tree_similarity_pelican(seed, result.final_page)
        assert value >= 0.9, (level, bucket, value)

    clf = make_classifier([rule("p", {"PageSecureLinksFreq"}, 2.0)], bias=-0.1)
    seed = parse_html(DILUTE_SEED, "http://dilute.test/page")
    result = grey_box(grey_knowledge(
        [(r.id, r.features) for r in clf.rules], ScoreOracle(clf)), seed)
    assert result.success
    baseline = tree_similarity_baseline(seed, result.final_page)
    pelican_value = tree_similarity_pelican(seed, result.final_page)
    assert baseline < 0.6
    assert abs(pelican_value - 1.0) <= 0.01
    print(f"  [criterion 6] dilution fixture: baseline {baseline:.4f}, "
          f"personalized {pelican_value:.4f}")


# -- criterion 7 ---------------------------------------------------------------

@criterion(7, "collision: 200-digest manifest fully recovered, 50 foreign "
              "digests exactly unrecovered, < 5s")
def test_c07_collision_completeness():
    started = time.perf_counter()
    pages = []
    for name, url, label in [
        ("login_paypal.html", "http://paypal.com.secure-login.test/signin", "phish"),
        ("login_bank.html", "http://firstbank.com.account-verify.test/login", "phish"),
        ("news_home.html", "https://dailyledger.test/", "legit"),
        ("shop_index.html", "https://gardensupply.test/shop", "legit"),
        ("blog_post.html", "https://fieldnotes.test/posts/x", "legit"),
    ]:
        with open(fixture_path(name), "rb") as fh:
            pages.append(CorpusPage(url, parse_html(fh.read(), url), label))
    rng = random.Random(707)
    words = ["verify", "wallet", "invoice", "bonus", "renewal", "gateway",
             "escrow", "ledger", "notice", "portal", "billing", "signup"]
    for i in range(15):
        terms = rng.sample(words, 5) + [f"pg{i:02d}tok{j}" for j in range(6)]
        page = build_page(url=f"http://corpus{i:02d}.test/p{i}",
                          host=f"corpus{i:02d}.test",
                          terms=[" ".join(terms)],
                          secure_links=i % 3, internal_links=i % 2,
                          bare_form=(i % 4 == 0))
        pages.append(CorpusPage(page.source_url, page, "legit"))
    corpus = Corpus(pages=pages)
    assert len(corpus.pages) == 20

    candidates = harvest_candidates(corpus)
    assert len(candidates) >= 200
    in_corpus = sorted(candidates)[:200]
    manifest = {hash_feature(c) for c in in_corpus}
    report = invert_hashes(candidates, manifest)
    assert len(report.recovered) == 200
    assert report.unrecovered == set()
    assert sorted(report.recovered.values()) == in_corpus

    foreign = {hash_feature(f"PageTerm=never-seen-{i:02d}") for i in range(50)}
    report = invert_hashes(candidates, manifest | foreign)
    assert len(report.recovered) == 200
    assert report.unrecovered == foreign
    assert time.perf_counter() - started < 5.0


# -- criterion 8 ---------------------------------------------------------------

def _subset_cost_model():
    rules = [
        rule("p_forms", {"PageHasForms"}, 0.5),
        rule("p_scripts", {"PageNumScriptTags>1"}, 0.5),
        rule("p_path", {"UrlPathToken=pay"}, 0.4),
    ]
    for i in range(12):
        rules.append(rule(f"big{i:02d}",
                          {f"PageTerm=ta{i:02d}", f"PageTerm=tb{i:02d}"}, -0.3))
        rules.append(rule(f"sub{i:02d}", {f"PageTerm=ta{i:02d}"}, -0.25))
    return make_classifier(rules, bias=-0.2)


@criterion(8, "paired black-box runs: mean operations strictly higher "
              "after subset-rule pruning")
def test_c08_subset_pruning_cost():
    clf = _subset_cost_model()
    subs = [f"sub{i:02d}" for i in range(12)]
    pruned = prune(clf, subs)
    pool = [ElementSpec("div", (), f"ta{i:02d} tb{i:02d}") for i in range(12)]
    pool += [ElementSpec("span", (), f"chaff{i:02d}") for i in range(12)]

    ops_with, ops_without = [], []
    for i in range(10):
        seed = build_page(url=f"http://victim{i:02d}.test/pay",
                          host=f"victim{i:02d}.test", bare_form=True,
                          scripts=2, filler=3)
        kept = black_box(black_knowledge(ScoreOracle(clf)), seed, pool,
                         rng_seed=i)
        removed = black_box(black_knowledge(ScoreOracle(pruned)), seed, pool,
                            rng_seed=i)
        assert kept.success and removed.success
        ops_with.append(kept.mutated_features + kept.additions)
        ops_without.append(removed.mutated_features + removed.additions)
    mean_with = sum(ops_with) / len(ops_with)
    mean_without = sum(ops_without) / len(ops_without)
    print(f"  [criterion 8] mean operations {mean_with:.1f} with subset rules "
          f"vs {mean_without:.1f} without")
    assert mean_without > mean_with


# -- criterion 9 ---------------------------------------------------------------

def _neutrality_model():
    """Only low-weight rules are prunable: the decisive rules share their
    features with spice rules so they are neither single nor sub-rules, and
    every page's raw score keeps a margin wider than any prunable weight."""
    return make_classifier([
        rule("strong_pos", {"PageTerm=T0", "PageTerm=T4"}, 2.0),
        rule("strong_neg", {"PageTerm=T1", "PageTerm=T6"}, -2.0),
        rule("spice1", {"PageTerm=T0", "PageTerm=T5"}, 0.02),
        rule("spice2", {"PageTerm=T4", "PageTerm=T5"}, -0.02),
        rule("spice3", {"PageTerm=T6", "PageTerm=T5"}, 0.02),
        rule("spice4", {"PageTerm=T1", "PageTerm=T5"}, -0.02),
        rule("big_pair", {"PageTerm=T2", "PageTerm=T3"}, 0.04),
        rule("sub_pair", {"PageTerm=T2"}, 0.03),
        rule("single_pos", {"PageTerm=T8"}, 0.04),
        rule("single_neg", {"PageTerm=T9"}, -0.04),
    ], bias=-0.25)


@criterion(9, "subset and single pruning flip zero labels on a 200-page corpus")
def test_c09_pruning_accuracy_neutrality():
    clf = _neutrality_model()
    from phishevade.classifier import find_single_rules, find_subset_rules
    subset_targets = sorted({sub for _, sub in find_subset_rules(clf)})
    single_targets = sorted(find_single_rules(clf))
    assert subset_targets == ["sub_pair"]
    assert single_targets == ["single_neg", "single_pos"]
    pruned_subset = prune(clf, subset_targets)
    pruned_single = prune(clf, single_targets)

    rng = random.Random(909)
    flips = 0
    score_changes = {"subset": 0, "single": 0}
    for i in range(200):
        terms = [f"T{j}" for j in range(10) if rng.random() < 0.4]
        page = build_page(url=f"http://mix{i:03d}.test/p",
                          host=f"mix{i:03d}.test", terms=terms or ["none"])
        fmap = extract_all_features(page)
        base_label = score(clf, fmap) >= clf.threshold
        for name, variant in [("subset", pruned_subset), ("single", pruned_single)]:
            value = score(variant, fmap)
            if value != score(clf, fmap):
                score_changes[name] += 1
            if (value >= clf.threshold) != base_label:
                flips += 1
    assert flips == 0
    assert score_changes["subset"] > 0 and score_changes["single"] > 0
    print(f"  [criterion 9] scores shifted on "
          f"{score_changes['subset']}/{score_changes['single']} pages "
          "(subset/single), zero label changes")


# -- criterion 10 --------------------------------------------------------------

@criterion(10, "white-box restricted to single rules succeeds on all seeds "
               "in < 10ms each")
def test_c10_single_rule_attack():
    clf = single_rule_model()
    from phishevade.classifier import find_single_rules
    singles = find_single_rules(clf)
    assert singles == {"d1", "d2", "d3", "d4", "d5", "a1", "a2", "a3"}
    deletable_weight = sum(clf.rule(r).weight for r in singles
                           if clf.rule(r).weight > 0)
    addable_weight = sum(clf.rule(r).weight for r in singles
                         if clf.rule(r).weight < 0)
    assert deletable_weight == pytest.approx(7.5)
    assert addable_weight == pytest.approx(-3.6)

    seeds = single_rule_seeds()
    # warm-up outside the timed region
    white_box(white_knowledge(clf, ScoreOracle(clf)), seeds[0],
              only_rules=singles)
    for seed in seeds:
        result = white_box(white_knowledge(clf, ScoreOracle(clf)), seed,
                           only_rules=singles)
        assert result.success
        assert result.elapsed < 0.010, result.elapsed
        for step in result.trajectory[1:]:
            assert any(f"PageTerm=sd" in step.op or step.op == f"add rule a{k}"
                       for k in (1, 2, 3)) or "delete PageTerm=sd" in step.op


# -- criterion 11 --------------------------------------------------------------

@criterion(11, "attack --seed 42 twice produces byte-identical report and HTML")
def test_c11_cli_determinism(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(suite_model(), model_path)
    pool_path = tmp_path / "pool.jsonl"
    save_pool(suite_pool(), pool_path)
    bucket, seed = suite_seed_pages(per_bucket=1)[4]
    seed_path = tmp_path / "seed.html"
    seed_path.write_text(serialize(seed))

    # the child imports the package this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(phishevade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    outputs = []
    # the two runs differ in hash seed too, so no output may depend on it
    for run_dir, hash_seed in (("one", "0"), ("two", "1")):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, "-m", "phishevade", "attack", str(seed_path),
             "--model", str(model_path), "--level", "black",
             "--pool", str(pool_path), "--seed", "42",
             "--url", seed.source_url, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**env, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append((
            (out / "seed.black.report.json").read_bytes(),
            (out / "seed.black.final.html").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
