"""Evasion attacks: white-box greedy, grey-box delete-then-add, black-box
modify-then-add with rollback.

All three mutate a detected page until the oracle's decision score falls
below the threshold, differing in what they know about the classifier:

* white: full model (rules and weights); each step greedily picks the
  feature deletion or rule addition with the largest exact score influence.
* grey: rule feature sets but no weights; tentatively deletes features of
  hit rules, then tentatively adds absent rules.
* black: nothing but the score oracle; modifies every modifiable node one at
  a time, then randomly adds harvested invisible elements in batches.

The three share one skeleton, ``_Run``: it holds the current tree with its
feature tally, feature map and queried score, and each attack only builds
candidate plans and offers them.  A candidate is a ``MutationPlan`` built on
the current tree and tally (the planners return their plan), never a
replay, and it is scored from the tally it carries, ``plan.fmap``: the page
is extracted in full only once per attack, at the start.  An offered
candidate is scored once; the white attack keeps every candidate,
grey and black keep one only when its score drops (a dropped black batch is
the rollback).  Each kept candidate appends a trajectory step and adds to
``mutated_rules`` the counted rules whose gated value product changed; white
and black count the classifier's non-zero weight rules, grey its known
rules.

Influence values are exact score differences, so accepted white-box steps
are the one-step-lookahead optimum.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

from . import features as F
from .classifier import (
    ClassificationRule,
    Classifier,
    ScoreOracle,
    prepare_map,
    rule_contribution,
    rule_hit,
    unsatisfied,
)
from .dom import DomTree, serialize, walk_elements, walk_text_nodes
from .features import FeatureValueMap, PageTally, extract_all_features, term_spans
from .mutation import (
    MODIFIABLE_ATTRS,
    ElementSpec,
    FeatureAbsent,
    MutationPlan,
    PathError,
    TermNotFound,
    UnsupportedMutation,
    UrlFeatureUnaddable,
    add_invisible_element,
    addable_feature,
    deletable_feature,
    modify_attribute,
    modify_text,
    plan_add_rule,
    plan_delete_feature,
)

WHITE, GREY, BLACK = "white", "grey", "black"
SUCCESS, EXHAUSTED, BUDGET_EXHAUSTED = "success", "exhausted", "budget_exhausted"


class RuleAlreadyHit(ValueError):
    """Influence of adding a rule is undefined when the page already hits it."""


@dataclass
class Knowledge:
    """What the attacker knows, plus the score oracle every level may query."""

    level: str
    oracle: ScoreOracle
    model: Classifier | None = None                      # white only
    rules: list[tuple[str, frozenset[str]]] | None = None  # grey only
    threshold: float = 0.5
    freq_detect_threshold: float = 0.05


def white_knowledge(model: Classifier, oracle: ScoreOracle) -> Knowledge:
    return Knowledge(WHITE, oracle, model=model, threshold=model.threshold,
                     freq_detect_threshold=model.freq_detect_threshold)


def grey_knowledge(rules, oracle: ScoreOracle, threshold: float = 0.5,
                   freq_detect_threshold: float = 0.05) -> Knowledge:
    return Knowledge(GREY, oracle, rules=list(rules), threshold=threshold,
                     freq_detect_threshold=freq_detect_threshold)


def black_knowledge(oracle: ScoreOracle, threshold: float = 0.5) -> Knowledge:
    return Knowledge(BLACK, oracle, threshold=threshold)


class TrajectoryStep(NamedTuple):
    step: int
    op: str
    score: float


@dataclass
class AttackResult:
    success: bool
    status: str
    final_page: DomTree
    trajectory: list[TrajectoryStep]
    mutated_features: int
    mutated_rules: int
    queries: int
    elapsed: float
    additions: int = 0
    score_after_modification: float | None = None
    rng_seed: int | None = None

    def to_dict(self, seed_path: str = "", final_path: str = "",
                include_timing: bool = False) -> dict:
        return {
            "success": self.success,
            "status": self.status,
            "seed_path": seed_path,
            "final_path": final_path,
            "steps": [{"op": s.op, "score": s.score} for s in self.trajectory],
            "mutated_features": self.mutated_features,
            "mutated_rules": self.mutated_rules,
            "queries": self.queries,
            "additions": self.additions,
            "score_after_modification": self.score_after_modification,
            "elapsed_ms": round(self.elapsed * 1000.0, 3) if include_timing else None,
            "rng_seed": self.rng_seed,
        }


# -- influence ---------------------------------------------------------------

def influence_feature(classifier: Classifier, fmap: FeatureValueMap,
                      feature: str) -> float:
    """Exact raw-score drop from zeroing ``feature``: the summed
    contributions of the currently hit rules that rely on it."""
    if fmap.get(feature, 0.0) == 0.0:
        raise FeatureAbsent(feature)
    t = classifier.freq_detect_threshold
    total = 0.0
    for rule in classifier.rules:
        if feature in rule.features and rule_hit(rule, fmap, t):
            total += rule_contribution(rule, fmap)
    return total


def influence_rule(classifier: Classifier, fmap: FeatureValueMap,
                   rule: ClassificationRule) -> float:
    """Exact raw-score change from adding every feature of ``rule``.

    Counts every rule the addition flips to hit, i.e. rules whose
    unsatisfied features are covered by the added set (subset rules are the
    common case), with added features valued at 1.
    """
    t = classifier.freq_detect_threshold
    added = unsatisfied(rule.features, fmap, t)
    if not added:
        raise RuleAlreadyHit(rule.id)
    post = {**fmap, **dict.fromkeys(added, 1.0)}
    total = 0.0
    for other in classifier.rules:
        missing = unsatisfied(other.features, fmap, t)
        if missing and missing <= rule.features:
            total += rule_contribution(other, post)
    return total


# -- the shared attack skeleton ---------------------------------------------------

def _rule_products(rules, fmap: FeatureValueMap,
                   freq_detect_threshold: float) -> dict[str, float]:
    """Gated value product per ``(id, features)`` rule: the product of its
    feature values when every feature is satisfied, else 0.  A rule counts
    as mutated when this changes, covering both hit flips and
    frequency-value drift."""
    return {rule_id: 0.0 if unsatisfied(feats, fmap, freq_detect_threshold)
            else math.prod(fmap[feat] for feat in feats)
            for rule_id, feats in rules}


def _classifier_products(clf: Classifier):
    """Rule products over the classifier's non-zero-weight rules."""
    counted = [(r.id, r.features) for r in clf.rules if r.weight != 0.0]
    return lambda fmap: _rule_products(counted, prepare_map(clf, fmap),
                                       clf.freq_detect_threshold)


class _Run:
    """One attack in progress: the current tree with its tally, feature map
    and queried score, the trajectory and the counters.

    ``products`` maps a feature map to the gated rule products whose
    changes count as mutated rules.  With ``keep_all`` every offered
    candidate is kept; otherwise only one whose score drops.
    """

    def __init__(self, knowledge: Knowledge, page: DomTree, products,
                 keep_all: bool = False):
        self._oracle = knowledge.oracle
        self._tau = knowledge.threshold
        self._products_of = products
        self._keep_all = keep_all
        self._started = time.perf_counter()
        self._queries_before = self._oracle.query_count
        self.tree = page
        self.tally = PageTally(page.source_url)
        self.fmap = extract_all_features(page, self.tally)
        self.score = self._oracle.score_map(self.fmap)
        self._products = products(self.fmap)
        self.trajectory = [TrajectoryStep(0, "initial", self.score)]
        self.mutated_features = self.mutated_rules = 0

    @property
    def done(self) -> bool:
        return self.score < self._tau

    def offer(self, candidate: MutationPlan, label: str,
              feature_step: bool = True) -> bool:
        """Score ``candidate`` from its tally and make its tree the current
        one if the keep rule allows; ``feature_step`` counts it as a mutated
        feature."""
        fmap = candidate.fmap
        score = self._oracle.score_map(fmap)
        if not (self._keep_all or score < self.score):
            return False
        products = self._products_of(fmap)
        self.mutated_rules += sum(1 for rule_id, before in self._products.items()
                                  if products[rule_id] != before)
        self.mutated_features += feature_step
        self.tree, self.tally = candidate.tree, candidate.tally
        self.fmap, self.score = fmap, score
        self._products = products
        self.trajectory.append(TrajectoryStep(len(self.trajectory), label, score))
        return True

    def result(self, failure: str, **extra) -> AttackResult:
        """Success when the score ended below the threshold, else ``failure``."""
        status = SUCCESS if self.done else failure
        return AttackResult(
            success=status == SUCCESS,
            status=status,
            final_page=self.tree,
            trajectory=self.trajectory,
            mutated_features=self.mutated_features,
            mutated_rules=self.mutated_rules,
            queries=self._oracle.query_count - self._queries_before,
            elapsed=time.perf_counter() - self._started,
            **extra,
        )


def _term_payloads(rules_features) -> set[str]:
    prefix = F.PAGE_TERM + "="
    return {f[len(prefix):] for feats in rules_features for f in feats
            if f.startswith(prefix)}


_PLAN_FAILURES = (UnsupportedMutation, TermNotFound, FeatureAbsent,
                  UrlFeatureUnaddable, PathError)


# -- white-box ------------------------------------------------------------------

def white_box(knowledge: Knowledge, page: DomTree,
              only_rules: set[str] | None = None) -> AttackResult:
    """Greedy two-step loop: delete the positive-rule feature with maximal
    influence while it dominates every addable negative rule; otherwise add
    the negative rule with minimal (most negative) influence; stop when the
    score drops below the threshold or neither step applies."""
    clf = knowledge.model
    t = clf.freq_detect_threshold
    run = _Run(knowledge, page, _classifier_products(clf), keep_all=True)

    rules = [r for r in clf.rules
             if only_rules is None or r.id in only_rules]
    positive = [r for r in rules if r.weight > 0]
    negative = [r for r in rules if r.weight < 0]
    positive_features = sorted({f for r in positive for f in r.features})
    avoid_terms = _term_payloads([r.features for r in positive])
    banned_deletions: set[str] = set()
    banned_additions: set[str] = set()
    feature_universe = {f for r in rules for f in r.features}
    max_steps = max(50, 4 * (len(rules) + len(feature_universe)))

    while not run.done and len(run.trajectory) <= max_steps:
        fmap = run.fmap
        deletions: dict[str, float] = {}
        for feat in positive_features:
            if feat in banned_deletions or not deletable_feature(feat):
                continue
            if fmap.get(feat, 0.0) == 0.0:
                continue
            delta = influence_feature(clf, fmap, feat)
            if delta > 0:
                deletions[feat] = delta

        additions: dict[str, tuple[float, ClassificationRule]] = {}
        for rule in negative:
            if rule.id in banned_additions:
                continue
            unsat = unsatisfied(rule.features, fmap, t)
            if not unsat or not all(addable_feature(f) for f in unsat):
                continue
            delta = influence_rule(clf, fmap, rule)
            if delta < 0:
                additions[rule.id] = (delta, rule)

        plan: MutationPlan | None = None
        op_label = ""
        while plan is None:
            best_del = min(deletions.items(), key=lambda kv: (-kv[1], kv[0]),
                           default=None)
            best_add = min(additions.items(), key=lambda kv: (kv[1][0], kv[0]),
                           default=None)
            if best_del and (best_add is None
                             or best_del[1] >= -best_add[1][0]):
                feat = best_del[0]
                try:
                    plan = plan_delete_feature(run.tree, feat, t, avoid_terms,
                                               run.tally)
                    op_label = f"delete {feat}"
                except _PLAN_FAILURES:
                    banned_deletions.add(feat)
                    del deletions[feat]
            elif best_add:
                rule = best_add[1][1]
                try:
                    plan = plan_add_rule(run.tree, rule.features, t, run.tally)
                    op_label = f"add rule {rule.id}"
                except _PLAN_FAILURES:
                    banned_additions.add(rule.id)
                    del additions[rule.id]
            else:
                break
        if plan is None:
            break
        run.offer(plan, op_label)

    return run.result(EXHAUSTED)


# -- grey-box -------------------------------------------------------------------

def grey_box(knowledge: Knowledge, page: DomTree) -> AttackResult:
    """Phase 1 tentatively deletes each deletable feature of the known hit
    rules, keeping a deletion only when the queried score drops; phase 2
    does the same for additions of known rules the page does not hit."""
    t = knowledge.freq_detect_threshold
    rules = knowledge.rules or []
    run = _Run(knowledge, page, lambda fmap: _rule_products(rules, fmap, t))
    avoid_terms = _term_payloads([feats for _, feats in rules])

    reliance: dict[str, int] = {}
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
            plan = plan_delete_feature(run.tree, feat, t, avoid_terms, run.tally)
        except _PLAN_FAILURES:
            continue
        run.offer(plan, f"delete {feat}")

    for rule_id, feats in sorted(rules):
        if run.done:
            break
        if not unsatisfied(feats, run.fmap, t):
            continue
        try:
            plan = plan_add_rule(run.tree, feats, t, run.tally)
        except _PLAN_FAILURES:
            continue
        run.offer(plan, f"add rule {rule_id}")

    return run.result(EXHAUSTED)


# -- black-box ------------------------------------------------------------------

def _modification_candidates(tree: DomTree) -> list[tuple[str, tuple[int, ...], str]]:
    candidates: list[tuple[str, tuple[int, ...], str]] = []
    for path, el in walk_elements(tree):
        entry = MODIFIABLE_ATTRS.get(el.tag)
        if not entry:
            continue
        for name in el.attrs:
            if name in entry[0]:
                candidates.append(("attr", path, name))
    for path, node in walk_text_nodes(tree):
        seen: set[str] = set()
        for term, _, _ in term_spans(node.value):
            if len(term) >= 2 and term not in seen:
                seen.add(term)
                candidates.append(("text", path, term))
    return candidates


def black_box(knowledge: Knowledge, page: DomTree, pool: list[ElementSpec],
              batch: int = 3, budget: int = 2000, rng_seed: int = 0,
              trace: list | None = None) -> AttackResult:
    """Phase 1 applies every candidate node modification one at a time and
    keeps those that lower the queried score.  Phase 2 randomly adds
    invisible elements drawn from the pool; every ``batch`` additions the
    score is checked and the batch is rolled back unless it improved.
    """
    # the classifier is used for reporting only: rule flips do not guide
    run = _Run(knowledge, page, _classifier_products(knowledge.oracle.classifier))
    rng = random.Random(rng_seed)

    for kind, path, arg in _modification_candidates(page):
        if run.done:
            break
        try:
            if kind == "attr":
                op = modify_attribute(run.tree, path, arg)
                label = f"modify {arg} at {list(path)}"
            else:
                op = modify_text(run.tree, path, arg)
                label = f"split term {arg!r}"
        except (UnsupportedMutation, TermNotFound, PathError):
            continue
        plan = MutationPlan.on(run.tree, run.tally)
        plan.push(op)
        run.offer(plan, label)

    score_after_modification = run.score
    additions = 0
    while pool and not run.done and additions < budget:
        if trace is not None:
            trace.append(("checkpoint", serialize(run.tree)))
        plan = MutationPlan.on(run.tree, run.tally)
        draws = 0
        while len(plan.ops) < batch and additions < budget and draws < 10 * batch:
            draws += 1
            spec = pool[rng.randrange(len(pool))]
            try:
                op = add_invisible_element(plan.tree, spec)
            except UnsupportedMutation:
                continue
            plan.push(op)
            additions += 1
        if not plan.ops:
            break
        kept = run.offer(plan, f"add batch of {len(plan.ops)}",
                         feature_step=False)
        if trace is not None:
            trace.append(("keep" if kept else "rollback", serialize(run.tree)))

    return run.result(BUDGET_EXHAUSTED, additions=additions,
                      score_after_modification=score_after_modification,
                      rng_seed=rng_seed)


def run_attack(knowledge: Knowledge, page: DomTree,
               pool: list[ElementSpec] | None = None, batch: int = 3,
               budget: int = 2000, rng_seed: int = 0) -> AttackResult:
    """Dispatch on the knowledge level."""
    if knowledge.level == WHITE:
        result = white_box(knowledge, page)
    elif knowledge.level == GREY:
        result = grey_box(knowledge, page)
    elif knowledge.level == BLACK:
        result = black_box(knowledge, page, pool or [], batch, budget, rng_seed)
    else:
        raise ValueError(f"unknown knowledge level {knowledge.level!r}")
    if result.rng_seed is None:
        result.rng_seed = rng_seed
    return result
