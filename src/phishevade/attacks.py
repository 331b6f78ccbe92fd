"""Evasion attacks: white-box greedy, grey-box delete-then-add, black-box
modify-then-add with rollback.

All three mutate a detected page until the oracle's decision score falls
below the threshold, differing in what they know about the classifier:

* white: full model (rules and weights); each step ranks the feature
  deletions and rule additions in one list by exact score influence and
  keeps the first that plans.
* grey: rule feature sets but no weights, held as a model of the known
  rules (each of weight 1, in id order, bias 0); tentatively deletes
  features of the rules the page hits, then tentatively adds the rules it
  does not.
* black: nothing but the score oracle; modifies every modifiable node one at
  a time, then randomly adds harvested invisible elements in batches.

The three share one skeleton, ``_Run``: it holds one ``MutationPlan``, the
attack's only copy of the page with its feature tally, plus the queried
score of the kept ops, and each attack only pushes candidate ops onto that
plan (directly or through the planners) and offers them.  The candidate is
every op pushed since the last offer.  It is scored once, by
``ScoreOracle.score_tally`` on the plan's tally, which re-evaluates only the
rules filed under the features the candidate's ops changed: the page is
extracted in full only once per attack, when ``MutationPlan.on`` folds it
at the start.  The white attack keeps every candidate, grey and black keep
one only when its score drops, and a rejected candidate is undone in place
(a dropped black batch is the rollback), so ``plan.ops`` holds exactly the
kept ops.

The run follows the same tally with a second ``classifier.TallyHits``
tracker over its counted rules: ``knowledge.model`` (the classifier for
white, the known rules for grey) or, for black, which has no model, the
oracle's classifier.  The tracker is updated only when a candidate is
kept, so ``run.fmap``, its map, is the kept page's feature map in the
counted model's keys, and ``run.hits``, its hit table, holds the gated
products of the counted rules the kept page hits, keyed by rule position:
grey reads its deletion candidates and the rules it need not add from it.
Each kept candidate appends a trajectory step and adds to ``mutated_rules``
the non-zero-weight rules whose gated product the update changed; only the
rules filed under the features the candidate changed are evaluated.

An influence adds ``hit_contribution``, the rule's weight times its
``gated_product``, the one way the classifier evaluates a rule.  Influence
values are exact score differences for the features a candidate deletes or
adds, so accepted white-box steps are the one-step-lookahead optimum, but a
frequency padding also moves the ratios that share its denominator, which
the influence does not see: white bans a candidate whose kept step does not
lower the score.  Influences read only the rules that
``Classifier.rules_by_feature`` files under the features involved.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .classifier import (
    ClassificationRule,
    Classifier,
    ScoreOracle,
    TallyHits,
    hit_contribution,
    unsatisfied,
)
from .dom import DomTree, walk_elements, walk_text_nodes
# extract_all_features is bound here too: perfbench/layers.py times the
# extraction entry points on every module that binds them
from .features import FeatureValueMap, extract_all_features, terms_of  # noqa: F401
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
    split_avoid_terms,
)

WHITE, GREY, BLACK = "white", "grey", "black"
SUCCESS, EXHAUSTED, BUDGET_EXHAUSTED = "success", "exhausted", "budget_exhausted"


class RuleAlreadyHit(ValueError):
    """Influence of adding a rule is undefined when the page already hits it."""


@dataclass
class Knowledge:
    """What the attacker knows, plus the score oracle every level may query.

    ``model`` is what white and grey plan from: the classifier itself for
    white, a model of the known rules (unit weights, in id order, bias 0)
    for grey, and None for black."""

    level: str
    oracle: ScoreOracle
    model: Classifier | None = None
    threshold: float = 0.5


def white_knowledge(model: Classifier, oracle: ScoreOracle) -> Knowledge:
    return Knowledge(WHITE, oracle, model=model, threshold=model.threshold)


def grey_knowledge(rules, oracle: ScoreOracle, threshold: float = 0.5,
                   freq_detect_threshold: float = 0.05) -> Knowledge:
    """Grey knowledge of ``(id, features)`` pairs: a model of those rules,
    sorted by id, each with weight 1 (grey knows no weights, and a rule of
    weight 1 still counts in ``mutated_rules``) and a bias of 0.  A rule with
    no features, a repeated id or a threshold outside (0, 1) raises
    ``ValueError``, as it does in a model."""
    known = sorted((ClassificationRule(rule_id, frozenset(feats), 1.0)
                    for rule_id, feats in rules), key=lambda r: r.id)
    model = Classifier(0.0, tuple(known), threshold,
                       freq_detect_threshold=freq_detect_threshold)
    return Knowledge(GREY, oracle, model=model, threshold=threshold)


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
    contributions of the currently hit rules that rely on it, in rule
    order."""
    if fmap.get(feature, 0.0) == 0.0:
        raise FeatureAbsent(feature)
    rules, t = classifier.rules, classifier.freq_detect_threshold
    total = 0.0
    for i in classifier.rules_by_feature.get(feature, ()):
        contribution = hit_contribution(rules[i], fmap, t)
        if contribution is not None:
            total += contribution
    return total


def influence_rule(classifier: Classifier, fmap: FeatureValueMap,
                   rule: ClassificationRule) -> float:
    """Exact raw-score change from adding every feature of ``rule``.

    Counts every rule the addition flips to hit, i.e. rules whose
    unsatisfied features are covered by the added set (subset rules are the
    common case), with added features valued at 1.  Such a rule shares a
    feature with ``rule``, so only those are read, in rule order.
    """
    t = classifier.freq_detect_threshold
    added = unsatisfied(rule.features, fmap, t)
    if not added:
        raise RuleAlreadyHit(rule.id)
    post = {**fmap, **dict.fromkeys(added, 1.0)}
    index, rules = classifier.rules_by_feature, classifier.rules
    total = 0.0
    for i in sorted({i for feat in rule.features for i in index.get(feat, ())}):
        missing = unsatisfied(rules[i].features, fmap, t)
        if missing and missing <= rule.features:
            total += hit_contribution(rules[i], post, t)   # hit on post
    return total


# -- the shared attack skeleton ---------------------------------------------------

class _Run:
    """One attack in progress: the working plan over the attack's copy of
    the page, the queried score of the kept ops, the tracker of the counted
    rules on the kept page, the trajectory and the counters.

    The counted rules, whose changes count as mutated rules, are the
    non-zero-weight rules of ``knowledge.model``, or of the oracle's
    classifier when the attacker has no model (black).  ``fmap`` and
    ``hits`` are the tracker's ``values`` and ``hits`` on the kept page.
    With ``keep_all`` every offered candidate is kept; otherwise only one
    whose score drops.
    """

    def __init__(self, knowledge: Knowledge, page: DomTree,
                 keep_all: bool = False):
        self._oracle = knowledge.oracle
        self._tau = knowledge.threshold
        self._keep_all = keep_all
        self._started = time.perf_counter()
        self._queries_before = self._oracle.query_count
        self.plan = MutationPlan.on(page)
        self._kept = 0                # len(plan.ops) after the last keep
        self.score = self._oracle.score_tally(self.plan.tally)
        self._counted = TallyHits(knowledge.model or knowledge.oracle.classifier,
                                  self.plan.tally)
        self.fmap, self.hits = self._counted.values, self._counted.hits
        self.trajectory = [TrajectoryStep(0, "initial", self.score)]
        self.mutated_features = self.mutated_rules = 0

    @property
    def done(self) -> bool:
        return self.score < self._tau

    def offer(self, label: str, feature_step: bool = True) -> bool:
        """Score the candidate, the ops pushed onto ``plan`` since the last
        offer, from the plan's tally; keep it if the keep rule allows, else
        undo it.  ``feature_step`` counts a kept one as a mutated feature."""
        plan = self.plan
        score = self._oracle.score_tally(plan.tally)
        if not (self._keep_all or score < self.score):
            plan.undo(self._kept)
            return False
        rules = self._counted.classifier.rules
        self.mutated_rules += sum(1 for i in self._counted.update()
                                  if rules[i].weight != 0.0)
        self.mutated_features += feature_step
        self._kept = len(plan.ops)
        self.score = score
        self.trajectory.append(TrajectoryStep(len(self.trajectory), label, score))
        return True

    def result(self, failure: str, **extra) -> AttackResult:
        """Success when the score ended below the threshold, else ``failure``."""
        status = SUCCESS if self.done else failure
        return AttackResult(
            success=status == SUCCESS,
            status=status,
            final_page=self.plan.tree,
            trajectory=self.trajectory,
            mutated_features=self.mutated_features,
            mutated_rules=self.mutated_rules,
            queries=self._oracle.query_count - self._queries_before,
            elapsed=time.perf_counter() - self._started,
            **extra,
        )


_PLAN_FAILURES = (UnsupportedMutation, TermNotFound, FeatureAbsent,
                  UrlFeatureUnaddable, PathError)


# -- white-box ------------------------------------------------------------------

def white_box(knowledge: Knowledge, page: DomTree,
              only_rules: set[str] | None = None) -> AttackResult:
    """Greedy loop: each step ranks the deletions of present positive-rule
    features with positive influence and the additions of negative rules
    with negative influence, and keeps the first that plans.  A deletion is
    ranked ``(-influence, 0, label)`` and an addition ``(influence, 1,
    label)``, so the largest score drop comes first and a deletion wins a
    tie; a candidate that fails to plan, or whose kept step does not lower
    the score, is banned for the rest of the attack.  Stops when the score
    drops below the threshold or nothing plans."""
    clf = knowledge.model
    t = clf.freq_detect_threshold
    run = _Run(knowledge, page, keep_all=True)

    rules = [r for r in clf.rules
             if only_rules is None or r.id in only_rules]
    positive = [r for r in rules if r.weight > 0]
    negative = [r for r in rules if r.weight < 0]
    deletable = sorted({f for r in positive for f in r.features
                        if deletable_feature(f)})
    addable = {f for r in negative for f in r.features if addable_feature(f)}
    avoid_terms = split_avoid_terms(f for r in positive for f in r.features)
    banned: set[str] = set()
    feature_universe = {f for r in rules for f in r.features}
    max_steps = max(50, 4 * (len(rules) + len(feature_universe)))

    while not run.done and len(run.trajectory) <= max_steps:
        fmap = run.fmap
        ranked = []
        for feat in deletable:
            label = f"delete {feat}"
            if fmap.get(feat, 0.0) != 0.0 and label not in banned:
                delta = influence_feature(clf, fmap, feat)
                if delta > 0:
                    ranked.append(((-delta, 0, label), partial(
                        plan_delete_feature, run.plan, feat, t, avoid_terms)))
        for rule in negative:
            label = f"add rule {rule.id}"
            unsat = unsatisfied(rule.features, fmap, t)
            if unsat and unsat <= addable and label not in banned:
                delta = influence_rule(clf, fmap, rule)
                if delta < 0:
                    ranked.append(((delta, 1, label), partial(
                        plan_add_rule, run.plan, rule.features, t)))
        ranked.sort(key=lambda candidate: candidate[0])
        for (_, _, label), push in ranked:
            try:
                push()
            except _PLAN_FAILURES:
                banned.add(label)
                continue
            before = run.score
            run.offer(label)
            if not run.score < before:
                # its padding moved a ratio that rules outside its influence
                # read; retried, two such candidates can undo each other
                # step after step while the padding grows with the page
                banned.add(label)
            break
        else:
            break

    return run.result(EXHAUSTED)


# -- grey-box -------------------------------------------------------------------

def grey_box(knowledge: Knowledge, page: DomTree) -> AttackResult:
    """Phase 1 tentatively deletes each deletable feature of the known hit
    rules, keeping a deletion only when the queried score drops; phase 2
    does the same for additions of the known rules the page does not hit,
    in id order.  Both read the known rules from ``knowledge.model``: its
    ``rules_by_feature`` gives each feature's reliance, and ``run.hits``,
    keyed by rule position, the rules the kept page hits."""
    clf = knowledge.model
    t = clf.freq_detect_threshold
    by_feature = clf.rules_by_feature
    run = _Run(knowledge, page)
    avoid_terms = split_avoid_terms(by_feature)

    # the most relied-on features first
    candidates = sorted({f for i in run.hits for f in clf.rules[i].features
                         if deletable_feature(f)},
                        key=lambda f: (-len(by_feature[f]), f))
    for feat in candidates:
        if run.done:
            break
        if run.fmap.get(feat, 0.0) == 0.0:
            continue
        try:
            plan_delete_feature(run.plan, feat, t, avoid_terms)
        except _PLAN_FAILURES:
            continue
        run.offer(f"delete {feat}")

    for i, rule in enumerate(clf.rules):
        if run.done:
            break
        if i in run.hits:
            continue
        try:
            plan_add_rule(run.plan, rule.features, t)
        except _PLAN_FAILURES:
            continue
        run.offer(f"add rule {rule.id}")

    return run.result(EXHAUSTED)


# -- black-box ------------------------------------------------------------------

def _modification_candidates(tree: DomTree):
    """Every node modification of ``tree`` as ``(label, planner, path,
    arg)``: each modifiable attribute, then each distinct term of two or
    more characters per text node, in document order."""
    for path, el in walk_elements(tree):
        entry = MODIFIABLE_ATTRS.get(el.tag)
        if not entry:
            continue
        for name in el.attrs:
            if name in entry[0]:
                yield f"modify {name} at {list(path)}", modify_attribute, path, name
    for path, node in walk_text_nodes(tree):
        for term in dict.fromkeys(terms_of(node.value)):
            if len(term) >= 2:
                yield f"split term {term!r}", modify_text, path, term


def black_box(knowledge: Knowledge, page: DomTree, pool: list[ElementSpec],
              batch: int = 3, budget: int = 2000, rng_seed: int = 0) -> AttackResult:
    """Phase 1 applies every candidate node modification one at a time and
    keeps those that lower the queried score.  Phase 2 randomly adds
    invisible elements drawn from the pool; every ``batch`` additions the
    score is checked and the batch is rolled back unless it improved.
    """
    # _Run counts the oracle's rules for reporting only: rule flips do not guide
    run = _Run(knowledge, page)
    plan = run.plan
    rng = random.Random(rng_seed)

    for label, planner, path, arg in _modification_candidates(page):
        if run.done:
            break
        try:
            op = planner(plan.tree, path, arg)
        except _PLAN_FAILURES:
            continue
        plan.push(op)
        run.offer(label)

    score_after_modification = run.score
    additions = 0
    while pool and not run.done and additions < budget:
        pushed = draws = 0
        while pushed < batch and additions < budget and draws < 10 * batch:
            draws += 1
            spec = pool[rng.randrange(len(pool))]
            try:
                op = add_invisible_element(plan.tree, spec)
            except UnsupportedMutation:
                continue
            plan.push(op)
            pushed += 1
            additions += 1
        if not pushed:
            break
        run.offer(f"add batch of {pushed}", feature_step=False)

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
