import copy
import json
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishevade.classifier import SchemaError, ScoreOracle, raw_score, rule_hit, score
from phishevade.dom import (
    ELEMENT,
    TEXT,
    DomNode,
    DomTree,
    isomorphic,
    parse_html,
    serialize,
    walk_elements,
    walk_text_nodes,
)
from phishevade.features import (
    PageTally,
    extract_all_features,
    extract_page_features,
    hash_feature,
    terms_of,
)
from phishevade.mutation import (
    MODIFIABLE_ATTRS,
    ElementSpec,
    FeatureAbsent,
    MutationPlan,
    NodeOp,
    PathError,
    TermNotFound,
    UnsupportedMutation,
    UrlFeatureUnaddable,
    _resolve,
    add_invisible_element,
    apply,
    apply_op,
    deletable_feature,
    harvest_addition_pool,
    load_pool,
    modify_attribute,
    modify_text,
    parse_handler_assignments,
    plan_add_rule,
    plan_delete_feature,
    preservation_check,
    save_pool,
)

from conftest import (
    build_page,
    build_page_html,
    make_classifier,
    planned,
    rule,
    suite_seed_pages,
)
from features_oracle import extract_all_features as oracle_extract_all_features
from features_oracle import feature_counts, page_counts
from test_features import SOUP


def path_of(tree, predicate):
    for path, el in walk_elements(tree):
        if predicate(el):
            return path
    raise AssertionError("no matching element")


# -- modify_attribute -----------------------------------------------------------

def test_button_type_rewrite_matches_crafted_form():
    tree = parse_html(
        '<html><head><style type="text/css">button[type=submit]{height:38px}'
        "</style></head><body><button type=\"submit\"></button></body></html>",
        "http://seed.test/")
    path = path_of(tree, lambda el: el.tag == "button")
    op = modify_attribute(tree, path, "type")
    out = apply_op(tree, op)
    assert '<button style="height:38px;" onclick="this.type=\'submit\';">' \
        in serialize(out)


def test_input_radio_type_unsupported():
    tree = parse_html('<html><body><input type="radio"></body></html>',
                      "http://seed.test/")
    path = path_of(tree, lambda el: el.tag == "input")
    with pytest.raises(UnsupportedMutation):
        modify_attribute(tree, path, "type")


def test_input_password_type_modifiable():
    tree = parse_html(
        '<html><head><style>input[type=password]{width:8px;}</style></head>'
        '<body><input type="password"></body></html>', "http://seed.test/")
    path = path_of(tree, lambda el: el.tag == "input")
    out = apply_op(tree, modify_attribute(tree, path, "type"))
    assert '<input style="width:8px;" onfocus="this.type=\'password\';">' \
        in serialize(out)


def test_anchor_href_rewrite_removes_link_domain_feature():
    tree = parse_html('<html><body><a href="http://x.com/">t</a></body></html>',
                      "http://seed.test/")
    assert "PageLinkDomain=x.com" in extract_page_features(tree)
    path = path_of(tree, lambda el: el.tag == "a")
    out = apply_op(tree, modify_attribute(tree, path, "href"))
    fmap = extract_page_features(out)
    assert "PageLinkDomain=x.com" not in fmap
    assert "PageExternalLinksFreq" not in fmap   # the href attribute is gone
    a = out.root.element_children[0].element_children[0]
    assert a.get_attr("onclick") == "this.href='http://x.com/';"


def test_attribute_rewrite_with_stylesheet_preserves_projection():
    # the inlined style replaces a stylesheet rule keyed on the removed
    # attribute, so the effective appearance is unchanged
    tree = parse_html(
        '<html><head><style>input[type=password]{width:120px}</style></head>'
        '<body><input type="password" name="pass"></body></html>',
        "http://seed.test/")
    plan = planned(plan_delete_feature, tree, "PageHasPswdInputs")
    out = apply(tree, plan)
    report = preservation_check(tree, out)
    assert report.passed, report.problems


def test_unlisted_attribute_unsupported():
    tree = parse_html('<html><body><p align="center">x</p></body></html>',
                      "http://seed.test/")
    path = path_of(tree, lambda el: el.tag == "p")
    with pytest.raises(UnsupportedMutation):
        modify_attribute(tree, path, "align")


def test_handler_value_escaping_round_trips():
    tree = parse_html("<html><body><a href=\"http://x.com/?q='a'\">t</a>"
                      "</body></html>", "http://seed.test/")
    path = path_of(tree, lambda el: el.tag == "a")
    out = apply_op(tree, modify_attribute(tree, path, "href"))
    a = out.root.element_children[0].element_children[0]
    restored = parse_handler_assignments(a.get_attr("onclick"))
    assert restored == {"href": "http://x.com/?q='a'"}
    # and survives a serialize/parse cycle
    again = parse_html(serialize(out), "http://seed.test/")
    a2 = again.root.element_children[0].element_children[0]
    assert parse_handler_assignments(a2.get_attr("onclick")) == restored


# -- modify_text ----------------------------------------------------------------

def test_zero_width_split_at_midpoint():
    tree = parse_html("<html><body><p>Hello World!</p></body></html>",
                      "http://seed.test/")
    path = next(p for p, _ in walk_text_nodes(tree))
    out = apply_op(tree, modify_text(tree, path, "Hello"))
    text = next(n for _, n in walk_text_nodes(out))
    assert text.value == "Hel\u200blo World!"


def test_modify_text_term_not_found():
    tree = parse_html("<html><body><p>Hello World!</p></body></html>",
                      "http://seed.test/")
    path = next(p for p, _ in walk_text_nodes(tree))
    with pytest.raises(TermNotFound):
        modify_text(tree, path, "absent")


def test_split_produces_two_fragment_terms():
    tree = parse_html("<html><body><p>Hello World!</p></body></html>",
                      "http://seed.test/")
    path = next(p for p, _ in walk_text_nodes(tree))
    out = apply_op(tree, modify_text(tree, path, "Hello"))
    fmap = extract_page_features(out)
    assert "PageTerm=Hello" not in fmap
    assert fmap["PageTerm=Hel"] == 1.0 and fmap["PageTerm=lo"] == 1.0


def test_split_avoids_fragments_hitting_known_terms():
    tree = parse_html("<html><body><p>Hello</p></body></html>",
                      "http://seed.test/")
    path = next(p for p, _ in walk_text_nodes(tree))
    op = modify_text(tree, path, "Hello", avoid_terms={"Hel", "lo"})
    out = apply_op(tree, op)
    fmap = extract_page_features(out)
    assert "PageTerm=Hel" not in fmap and "PageTerm=lo" not in fmap
    assert "PageTerm=Hello" not in fmap


def test_split_abandoned_when_every_cut_collides():
    tree = parse_html("<html><body><p>ab</p></body></html>", "http://seed.test/")
    path = next(p for p, _ in walk_text_nodes(tree))
    with pytest.raises(UnsupportedMutation):
        modify_text(tree, path, "ab", avoid_terms={"a", "b"})


# -- add_invisible_element --------------------------------------------------------

def test_invisible_link_bumps_secure_counts():
    tree = build_page(secure_links=1)
    before = page_counts(tree)
    out = apply_op(tree, add_invisible_element(
        tree, ElementSpec("a", (("href", "https://ext.example.net/"),))))
    after = page_counts(out)
    assert after.links == before.links + 1
    assert after.secure_links == before.secure_links + 1


def test_invisible_empty_div_changes_nothing():
    tree = build_page(terms=["hello"])
    out = apply_op(tree, add_invisible_element(tree, ElementSpec("div")))
    assert extract_page_features(out) == extract_page_features(tree)


def test_invisible_text_term_appears_but_projection_unchanged():
    tree = build_page(terms=["hello"])
    out = apply_op(tree, add_invisible_element(
        tree, ElementSpec("div", (), "bonus")))
    assert extract_page_features(out)["PageTerm=bonus"] == 1.0
    report = preservation_check(tree, out)
    assert report.projection_equal


# -- plan_delete_feature -----------------------------------------------------------

def test_delete_page_has_forms_unsupported():
    tree = build_page(bare_form=True)
    with pytest.raises(UnsupportedMutation):
        planned(plan_delete_feature, tree, "PageHasForms")


def test_delete_absent_feature():
    tree = build_page(terms=["x"])
    with pytest.raises(FeatureAbsent):
        planned(plan_delete_feature, tree, "PageHasPswdInputs")


def test_delete_password_inputs_uses_onfocus_rewrite():
    tree = build_page(input_types=["password"])
    plan = planned(plan_delete_feature, tree, "PageHasPswdInputs")
    out = apply(tree, plan)
    assert "PageHasPswdInputs" not in extract_page_features(out)
    assert "onfocus=\"this.type='password';\"" in serialize(out)


def test_delete_external_links_freq_dilution_arithmetic():
    # 2 external / 4 total at threshold 0.05: 37 internal links give 2/41 < 0.05
    tree = build_page(insecure_external_links=2, internal_links=2)
    assert extract_page_features(tree)["PageExternalLinksFreq"] == 0.5
    plan = planned(plan_delete_feature, tree, "PageExternalLinksFreq",
                   freq_detect_threshold=0.05)
    assert len(plan.ops) == 37
    out = apply(tree, plan)
    fmap = extract_page_features(out)
    assert fmap["PageExternalLinksFreq"] < 0.05
    counts = page_counts(out)
    assert (counts.links, counts.external_links) == (41, 2)


def test_delete_term_breaks_every_occurrence():
    tree = parse_html("<html><body><p>pay pay</p><div>pay again</div>"
                      "</body></html>", "http://seed.test/")
    plan = planned(plan_delete_feature, tree, "PageTerm=pay")
    out = apply(tree, plan)
    assert "PageTerm=pay" not in extract_page_features(out)
    assert len(plan.ops) == 3


def test_delete_action_url_rewrites_form():
    tree = build_page(actions=["http://collector.evil.example/post"])
    plan = planned(plan_delete_feature, tree,
                   "PageActionURL=http://collector.evil.example/post")
    out = apply(tree, plan)
    fmap = extract_page_features(out)
    assert "PageActionURL=http://collector.evil.example/post" not in fmap
    assert "PageActionOtherDomainFreq" not in fmap
    form = next(el for _, el in walk_elements(out) if el.tag == "form")
    assert form.get_attr("oninput") == \
        "this.action='http://collector.evil.example/post';"


def test_delete_url_feature_unsupported():
    tree = build_page(terms=["x"])
    with pytest.raises(UnsupportedMutation):
        planned(plan_delete_feature, tree, "UrlPathToken=page")


# -- plan_add_rule -------------------------------------------------------------------

def test_add_single_term_rule():
    tree = build_page(terms=["hello"])
    r = rule("r", {"PageTerm=secure"}, -1.0)
    plan = planned(plan_add_rule, tree, r.features)
    assert len(plan.ops) == 1
    out = apply(tree, plan)
    assert rule_hit(r, extract_page_features(out))


def test_add_url_feature_unaddable():
    tree = build_page(terms=["hello"])
    with pytest.raises(UrlFeatureUnaddable):
        planned(plan_add_rule, tree, {"UrlTld=org"})


def test_add_url_feature_already_satisfied_is_fine():
    tree = build_page(terms=["hello"])          # url http://seed.test/page
    plan = planned(plan_add_rule, tree, {"UrlPathToken=page", "PageTerm=bank"})
    out = apply(tree, plan)
    fmap = extract_all_features(out)
    assert fmap["PageTerm=bank"] == 1.0 and fmap["UrlPathToken=page"] == 1.0


def test_add_rule_score_delta_matches_brute_force():
    clf = make_classifier([
        rule("target", {"PageHasRadioInputs", "PageTerm=bank"}, -2.0),
        rule("entailed", {"PageTerm=bank"}, -0.5),
        rule("unrelated", {"PageTerm=zzz"}, 3.0),
    ])
    tree = build_page(terms=["hello"])
    before = raw_score(clf, extract_all_features(tree))
    plan = planned(plan_add_rule, tree, clf.rule("target").features)
    out = apply(tree, plan)
    after = raw_score(clf, extract_all_features(out))
    assert after - before == pytest.approx(-2.5, abs=1e-12)


def test_add_frequency_feature_reaches_detection_threshold():
    tree = build_page(internal_links=5)
    plan = planned(plan_add_rule, tree, {"PageImgOtherDomainFreq"},
                   freq_detect_threshold=0.5)
    out = apply(tree, plan)
    assert extract_page_features(out)["PageImgOtherDomainFreq"] >= 0.5


@pytest.mark.parametrize("feature", [
    "PageExternalLinksFreq", "PageSecureLinksFreq", "PageActionOtherDomainFreq",
    "PageImgOtherDomainFreq"])
def test_add_frequency_feature_fails_at_once_when_padding_cannot_count(feature):
    # on a page without a URL no reference is external or secure, so padding
    # would only grow the denominator, by a factor of ten per round at t=0.9
    tree = parse_html(build_page_html(terms=["hello"], internal_links=2), "")
    with pytest.raises(UnsupportedMutation, match="does not count"):
        planned(plan_add_rule, tree, {feature}, freq_detect_threshold=0.9)


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("planner", [
    lambda tree, t: planned(plan_delete_feature, tree, "PageExternalLinksFreq", t),
    lambda tree, t: planned(plan_add_rule, tree, {"PageExternalLinksFreq"}, t),
], ids=["delete", "add"])
def test_planners_reject_frequency_threshold_outside_unit_interval(planner, t):
    # t = 0 divided by zero while diluting the external-link ratio
    tree = parse_html('<html><body><a href="http://x.test/">a</a></body></html>',
                      "http://seed.test/")
    with pytest.raises(ValueError, match="freq_detect_threshold"):
        planner(tree, t)


LINK_RATIOS = {"PageExternalLinksFreq", "PageSecureLinksFreq"}
TWO_INTERNAL_LINKS = ('<html><body><a href="/x">a</a><a href="/y">b</a>'
                      '</body></html>')


def test_add_both_link_ratios_above_one_half_fails_at_once():
    # each round's external padding dilutes the secure ratio and the secure
    # padding the external one: the page grew ninefold per round at t=0.9
    tree = parse_html(TWO_INTERNAL_LINKS, "http://seed.test/page")
    started = time.perf_counter()
    with pytest.raises(UnsupportedMutation, match="cannot both reach"):
        planned(plan_add_rule, tree, LINK_RATIOS, freq_detect_threshold=0.9)
    assert time.perf_counter() - started < 1.0


def test_add_both_link_ratios_at_or_below_one_half_still_plans():
    tree = parse_html(TWO_INTERNAL_LINKS, "http://seed.test/page")
    counts = page_counts(planned(plan_add_rule, tree, LINK_RATIOS, 0.3).tree)
    assert (counts.links, counts.external_links, counts.secure_links) == (6, 2, 2)


# -- apply ---------------------------------------------------------------------------

def test_apply_leaves_original_untouched():
    tree = build_page(terms=["hello"])
    before = serialize(tree)
    plan = planned(plan_add_rule, tree, {"PageTerm=new"})
    apply(tree, plan)
    assert serialize(tree) == before


def test_apply_path_error():
    tree = build_page(terms=["hello"])
    from phishevade.mutation import NodeOp
    bogus = MutationPlan([NodeOp("modify_text", (9, 9, 9),
                                 {"term": "x", "offset": 0})])
    with pytest.raises(PathError):
        apply(tree, bogus)


def test_no_url_drift_across_plans():
    tree = build_page(terms=["hello"], insecure_external_links=2,
                      internal_links=2)
    for plan in [planned(plan_delete_feature, tree, "PageTerm=hello"),
                 planned(plan_add_rule, tree, {"PageTerm=x"})]:
        assert apply(tree, plan).source_url == tree.source_url


# -- plan trees -------------------------------------------------------------------------

_PLAN_FAILURES = (UnsupportedMutation, FeatureAbsent, UrlFeatureUnaddable,
                  TermNotFound, PathError)
RULE_FEATURES = [
    "PageTerm=login", "PageTerm=bank", "PageHasForms", "PageHasTextInputs",
    "PageHasPswdInputs", "PageHasRadioInputs", "PageHasCheckInputs",
    "PageNumScriptTags>1", "PageNumScriptTags>6",
    "PageActionURL=http://collector.evil.example/post",
    "PageLinkDomain=example.org", "PageExternalLinksFreq",
    "PageSecureLinksFreq", "PageActionOtherDomainFreq",
    "PageImgOtherDomainFreq", "UrlPathToken=page",
]


@settings(max_examples=100, deadline=None)
@given(pieces=SOUP, data=st.data(),
       url=st.sampled_from(["", "http://seed.test/page", "https://seed.test/login"]),
       t=st.sampled_from([0.05, 0.3, 0.6, 0.9]))
def test_plan_tree_is_the_replay_of_its_ops(pieces, data, url, t):
    """A planner's ``plan.tree`` equals replaying its ops onto the input with
    ``apply``, and planning leaves the input as it was."""
    tree = parse_html("<html><body>" + "".join(pieces), url)
    before = serialize(tree)
    avoid = data.draw(st.sets(st.sampled_from(["lo", "gin", "ver", "ify"])))
    plans = []
    for feat in sorted(f for f in extract_all_features(tree) if deletable_feature(f)):
        try:
            plans.append(planned(plan_delete_feature, tree, feat, t, avoid))
        except _PLAN_FAILURES:
            pass
    for feats in data.draw(st.lists(st.sets(st.sampled_from(RULE_FEATURES),
                                            min_size=1, max_size=3), max_size=4)):
        try:
            plans.append(planned(plan_add_rule, tree, feats, t))
        except _PLAN_FAILURES:
            pass
    for plan in plans:
        replay = apply(tree, plan)
        assert serialize(plan.tree) == serialize(replay)
        assert isomorphic(plan.tree.root, replay.root)
    assert serialize(tree) == before


def test_planners_push_onto_the_plan_without_copying(copied_trees):
    tree = build_page(terms=["pay", "pay"], input_types=["password"],
                      insecure_external_links=2, internal_links=2)
    for planner, args in [(plan_delete_feature, ("PageTerm=pay",)),
                          (plan_delete_feature, ("PageHasPswdInputs",)),
                          (plan_delete_feature, ("PageExternalLinksFreq",)),
                          (plan_add_rule, ({"PageTerm=new", "PageHasRadioInputs"},))]:
        plan = MutationPlan.on(tree)
        work = plan.tree
        copied_trees.clear()
        planner(plan, *args)
        assert plan.ops and copied_trees == [] and plan.tree is work


def _reextract_term_ops(tree, term, avoid_terms):
    """The old PageTerm deletion: split the first text node still holding
    the term, then extract the whole page again, until the term is gone."""
    work, ops = tree.copy(), []
    while f"PageTerm={term}" in extract_page_features(work):
        for path, node in walk_text_nodes(work):
            if term in terms_of(node.value):
                ops.append(modify_text(work, path, term, avoid_terms))
                work = apply_op(work, ops[-1])
                break
        else:
            break
    return ops


@pytest.mark.parametrize("avoid", [None, {"pa"}, {"pa", "y"}, {"p", "pa", "ay", "y"}])
def test_term_deletion_splits_node_by_node_like_the_reextract_loop(avoid):
    tree = parse_html(
        "<html><body><p>pay pay\u200bpal pay</p><script>pay</script>"
        "<div>paypay pay <b>pay</b> again pay</div><p>no match</p></body></html>",
        "http://seed.test/")
    try:
        expected = _reextract_term_ops(tree, "pay", avoid)
    except UnsupportedMutation:
        with pytest.raises(UnsupportedMutation):
            planned(plan_delete_feature, tree, "PageTerm=pay", avoid_terms=avoid)
        return
    plan = planned(plan_delete_feature, tree, "PageTerm=pay", avoid_terms=avoid)
    assert len(expected) == 6
    assert plan.ops == expected
    assert "PageTerm=pay" not in extract_page_features(plan.tree)


# -- the carried tally -------------------------------------------------------------

@contextmanager
def checked_pushes():
    """Check after every ``MutationPlan.push`` that the plan's feature map,
    read from its tally, is the reference extraction of its tree."""
    push = MutationPlan.push

    def checking(self, op):
        push(self, op)
        assert self.fmap == oracle_extract_all_features(self.tree), op

    with mock.patch.object(MutationPlan, "push", checking):
        yield


def _text_nodes(tree):
    """``(path, node)`` for every text node, script and style text included."""
    out, stack = [], [((), tree.root)]
    while stack:
        path, node = stack.pop()
        if node.node_type == TEXT:
            out.append((path, node))
        stack.extend((path + (i,), c) for i, c in enumerate(node.children))
    return sorted(out, key=lambda entry: entry[0])


# Addition specs for the black-box steps: script and style text that must
# not count, references of every kind, input types in any case.
EDGE_POOL = [
    ElementSpec("script", (), "login now"),
    ElementSpec("style", (), "verify account"),
    ElementSpec("a", (("href", "http://a.example.com/"),)),
    ElementSpec("a", (("href", "/local"),), "help"),
    ElementSpec("img", (("src", "https://cdn.shop.co.uk/i.png"),)),
    ElementSpec("img", ()),
    ElementSpec("form", (("action", "http://collector.evil.example/post"),)),
    ElementSpec("form", (("action", ""),)),
    ElementSpec("input", (("type", "Password"),)),
    ElementSpec("input", (("type", "checkbox"),)),
    ElementSpec("div", (("style", "color:red"),), "login bank"),
    ElementSpec("span", (), "x\u200bverify login"),
]


def _black_op(draw, tree):
    """One black-box NodeOp on ``tree``: an attribute rewrite, a term split
    in any text node, or an invisible addition."""
    kind = draw(st.sampled_from(["modify", "split", "append"]))
    if kind == "modify":
        targets = [(path, name) for path, el in walk_elements(tree)
                   if el.tag in MODIFIABLE_ATTRS
                   for name in el.attrs if name in MODIFIABLE_ATTRS[el.tag][0]]
        if targets:
            return modify_attribute(tree, *draw(st.sampled_from(targets)))
    elif kind == "split":
        targets = [(path, term) for path, node in _text_nodes(tree)
                   for term in terms_of(node.value) if len(term) >= 2]
        if targets:
            return modify_text(tree, *draw(st.sampled_from(targets)))
    return add_invisible_element(tree, draw(st.sampled_from(EDGE_POOL)))


@settings(max_examples=150, deadline=None)
@given(pieces=SOUP, body=st.booleans(), data=st.data(),
       url=st.sampled_from(["", "http://seed.test/page", "https://seed.test/login",
                            "https://shop.co.uk/cart"]),
       t=st.floats(min_value=0.05, max_value=0.9))
def test_plan_fmap_is_the_extraction_of_its_tree_after_every_push(
        pieces, body, data, url, t):
    """Planner and black-box ops pushed onto one plan keep ``plan.fmap``
    equal to the reference extraction of ``plan.tree``; pages with and
    without a body."""
    tree = parse_html(("<html><body>" if body else "") + "".join(pieces), url)
    assert extract_all_features(tree) == oracle_extract_all_features(tree)
    plan = MutationPlan.on(tree)
    draw = data.draw
    avoid = draw(st.sets(st.sampled_from(["lo", "gin", "ver", "ify"])))
    with checked_pushes():
        for _ in range(draw(st.integers(1, 6), label="plans")):
            step = draw(st.sampled_from(["delete", "add", "black"]))
            try:
                if step == "delete":
                    present = sorted(f for f in plan.fmap if deletable_feature(f))
                    if present:
                        plan_delete_feature(plan, draw(st.sampled_from(present)),
                                            t, avoid)
                elif step == "add":
                    feats = draw(st.sets(st.sampled_from(RULE_FEATURES),
                                         min_size=1, max_size=3))
                    plan_add_rule(plan, feats, t)
                else:
                    for _ in range(draw(st.integers(1, 3), label="ops")):
                        plan.push(_black_op(draw, plan.tree))
            except _PLAN_FAILURES:
                pass
    assert plan.fmap == oracle_extract_all_features(plan.tree)
    assert extract_all_features(plan.tree) == oracle_extract_all_features(plan.tree)
    _assert_values_are_the_map(plan.tally)


def test_plan_fmap_follows_rewrites_and_additions_that_extraction_skips():
    tree = parse_html(
        '<html><body><a href="http://a.example.com/x">go</a>'
        '<input type="text"><script>login</script></body></html>',
        "http://seed.test/")
    with checked_pushes():
        plan = MutationPlan.on(tree)
        plan.push(modify_attribute(plan.tree, path_of(plan.tree, lambda el: el.tag == "a"),
                                   "href"))
        plan.push(modify_attribute(plan.tree,
                                   path_of(plan.tree, lambda el: el.tag == "input"), "type"))
        script_text = next(p for p, n in _text_nodes(plan.tree) if n.value == "login")
        plan.push(modify_text(plan.tree, script_text, "login"))
        for spec in EDGE_POOL[:2]:
            plan.push(add_invisible_element(plan.tree, spec))
    fmap = plan.fmap
    assert "PageLinkDomain=example.com" not in fmap
    assert "PageExternalLinksFreq" not in fmap
    assert "PageHasTextInputs" not in fmap
    assert not [f for f in fmap if f.startswith("PageTerm=") and f != "PageTerm=go"]
    assert fmap["PageNumScriptTags>1"] == 1.0

    bodiless = parse_html("<p>hello</p>", "http://seed.test/")
    with checked_pushes():
        plan = MutationPlan.on(bodiless)
        plan.push(add_invisible_element(plan.tree, EDGE_POOL[-2]))
    assert plan.tree.root.children[-1].tag == "div"
    assert {"PageTerm=hello", "PageTerm=login", "PageTerm=bank"} <= set(plan.fmap)


# -- the undo journal --------------------------------------------------------------------

SUITE_PAGES = [page for _, page in suite_seed_pages(per_bucket=1)]


def _plan_state(plan):
    return (list(plan.ops), serialize(plan.tree), dict(plan.tally.features),
            copy.copy(plan.tally.counts))


def _assert_values_are_the_map(tally):
    """``tally.value`` of every rule feature and page feature is its value
    on the tally's page feature map."""
    fmap = tally.page_fmap()
    for name in {*RULE_FEATURES, *fmap}:
        assert tally.value(name) == fmap.get(name, 0.0), name


def _assert_journal_lists_every_change(tally, before, mark):
    """Every page feature whose value differs from ``before``, the page
    feature map before the edits, is in the journal past ``mark``, its
    length before the edits."""
    after = tally.page_fmap()
    changed = {name for name in {*before, *after}
               if before.get(name, 0.0) != after.get(name, 0.0)}
    assert changed <= set(tally.journal[mark:])


def _assert_plan_is_its_replay(plan, page):
    """``plan.tree`` is the replay of ``plan.ops`` onto ``page``, and its
    tally is the reference fold of that tree."""
    assert serialize(plan.tree) == serialize(apply(page, MutationPlan(list(plan.ops))))
    assert dict(plan.tally.features) == dict(feature_counts(plan.tree))
    assert plan.tally.counts == page_counts(plan.tree)
    assert plan.fmap == oracle_extract_all_features(plan.tree)
    _assert_values_are_the_map(plan.tally)


@settings(max_examples=150, deadline=None)
@given(suite=st.sampled_from(range(len(SUITE_PAGES))), pieces=SOUP,
       random_page=st.booleans(), data=st.data(),
       url=st.sampled_from(["", "http://seed.test/page", "https://shop.co.uk/cart"]),
       t=st.sampled_from([0.05, 0.3, 0.6]))
def test_undo_takes_tree_and_tally_back_to_the_replay_of_the_kept_ops(
        suite, pieces, random_page, data, url, t):
    """Pushes, planner calls and undos to random marks, on suite pages and
    random pages: after every step the plan is the replay of its ops, every
    page feature whose value the step changed is in the journal past the
    step's mark, a failed planner leaves the plan as it was, ``undo(0)``
    gives back the input page, and the input page is never touched."""
    page = parse_html("<html><body>" + "".join(pieces), url) if random_page \
        else SUITE_PAGES[suite]
    before = serialize(page)
    draw = data.draw
    plan = MutationPlan.on(page)
    for _ in range(draw(st.integers(1, 10), label="steps")):
        step = draw(st.sampled_from(["push", "undo", "delete", "add"]))
        state = _plan_state(plan)
        values, mark = plan.tally.page_fmap(), len(plan.tally.journal)
        try:
            if step == "push":
                plan.push(_black_op(draw, plan.tree))
            elif step == "undo":
                plan.undo(draw(st.integers(0, len(plan.ops)), label="mark"))
            elif step == "delete":
                present = sorted(f for f in plan.fmap if deletable_feature(f))
                if present:
                    plan_delete_feature(plan, draw(st.sampled_from(present)), t)
            else:
                plan_add_rule(plan, draw(st.sets(st.sampled_from(RULE_FEATURES),
                                                 min_size=1, max_size=3)), t)
        except _PLAN_FAILURES:
            assert _plan_state(plan) == state
        _assert_plan_is_its_replay(plan, page)
        _assert_journal_lists_every_change(plan.tally, values, mark)
    plan.undo(0)
    assert plan.ops == [] and serialize(plan.tree) == before
    _assert_plan_is_its_replay(plan, page)
    assert serialize(page) == before


def test_a_planner_that_fails_midway_leaves_the_plan_as_it_was():
    tree = build_page(terms=["hello"])
    plan = MutationPlan.on(tree)
    plan.push(add_invisible_element(plan.tree, ElementSpec("div", (), "kept")))
    state = _plan_state(plan)
    pushed = []
    push = MutationPlan.push

    def recording(self, op):
        pushed.append(op)
        push(self, op)

    # the PageTerm div goes in before the URL feature turns out unaddable
    with mock.patch.object(MutationPlan, "push", recording), \
            pytest.raises(UrlFeatureUnaddable):
        plan_add_rule(plan, {"PageTerm=zzz", "UrlDomain=other.test"})
    assert [op.payload["text"] for op in pushed] == ["zzz"]
    assert _plan_state(plan) == state
    _assert_plan_is_its_replay(plan, tree)


# -- local term splits and the score of a working page --------------------------------

def _assert_tally_is_the_fold(plan, before=None, mark=0):
    """The plan's tally is the reference fold of its tree; with ``before``,
    the page feature map before the last edit, every page feature whose
    value the edit changed is in the journal past ``mark``, its length
    before the edit."""
    tally = plan.tally
    assert dict(tally.features) == dict(feature_counts(plan.tree))
    assert tally.counts == page_counts(plan.tree)
    assert plan.fmap == oracle_extract_all_features(plan.tree)
    if before is not None:
        _assert_journal_lists_every_change(tally, before, mark)


SPLIT_TEXT = st.lists(st.sampled_from(
    ["ab", "abab", "login", "x", " ", "  ", "\u200b", "\u200c", "\ufeff", "\n"]),
    min_size=1, max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(text=SPLIT_TEXT, tag=st.sampled_from(["p", "script", "style"]), data=st.data())
def test_a_term_split_trades_the_spanning_term_for_its_fragments(text, tag, data):
    """Zero-width splits at any offset (inside a term, at its ends, inside
    delimiter runs) of counted text holding repeated terms and zero-width
    characters, and of script or style text: after every push and undo the
    tally is the reference fold."""
    page = parse_html(f"<html><body><p>ab login</p><{tag}>{text}</{tag}>"
                      f"<p>{text}</p></body></html>", "http://seed.test/page")
    plan = MutationPlan.on(page)
    nodes = {path: node for path, node in _text_nodes(plan.tree)
             if node.value.strip("\n")}
    for _ in range(data.draw(st.integers(1, 6), label="splits")):
        path = data.draw(st.sampled_from(sorted(nodes)), label="node")
        offset = data.draw(st.integers(0, len(nodes[path].value)), label="offset")
        before, mark = plan.tally.page_fmap(), len(plan.tally.journal)
        plan.push(NodeOp("modify_text", path, {"term": "", "offset": offset}))
        _assert_tally_is_the_fold(plan, before, mark)
    while plan.ops:
        before, mark = plan.tally.page_fmap(), len(plan.tally.journal)
        plan.undo(len(plan.ops) - 1)
        _assert_tally_is_the_fold(plan, before, mark)
    assert serialize(plan.tree) == serialize(page)


@pytest.mark.parametrize("text, tag, offset, terms", [
    ("ab ab", "p", 0, {"ab": 2}),                              # term start
    ("ab ab", "p", 2, {"ab": 2}),                              # term end
    ("ab  ab", "p", 3, {"ab": 2}),                             # between spaces
    ("abab abab", "p", 2, {"ab": 2, "abab": 1}),               # repeated term
    ("lo\u200bgin login", "p", 10, {"lo": 1, "gin": 1, "log": 1, "in": 1}),
    ("lo\u200bgin login", "p", 1, {"l": 1, "o": 1, "gin": 1, "login": 1}),
    ("lo\u200bgin", "p", 3, {"lo": 1, "gin": 1}),             # beside a zero width
    ("login now", "script", 2, {}),                            # not counted
])
def test_term_split_cases(text, tag, offset, terms):
    plan = MutationPlan.on(parse_html(f"<html><body><{tag}>{text}</{tag}></body></html>",
                                      "http://seed.test/"))
    path = next(p for p, n in _text_nodes(plan.tree) if n.value == text)
    before = dict(plan.tally.features)
    plan.push(NodeOp("modify_text", path, {"term": "", "offset": offset}))
    assert dict(plan.tally.features) == {f"PageTerm={t}": n for t, n in terms.items()}
    _assert_tally_is_the_fold(plan)
    plan.undo(0)
    assert dict(plan.tally.features) == before


@pytest.mark.parametrize("spec, moved", [
    (ElementSpec("a", (("href", "/x"),)),
     {"PageExternalLinksFreq", "PageSecureLinksFreq"}),
    (ElementSpec("form", (("action", ""),)), {"PageActionOtherDomainFreq"}),
    (ElementSpec("img", (("src", "/x.png"),)), {"PageImgOtherDomainFreq"}),
    (ElementSpec("script"), {"PageNumScriptTags>1"}),
], ids=["link", "form", "img", "script"])
def test_an_element_that_moves_only_counts_is_journaled(spec, moved):
    """An internal link, action or image only grows a ratio's denominator,
    and a second script only raises a script flag: no counted feature
    flips, yet the journal lists the count features whose value moved,
    after the push and after its undo."""
    page = parse_html('<html><body><a href="https://ext.test/">e</a>'
                      '<form action="https://ext.test/p"></form>'
                      '<img src="https://ext.test/x.png"><script></script></body></html>',
                      "http://seed.test/")
    plan = MutationPlan.on(page)
    tally = plan.tally
    before, mark = tally.page_fmap(), len(tally.journal)
    plan.push(add_invisible_element(plan.tree, spec))
    after = tally.page_fmap()
    assert {name for name in {*before, *after}
            if before.get(name) != after.get(name)} == moved
    _assert_journal_lists_every_change(tally, before, mark)
    mark = len(tally.journal)
    plan.undo(0)
    assert tally.page_fmap() == before
    _assert_journal_lists_every_change(tally, after, mark)


def _element(tag, children):
    return DomNode.element(tag, children=children)


# Hand-built trees that nest script and style in each other and in body.
NESTED_TAGS = st.sampled_from(["div", "body", "script", "style", "p"])
NESTED_TREES = st.builds(_element, NESTED_TAGS, st.lists(st.recursive(
    st.sampled_from(["login", "bank now"]).map(DomNode.text),
    lambda children: st.builds(_element, NESTED_TAGS, st.lists(children, max_size=3)),
    max_leaves=10), max_size=3))


def _raw_flags(root):
    """``(path, node, raw)`` for every node, ``raw`` telling whether the node
    or one of its ancestors is a script or style element."""
    out = []

    def visit(node, path, raw):
        raw = raw or node.tag in ("script", "style")
        out.append((path, node, raw))
        for i, child in enumerate(node.children):
            visit(child, path + (i,), raw)

    visit(root, (), False)
    return out


@settings(max_examples=200, deadline=None)
@given(root=NESTED_TREES)
def test_resolve_tells_raw_text_like_an_ancestor_walk(root):
    """One walk down a path finds the node and whether it is in, or inside,
    a script or style element; a path that does not resolve, or ends at a
    node of the other type, raises ``PathError``.  Additions under a body
    nested in script or style, and script or style additions, leave the
    tally the reference fold."""
    tree = DomTree(root, "http://seed.test/")
    for path, node, raw in _raw_flags(root):
        found, found_raw = _resolve(tree, path, node.node_type)
        assert found is node and found_raw == raw, path
        with pytest.raises(PathError):
            _resolve(tree, path + (len(node.children),), ELEMENT)
        with pytest.raises(PathError):
            _resolve(tree, path, TEXT if node.node_type == ELEMENT else ELEMENT)
    plan = MutationPlan.on(tree)
    for spec in [ElementSpec("div", (), "login help"), ElementSpec("script", (), "verify"),
                 ElementSpec("style", (), "bank")]:
        plan.push(add_invisible_element(plan.tree, spec))
        assert dict(plan.tally.features) == dict(feature_counts(plan.tree))


SCORED_FEATURES = RULE_FEATURES + [
    "PageTerm=now", "PageTerm=verify", "PageTerm=account", "PageTerm=help",
    "PageTerm=lo", "PageTerm=gin", "PageTerm=ver", "PageTerm=ify",
    "PageTerm=filler00", "PageTerm=signin", "PageTerm=privacy",
    "PageLinkDomain=example.com", "PageActionURL=", "UrlTld=test",
    "UrlDomain=seed.test", "UrlPathToken=cart",
]


@st.composite
def scored_models(draw):
    """A plain or hashed classifier over features that pages here can hold."""
    hashed = draw(st.booleans())
    weights = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda w: w != 0.0) \
        | st.just(0.0)
    rules = []
    for i, (feats, weight) in enumerate(draw(st.lists(st.tuples(
            st.sets(st.sampled_from(SCORED_FEATURES), min_size=1, max_size=3),
            weights), max_size=14), label="rules")):
        if hashed:
            feats = {hash_feature(f) for f in feats}
        rules.append(rule(f"r{i:02d}", feats, weight))
    return make_classifier(rules, bias=draw(st.floats(-2.0, 2.0)), hashed=hashed,
                           freq_detect_threshold=draw(st.sampled_from([0.05, 0.3, 0.6])))


@settings(max_examples=150, deadline=None)
@given(clf=scored_models(), second=scored_models(),
       suite=st.sampled_from(range(len(SUITE_PAGES))),
       pieces=SOUP, random_page=st.booleans(), data=st.data(),
       url=st.sampled_from(["", "http://seed.test/page", "https://shop.co.uk/cart"]))
def test_the_tally_score_is_the_full_score_after_every_push_and_undo(
        clf, second, suite, pieces, random_page, data, url):
    """``score_tally`` on a working page, read after every push, planner
    call and undo (and, for the first oracle, after reading another tally
    in between), equals ``score(model, plan.fmap)`` bit for bit, one query
    per read, for each of two oracles over two models that follow the same
    tally; plain and hashed models."""
    page = parse_html("<html><body>" + "".join(pieces), url) if random_page \
        else SUITE_PAGES[suite]
    plan = MutationPlan.on(page)
    oracles = [ScoreOracle(clf), ScoreOracle(second)]
    draw = data.draw
    t = clf.freq_detect_threshold

    def read(tally, oracles=oracles):
        for oracle in oracles:
            queries = oracle.query_count
            assert oracle.score_tally(tally) == score(oracle.classifier, tally.fmap())
            assert oracle.query_count == queries + 1

    read(plan.tally)
    for _ in range(draw(st.integers(1, 12), label="steps")):
        step = draw(st.sampled_from(["push", "push", "undo", "delete", "add", "other"]))
        try:
            if step == "push":
                plan.push(_black_op(draw, plan.tree))
            elif step == "undo":
                plan.undo(draw(st.integers(0, len(plan.ops)), label="mark"))
            elif step == "delete":
                present = sorted(f for f in plan.fmap if deletable_feature(f))
                if present:
                    plan_delete_feature(plan, draw(st.sampled_from(present)), t)
            elif step == "add":
                plan_add_rule(plan, draw(st.sets(st.sampled_from(RULE_FEATURES),
                                                 min_size=1, max_size=3)), t)
            else:
                other = PageTally(plan.tree.source_url)
                extract_page_features(plan.tree, other)
                read(other, oracles[:1])
        except _PLAN_FAILURES:
            pass
        read(plan.tally)


def test_two_oracles_follow_one_working_page():
    """An edit is seen by every oracle that reads the tally, not only by
    the first one to read it after the edit."""
    m1 = make_classifier([rule("a", {"PageTerm=signin"}, 3.0)], bias=-1.0)
    m2 = make_classifier([rule("b", {"PageTerm=signin", "PageHasPswdInputs"}, 4.0)],
                         bias=-1.0)
    page = parse_html('<p>please signin to verify your account</p>'
                      '<form action="http://x.test/p"><input type="password"></form>',
                      "http://seed.test/login")
    plan = MutationPlan.on(page)
    o1, o2 = ScoreOracle(m1), ScoreOracle(m2)
    assert o1.score_tally(plan.tally) == score(m1, plan.fmap)
    assert o2.score_tally(plan.tally) == 0.9525741268224334 == score(m2, plan.fmap)
    plan_delete_feature(plan, "PageTerm=signin")
    assert o1.score_tally(plan.tally) == 0.2689414213699951 == score(m1, plan.fmap)
    assert o2.score_tally(plan.tally) == 0.2689414213699951 == score(m2, plan.fmap)


def test_a_push_that_touches_no_indexed_feature_evaluates_no_rule(monkeypatch):
    """Once a tally's state is built, a read re-evaluates only the rules
    filed under the features that flipped or the count features whose value
    moved."""
    from phishevade import classifier as C
    evaluated = []
    gated_product = C.gated_product

    def counting(rule_, fmap, t):
        evaluated.append(rule_.id)
        return gated_product(rule_, fmap, t)

    monkeypatch.setattr(C, "gated_product", counting)
    clf = make_classifier([
        rule("p1", {"PageTerm=signin"}, 0.9),
        rule("p2", {"PageExternalLinksFreq", "PageHasForms"}, 0.4),
        rule("n1", {"PageTerm=privacy"}, -0.8),
        rule("n2", {"PageTerm=privacy", "PageHasForms"}, -0.2),
    ])
    plan = MutationPlan.on(build_page(terms=["signin", "lantern"], internal_links=2))
    oracle = ScoreOracle(clf)
    oracle.score_tally(plan.tally)
    evaluated.clear()

    lantern = next(p for p, n in _text_nodes(plan.tree) if n.value == "lantern")
    plan.push(modify_text(plan.tree, lantern, "lantern"))                  # lant|ern
    plan.push(add_invisible_element(plan.tree, ElementSpec("div", (), "meadow")))
    # one more link, but no external one: no count feature changes value
    plan.push(add_invisible_element(plan.tree, ElementSpec("a", (("href", "/x"),))))
    before = oracle.score_tally(plan.tally)
    assert evaluated == []

    plan.push(add_invisible_element(plan.tree, ElementSpec("div", (), "privacy")))
    after = oracle.score_tally(plan.tally)
    assert sorted(evaluated) == ["n1", "n2"]
    assert after < before and after == score(clf, plan.fmap)
    evaluated.clear()
    plan.push(add_invisible_element(
        plan.tree, ElementSpec("a", (("href", "http://elsewhere.example.com/"),))))
    oracle.score_tally(plan.tally)
    assert evaluated == ["p2"]


def test_a_hashed_state_hashes_each_name_once(monkeypatch):
    from phishevade import classifier as C
    hashed = []
    monkeypatch.setattr(C, "hash_feature",
                        lambda name: hashed.append(name) or hash_feature(name))
    clf = make_classifier([rule("p1", {hash_feature("PageTerm=signin")}, 0.9),
                           rule("n1", {hash_feature("PageTerm=privacy")}, -0.8)],
                          hashed=True)

    def reference():
        """``score(clf, plan.fmap)``, with the names it hashes not recorded."""
        mark = len(hashed)
        value = score(clf, plan.fmap)
        del hashed[mark:]
        return value

    plan = MutationPlan.on(build_page(terms=["signin"]))
    oracle = ScoreOracle(clf)
    first = oracle.score_tally(plan.tally)
    assert sorted(hashed) == sorted(plan.fmap)
    hashed.clear()
    for _ in range(3):
        plan.push(add_invisible_element(plan.tree, ElementSpec("div", (), "privacy")))
        assert oracle.score_tally(plan.tally) == reference() < first
        plan.undo(0)
        assert oracle.score_tally(plan.tally) == first == reference()
    assert hashed == ["PageTerm=privacy"]


# -- preservation check ----------------------------------------------------------------

def test_identity_plan_passes():
    tree = build_page(terms=["hello"], input_types=["password"])
    report = preservation_check(tree, apply(tree, MutationPlan([])))
    assert report.passed


def test_raw_attribute_deletion_fails_functional_check():
    tree = build_page(actions=["http://collector.evil.example/post"])
    broken = tree.copy()
    form = next(el for _, el in walk_elements(broken) if el.tag == "form")
    form.remove_attr("action")
    report = preservation_check(tree, broken)
    assert not report.functional_equal
    assert not report.passed


def test_visible_change_fails_projection_check():
    tree = build_page(terms=["hello"])
    changed = tree.copy()
    node = next(n for _, n in walk_text_nodes(changed) if n.value == "hello")
    node.value = "goodbye"
    report = preservation_check(tree, changed)
    assert not report.projection_equal


def test_every_planner_output_preserves(paypal_page):
    fmap = extract_page_features(paypal_page)
    deletable = [f for f in sorted(fmap)
                 if not f.startswith(("Url",))]
    checked = 0
    for feature in deletable:
        try:
            plan = planned(plan_delete_feature, paypal_page, feature)
        except (UnsupportedMutation, FeatureAbsent):
            continue
        out = apply(paypal_page, plan)
        report = preservation_check(paypal_page, out)
        assert report.passed, (feature, report.problems)
        checked += 1
    assert checked >= 5
    for feats in [{"PageTerm=verify"}, {"PageHasRadioInputs"},
                  {"PageNumScriptTags>6"}, {"PageLinkDomain=offsite-pages.net"}]:
        out = apply(paypal_page, planned(plan_add_rule, paypal_page, feats))
        assert preservation_check(paypal_page, out).passed


# -- addition pool ----------------------------------------------------------------------

def test_harvest_pool_and_round_trip(tmp_path, legit_pages):
    pool = harvest_addition_pool(legit_pages)
    assert pool
    tags = {spec.tag for spec in pool}
    assert "a" in tags and "form" in tags
    path = tmp_path / "pool.jsonl"
    save_pool(pool, path)
    assert load_pool(path) == pool


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(["div", "p", "a", "img", "input", "script", "style",
                            "SCRIPT", "Div", "BODY", "", "![", "a b"]),
       attrs=st.dictionaries(
           st.sampled_from(["href", "HREF", "type", "style", "a b", "", "x=y"]),
           st.sampled_from(["/x", "http://a.example.com/", "text", 'a"b']), max_size=2),
       text=st.none() | st.sampled_from(["login", "privacy help", " ", "x<y&z",
                                         "a</script>b", "a</style>b", "</div>bank"]),
       suite=st.sampled_from(range(len(SUITE_PAGES))))
def test_a_loaded_pool_spec_is_scored_as_it_is_written(
        tmp_path_factory, tag, attrs, text, suite):
    """An element spec that ``load_pool`` accepts, added to a page, gives the
    feature map that the HTML written for the page gives when read back."""
    path = tmp_path_factory.getbasetemp() / "pool-spec.jsonl"
    path.write_text(json.dumps({"tag": tag, "attrs": attrs, "text": text}) + "\n")
    try:
        spec, = load_pool(path)
    except SchemaError:
        return
    page = SUITE_PAGES[suite]
    plan = MutationPlan.on(page)
    try:
        plan.push(add_invisible_element(plan.tree, spec))
    except UnsupportedMutation:
        return
    written = parse_html(serialize(plan.tree), page.source_url)
    assert oracle_extract_all_features(written) == plan.fmap


def test_pool_specs_add_invisibly(legit_pages, paypal_page):
    pool = harvest_addition_pool(legit_pages)
    for spec in pool[:10]:
        out = apply_op(paypal_page, add_invisible_element(paypal_page, spec))
        report = preservation_check(paypal_page, out)
        assert report.passed, report.problems
