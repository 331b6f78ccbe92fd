import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishevade.classifier import raw_score, rule_hit
from phishevade.dom import (
    ELEMENT,
    TEXT,
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
    term_spans,
    terms_of,
)
from phishevade.mutation import (
    MODIFIABLE_ATTRS,
    ElementSpec,
    FeatureAbsent,
    MutationPlan,
    PathError,
    TermNotFound,
    UnsupportedMutation,
    UrlFeatureUnaddable,
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

from conftest import build_page, build_page_html, make_classifier, rule
from features_oracle import extract_all_features as oracle_extract_all_features
from features_oracle import page_counts
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
    plan = plan_delete_feature(tree, "PageHasPswdInputs")
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
        plan_delete_feature(tree, "PageHasForms")


def test_delete_absent_feature():
    tree = build_page(terms=["x"])
    with pytest.raises(FeatureAbsent):
        plan_delete_feature(tree, "PageHasPswdInputs")


def test_delete_password_inputs_uses_onfocus_rewrite():
    tree = build_page(input_types=["password"])
    plan = plan_delete_feature(tree, "PageHasPswdInputs")
    out = apply(tree, plan)
    assert "PageHasPswdInputs" not in extract_page_features(out)
    assert "onfocus=\"this.type='password';\"" in serialize(out)


def test_delete_external_links_freq_dilution_arithmetic():
    # 2 external / 4 total at threshold 0.05: 37 internal links give 2/41 < 0.05
    tree = build_page(insecure_external_links=2, internal_links=2)
    assert extract_page_features(tree)["PageExternalLinksFreq"] == 0.5
    plan = plan_delete_feature(tree, "PageExternalLinksFreq",
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
    plan = plan_delete_feature(tree, "PageTerm=pay")
    out = apply(tree, plan)
    assert "PageTerm=pay" not in extract_page_features(out)
    assert len(plan.ops) == 3


def test_delete_action_url_rewrites_form():
    tree = build_page(actions=["http://collector.evil.example/post"])
    plan = plan_delete_feature(
        tree, "PageActionURL=http://collector.evil.example/post")
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
        plan_delete_feature(tree, "UrlPathToken=page")


# -- plan_add_rule -------------------------------------------------------------------

def test_add_single_term_rule():
    tree = build_page(terms=["hello"])
    r = rule("r", {"PageTerm=secure"}, -1.0)
    plan = plan_add_rule(tree, r.features)
    assert len(plan.ops) == 1
    out = apply(tree, plan)
    assert rule_hit(r, extract_page_features(out))


def test_add_url_feature_unaddable():
    tree = build_page(terms=["hello"])
    with pytest.raises(UrlFeatureUnaddable):
        plan_add_rule(tree, {"UrlTld=org"})


def test_add_url_feature_already_satisfied_is_fine():
    tree = build_page(terms=["hello"])          # url http://seed.test/page
    plan = plan_add_rule(tree, {"UrlPathToken=page", "PageTerm=bank"})
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
    plan = plan_add_rule(tree, clf.rule("target").features)
    out = apply(tree, plan)
    after = raw_score(clf, extract_all_features(out))
    assert after - before == pytest.approx(-2.5, abs=1e-12)


def test_add_frequency_feature_reaches_detection_threshold():
    tree = build_page(internal_links=5)
    plan = plan_add_rule(tree, {"PageImgOtherDomainFreq"},
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
        plan_add_rule(tree, {feature}, freq_detect_threshold=0.9)


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("planner", [
    lambda tree, t: plan_delete_feature(tree, "PageExternalLinksFreq", t),
    lambda tree, t: plan_add_rule(tree, {"PageExternalLinksFreq"}, t),
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
        plan_add_rule(tree, LINK_RATIOS, freq_detect_threshold=0.9)
    assert time.perf_counter() - started < 1.0


def test_add_both_link_ratios_at_or_below_one_half_still_plans():
    tree = parse_html(TWO_INTERNAL_LINKS, "http://seed.test/page")
    counts = page_counts(plan_add_rule(tree, LINK_RATIOS, 0.3).tree)
    assert (counts.links, counts.external_links, counts.secure_links) == (6, 2, 2)


# -- apply ---------------------------------------------------------------------------

def test_apply_leaves_original_untouched():
    tree = build_page(terms=["hello"])
    before = serialize(tree)
    plan = plan_add_rule(tree, {"PageTerm=new"})
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
    for plan in [plan_delete_feature(tree, "PageTerm=hello"),
                 plan_add_rule(tree, {"PageTerm=x"})]:
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
            plans.append(plan_delete_feature(tree, feat, t, avoid))
        except _PLAN_FAILURES:
            pass
    for feats in data.draw(st.lists(st.sets(st.sampled_from(RULE_FEATURES),
                                            min_size=1, max_size=3), max_size=4)):
        try:
            plans.append(plan_add_rule(tree, feats, t))
        except _PLAN_FAILURES:
            pass
    for plan in plans:
        replay = apply(tree, plan)
        assert serialize(plan.tree) == serialize(replay)
        assert isomorphic(plan.tree.root, replay.root)
    assert serialize(tree) == before


def test_each_planner_copies_the_page_once(copied_trees):
    tree = build_page(terms=["pay", "pay"], input_types=["password"],
                      insecure_external_links=2, internal_links=2)
    for make in [lambda: plan_delete_feature(tree, "PageTerm=pay"),
                 lambda: plan_delete_feature(tree, "PageHasPswdInputs"),
                 lambda: plan_delete_feature(tree, "PageExternalLinksFreq"),
                 lambda: plan_add_rule(tree, {"PageTerm=new", "PageHasRadioInputs"})]:
        copied_trees.clear()
        plan = make()
        assert plan.ops and copied_trees == [tree]


def _reextract_term_ops(tree, term, avoid_terms):
    """The old PageTerm deletion: split the first text node still holding
    the term, then extract the whole page again, until the term is gone."""
    work, ops = tree.copy(), []
    while f"PageTerm={term}" in extract_page_features(work):
        for path, node in walk_text_nodes(work):
            if any(t == term for t, _, _ in term_spans(node.value)):
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
            plan_delete_feature(tree, "PageTerm=pay", avoid_terms=avoid)
        return
    plan = plan_delete_feature(tree, "PageTerm=pay", avoid_terms=avoid)
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
    """Chains of planner and black-box plans, each built on the tree and
    tally the previous one left, keep ``plan.fmap`` equal to the reference
    extraction of ``plan.tree``; pages with and without a body."""
    tree = parse_html(("<html><body>" if body else "") + "".join(pieces), url)
    tally = PageTally(url)
    assert extract_all_features(tree, tally) == oracle_extract_all_features(tree)
    draw = data.draw
    avoid = draw(st.sets(st.sampled_from(["lo", "gin", "ver", "ify"])))
    with checked_pushes():
        for _ in range(draw(st.integers(1, 6), label="plans")):
            step = draw(st.sampled_from(["delete", "add", "black"]))
            try:
                if step == "delete":
                    present = sorted(f for f in tally.fmap() if deletable_feature(f))
                    if not present:
                        continue
                    plan = plan_delete_feature(tree, draw(st.sampled_from(present)),
                                               t, avoid, tally)
                elif step == "add":
                    feats = draw(st.sets(st.sampled_from(RULE_FEATURES),
                                         min_size=1, max_size=3))
                    plan = plan_add_rule(tree, feats, t, tally)
                else:
                    plan = MutationPlan.on(tree, tally)
                    for _ in range(draw(st.integers(1, 3), label="ops")):
                        plan.push(_black_op(draw, plan.tree))
            except _PLAN_FAILURES:
                continue
            tree, tally = plan.tree, plan.tally
    assert tally.fmap() == oracle_extract_all_features(tree)
    assert extract_all_features(tree) == oracle_extract_all_features(tree)


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
            plan = plan_delete_feature(paypal_page, feature)
        except (UnsupportedMutation, FeatureAbsent):
            continue
        out = apply(paypal_page, plan)
        report = preservation_check(paypal_page, out)
        assert report.passed, (feature, report.problems)
        checked += 1
    assert checked >= 5
    for feats in [{"PageTerm=verify"}, {"PageHasRadioInputs"},
                  {"PageNumScriptTags>6"}, {"PageLinkDomain=offsite-pages.net"}]:
        out = apply(paypal_page, plan_add_rule(paypal_page, feats))
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


def test_pool_specs_add_invisibly(legit_pages, paypal_page):
    pool = harvest_addition_pool(legit_pages)
    for spec in pool[:10]:
        out = apply_op(paypal_page, add_invisible_element(paypal_page, spec))
        report = preservation_check(paypal_page, out)
        assert report.passed, report.problems
