import gc
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pelican_oracle as oracle
from phishevade import pelican
from phishevade.attacks import black_box, black_knowledge, grey_box, grey_knowledge, white_box, white_knowledge
from phishevade.classifier import SchemaError, ScoreOracle
from phishevade.dom import DomNode, parse_html
from phishevade.pelican import (
    BENIGN,
    BLACKLISTED,
    EVASION_DETECTED,
    PHISHING_BY_CLASSIFIER,
    WHITELISTED,
    ElementSignature,
    PhishStore,
    StoreEntry,
    TreeSignature,
    load_store,
    pipeline,
    save_store,
    signature_of,
    tree_similarity_baseline,
    tree_similarity_pelican,
)

from conftest import build_page, make_classifier, rule, suite_model, suite_pool, suite_seed_pages
from test_features import SOUP


def sig(html, url="http://page.test/"):
    return signature_of(parse_html(html, url))


def el(tag, attrs=(), texts=()):
    node = DomNode.element(tag, dict(attrs))
    for text in texts:
        node.children.append(DomNode.text(text))
    return ElementSignature.of(node)


def one(element):
    """A tree of one element."""
    return TreeSignature(((element,),))


# -- element similarity ----------------------------------------------------------
# The per-pair definitions live in the test oracle; each case also goes
# through the public measures as a tree of one element, whose similarity
# is the element similarity.

def test_element_baseline_identity():
    e = el("div", [("class", "x")], ["hello"])
    assert oracle.element_similarity_baseline(e, e) == 1.0


def test_element_baseline_identity_as_one_element_tree():
    e = el("div", [("class", "x")], ["hello"])
    assert tree_similarity_baseline(one(e), one(e)) == 1.0


def test_element_baseline_disjoint_attrs_no_text():
    a = el("div", [("class", "x")])
    b = el("div", [("id", "y")])
    assert oracle.element_similarity_baseline(a, b) == 0.5   # (0 + 1) / 2


def test_element_baseline_disjoint_attrs_no_text_as_one_element_tree():
    a = el("div", [("class", "x")])
    b = el("div", [("id", "y")])
    assert tree_similarity_baseline(one(a), one(b)) == 0.5


def test_element_baseline_different_tags():
    assert oracle.element_similarity_baseline(el("div"), el("span")) == 0.0


def test_element_baseline_different_tags_as_one_element_tree():
    assert tree_similarity_baseline(one(el("div")), one(el("span"))) == 0.0


def test_element_pelican_superset_is_one():
    stored = el("div", [("class", "x")], ["t"])
    unknown = el("div", [("class", "x"), ("id", "y")], ["t", "u"])
    assert oracle.element_similarity_pelican(stored, unknown) == 1.0


def test_element_pelican_superset_is_one_as_one_element_tree():
    stored = el("div", [("class", "x")], ["t"])
    unknown = el("div", [("class", "x"), ("id", "y")], ["t", "u"])
    assert tree_similarity_pelican(one(stored), one(unknown)) == 1.0


def test_element_pelican_half_attrs():
    stored = el("div", [("a", "1"), ("b", "2")], ["t"])
    unknown = el("div", [("a", "1")], ["t"])
    assert oracle.element_similarity_pelican(stored, unknown) == pytest.approx(0.75)


def test_element_pelican_half_attrs_as_one_element_tree():
    stored = el("div", [("a", "1"), ("b", "2")], ["t"])
    unknown = el("div", [("a", "1")], ["t"])
    assert tree_similarity_pelican(one(stored), one(unknown)) == 0.75


def test_element_pelican_different_tags():
    assert oracle.element_similarity_pelican(el("a"), el("b")) == 0.0


def test_element_pelican_different_tags_as_one_element_tree():
    assert tree_similarity_pelican(one(el("a")), one(el("b"))) == 0.0


# -- the count kernel against the per-pair oracle --------------------------------
# Few tags and a small hash alphabet, so that sets overlap and ties occur.

HASHES = st.frozensets(st.sampled_from(["h0", "h1", "h2", "h3", "h4"]), max_size=4)
ELEMENTS = st.builds(ElementSignature, st.sampled_from(["a", "div", "p"]),
                     HASHES, HASHES)
SIGNATURES = st.lists(st.lists(ELEMENTS, max_size=6).map(tuple),
                      max_size=7).map(lambda layers: TreeSignature(tuple(layers)))
PAGES = st.builds(lambda pieces: signature_of(
    parse_html("<html><body>" + "".join(pieces), "http://soup.test/")), SOUP)
LAYER_ACCEPT = st.sampled_from([0.05, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(SIGNATURES, PAGES), b=st.one_of(SIGNATURES, PAGES),
       layer_accept=LAYER_ACCEPT, lookahead=st.integers(1, 4))
def test_both_measures_equal_the_per_pair_oracle(a, b, layer_accept, lookahead):
    assert tree_similarity_pelican(a, b, layer_accept, lookahead) == \
        oracle.tree_similarity_pelican(a, b, layer_accept, lookahead)
    assert tree_similarity_pelican(b, a, layer_accept, lookahead) == \
        oracle.tree_similarity_pelican(b, a, layer_accept, lookahead)
    assert tree_similarity_pelican(a, a, layer_accept, lookahead) == \
        oracle.tree_similarity_pelican(a, a, layer_accept, lookahead)
    assert tree_similarity_baseline(a, b) == oracle.tree_similarity_baseline(a, b)
    assert tree_similarity_baseline(b, a) == oracle.tree_similarity_baseline(b, a)


# Stores pick from a small pool of trees, so that entries repeat and
# different entries tie in value.
STORES = st.lists(st.one_of(SIGNATURES, PAGES), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=150, deadline=None)
@given(stored=STORES, unknown=st.one_of(SIGNATURES, PAGES),
       layer_accept=LAYER_ACCEPT, lookahead=st.integers(1, 4),
       floor=st.one_of(st.just(0.0), st.just(None), st.floats(0.0, 1.0)))
def test_store_scan_equals_the_per_pair_oracle(stored, unknown, layer_accept,
                                                lookahead, floor):
    """A ``None`` floor stands for the oracle's own value."""
    store = PhishStore(k=10, entries=[StoreEntry(s, 0.0) for s in stored])
    expected = oracle.max_similarity(stored, unknown, layer_accept, lookahead)
    if floor is None:
        floor = expected[0]
    if not (expected[0] > 0.0 and expected[0] >= floor):
        expected = (0.0, None)
    assert store.max_similarity(unknown, layer_accept, lookahead, floor) == expected
    if floor == 0.0:
        assert store.max_similarity(unknown, layer_accept, lookahead) == expected


def test_store_scan_ties_between_entries_with_different_bounds():
    """Entry 1 ties entry 0 in value and has the larger bound, so it is
    compared too; it does not beat the equal value of entry 0, which comes
    first."""
    unknown = TreeSignature(((el("p", [("a", "1")]), el("p", [("a", "9")])),))
    tight = TreeSignature(((el("p", [("a", "1"), ("b", "5")]),),))
    loose = TreeSignature(((el("p", [("a", "1")]), el("p", [("a", "1")])),))
    assert [pelican._bound(s, unknown) for s in (tight, loose)] == [0.75, 1.0]
    assert tree_similarity_pelican(tight, unknown) == 0.75
    assert tree_similarity_pelican(loose, unknown) == 0.75
    store = PhishStore(entries=[StoreEntry(tight, 0.0), StoreEntry(loose, 0.0)])
    assert store.max_similarity(unknown) == (0.75, 0)


# -- the store-scan bound ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(stored=st.lists(st.one_of(SIGNATURES, PAGES), min_size=1, max_size=4),
       unknown=st.one_of(SIGNATURES, PAGES))
def test_bound_is_at_least_the_similarity(stored, unknown):
    """For every layer_accept and lookahead, including empty layers, empty
    sets and trees without layers."""
    for sig in stored:
        bound = pelican._bound(sig, unknown)
        for layer_accept in (0.0, 0.05, 0.25, 0.5, 0.75, 1.0, 1.5):
            for lookahead in range(5):
                value = tree_similarity_pelican(sig, unknown, layer_accept, lookahead)
                assert bound + pelican.BOUND_SLACK >= value


@settings(max_examples=300, deadline=None)
@given(stored=st.one_of(SIGNATURES, PAGES), unknown=st.one_of(SIGNATURES, PAGES))
def test_bound_equals_the_set_reference(stored, unknown):
    assert abs(pelican._bound(stored, unknown) - oracle.bound(stored, unknown)) <= 1e-12


def test_bound_counts_every_element_whatever_its_tag():
    """The three stored ps and the span holding a=1 are each worth 1,
    although a matching pairs only one p and no span; the span holding b=2
    is worth 1/2, from its empty text set."""
    p = el("p", [("a", "1")])
    unknown = one(p)
    wide = TreeSignature(((p, p, p, el("span", [("a", "1")])),))
    narrow = TreeSignature(((p, el("span", [("b", "2")])),))
    assert [pelican._bound(s, unknown) for s in (wide, narrow)] == [1.0, 0.75]
    assert tree_similarity_pelican(wide, unknown) == 0.25
    assert tree_similarity_pelican(narrow, unknown) == 0.5
    store = PhishStore(entries=[StoreEntry(wide, 0.0), StoreEntry(narrow, 0.0)])
    assert store.max_similarity(unknown) == \
        oracle.max_similarity([wide, narrow], unknown) == (0.5, 1)


def test_bound_takes_the_unions_of_the_whole_unknown_tree():
    """The stored element's attributes sit in two different unknown layers,
    so against either layer alone it is worth 3/4, but against the tree's
    p hashes it is worth 1."""
    stored = one(el("p", [("a", "1"), ("b", "2")]))
    unknown = TreeSignature(((el("p", [("a", "1")]),), (el("p", [("b", "2")]),)))
    assert pelican._bound(stored, unknown) == 1.0
    assert tree_similarity_pelican(stored, unknown) == 0.75
    store = PhishStore(entries=[StoreEntry(stored, 0.0)])
    assert store.max_similarity(unknown) == (0.75, 0)
    assert store.max_similarity(unknown, floor=0.75) == (0.75, 0)
    assert store.max_similarity(unknown, floor=0.8) == (0.0, None)


def test_bound_of_trees_without_layers():
    """Against a tree without layers only empty sets count: the html and
    body layers are worth 1, the p layer 1/2 for its empty attribute set."""
    empty, page = TreeSignature(()), sig("<html><body><p>x</p></body></html>")
    assert [pelican._bound(s, empty) for s in (empty, page)] == [1.0, 2.5 / 3]
    assert tree_similarity_pelican(page, empty) == 0.0
    assert tree_similarity_pelican(empty, page) == 1.0


def _site(token: str, sections: int) -> TreeSignature:
    """A generated site whose every element carries its own token."""
    body = "".join(f'<section class="s-{token}"><h2 class="h-{token}">{token} {i}</h2>'
                   f'<p class="p-{token}">{token} text {i}</p></section>'
                   for i in range(sections))
    return sig(f'<html lang="{token}"><body class="b-{token}">'
               f'<div id="{token}">{body}</div></body></html>',
               f"http://{token}.test/")


@pytest.fixture
def similarity_calls(monkeypatch) -> list:
    """One item per call of the module-level tree_similarity_pelican."""
    calls = []
    full = pelican.tree_similarity_pelican

    def counting(*args):
        calls.append(args)
        return full(*args)

    monkeypatch.setattr(pelican, "tree_similarity_pelican", counting)
    return calls


def test_scan_compares_fewer_entries_than_the_store_holds(similarity_calls):
    sites = [_site(f"site{i}", 1 + i % 5) for i in range(12)]
    store = PhishStore(k=20, entries=[StoreEntry(s, 0.0) for s in sites])
    for i in (0, 7):
        similarity_calls.clear()
        assert store.max_similarity(sites[i]) == (1.0, i)
        assert 0 < len(similarity_calls) < len(sites)


def test_kernel_matches_oracle_on_a_page_and_its_attacked_twin(paypal_page):
    clf = suite_model()
    seed = suite_seed_pages(per_bucket=1)[0][1]
    crafted = white_box(white_knowledge(clf, ScoreOracle(clf)), seed).final_page
    for a, b in [(seed, crafted), (crafted, seed), (paypal_page, crafted)]:
        sig_a, sig_b = signature_of(a), signature_of(b)
        assert tree_similarity_pelican(sig_a, sig_b) == \
            oracle.tree_similarity_pelican(sig_a, sig_b)
        assert tree_similarity_baseline(sig_a, sig_b) == \
            oracle.tree_similarity_baseline(sig_a, sig_b)


# -- the per-signature caches are invisible ---------------------------------------

def _store_bytes(store, path) -> bytes:
    save_store(store, path)
    return path.read_bytes()


def test_comparing_leaves_equality_hash_and_store_bytes_unchanged(tmp_path, paypal_page,
                                                                  bank_page):
    a, b = signature_of(paypal_page), signature_of(bank_page)
    twin_a, twin_b = signature_of(paypal_page), signature_of(bank_page)
    store = PhishStore(entries=[StoreEntry(a, 1.0), StoreEntry(b, 2.0)])
    hashes = (hash(a), hash(b))
    before = _store_bytes(store, tmp_path / "before.json")
    tree_similarity_pelican(a, b)
    tree_similarity_baseline(b, a)
    store.max_similarity(twin_a)
    assert (hash(a), hash(b)) == hashes == (hash(twin_a), hash(twin_b))
    assert a == twin_a and b == twin_b and a != b
    assert repr(a) == repr(twin_a)
    assert _store_bytes(store, tmp_path / "after.json") == before


def test_reloaded_store_gives_the_same_similarities(tmp_path, paypal_page, bank_page):
    pages = [paypal_page, bank_page] + [build_page(terms=[f"w{i}"], secure_links=i)
                                        for i in range(3)]
    store = PhishStore(k=10)
    for i, page in enumerate(pages):
        store.insert(page, now=float(i))
    probes = [signature_of(page) for page in pages]
    scanned = [store.max_similarity(p) for p in probes]
    path = tmp_path / "store.json"
    save_store(store, path)
    again = load_store(path, k=10)
    assert [again.max_similarity(p) for p in probes] == scanned
    for stored, reloaded in zip(store.entries, again.entries):
        for p in probes:
            assert tree_similarity_pelican(reloaded.signature, p) == \
                tree_similarity_pelican(stored.signature, p)
            assert tree_similarity_baseline(reloaded.signature, p) == \
                tree_similarity_baseline(stored.signature, p)


@pytest.fixture
def built_layers(monkeypatch) -> list:
    """The elements of each ``_Layer`` built, in build order."""
    calls = []
    layer = pelican._Layer

    def counting(elements):
        calls.append(elements)
        return layer(elements)

    monkeypatch.setattr(pelican, "_Layer", counting)
    return calls


def test_scan_builds_the_unknown_layers_once(built_layers, paypal_page):
    store = PhishStore(k=10)
    for i in range(5):
        store.insert(build_page(terms=[f"w{i}"], secure_links=i), now=float(i))
    for _ in range(2):
        unknown = signature_of(paypal_page)
        store.max_similarity(unknown)
        assert [elements for elements in built_layers
                if any(elements is layer for layer in unknown.layers)] \
            == list(unknown.layers)


def test_pruned_scan_builds_no_layers(built_layers):
    """Every entry's bound is below the floor, so no entry is compared and
    no layers are built, for the unknown page or for an entry."""
    store = PhishStore(k=20, entries=[StoreEntry(_site(f"site{i}", 1 + i % 5), 0.0)
                                      for i in range(6)])
    unknown = _site("probe", 3)
    floor = 0.9
    assert all(pelican._bound(e.signature, unknown) + pelican.BOUND_SLACK < floor
               for e in store.entries)
    assert store.max_similarity(unknown, floor=floor) == (0.0, None)
    assert built_layers == []
    assert "_layers" not in vars(unknown)


def test_pruned_scan_of_a_loaded_store_builds_no_stored_hash_sets(tmp_path):
    """A stored entry's bound reads its weight tables and their key sets,
    so it never builds ``_hashes`` over its own tree."""
    path = tmp_path / "store.json"
    save_store(PhishStore(k=20, entries=[StoreEntry(_site(f"site{i}", 1 + i % 5), 0.0)
                                         for i in range(6)]), path)
    store = load_store(path, k=20)
    assert store.max_similarity(_site("probe", 3), floor=0.9) == (0.0, None)
    assert all("_weights" in vars(e.signature) and "_hashes" not in vars(e.signature)
               for e in store.entries)


# -- tree similarity ---------------------------------------------------------------

def test_tree_baseline_reflexive(paypal_page):
    assert tree_similarity_baseline(paypal_page, paypal_page) == pytest.approx(1.0)
    assert tree_similarity_pelican(paypal_page, paypal_page) == pytest.approx(1.0)


def test_tree_baseline_disjoint_tags():
    a = sig("<html><i>x</i></html>")
    # roots share the synthesized html tag; compare subtree layers only
    b = sig("<html><u>x</u></html>")
    value = tree_similarity_baseline(a, b)
    assert value == pytest.approx(0.5)  # root layer matches, child layer 0


def test_tree_baseline_symmetry():
    rng = random.Random(4)
    pages = [build_page(terms=[f"w{i}"], secure_links=i % 3,
                        internal_links=(i * 7) % 4, bare_form=bool(i % 2))
             for i in range(6)]
    for i in range(len(pages)):
        for j in range(i + 1, len(pages)):
            assert tree_similarity_baseline(pages[i], pages[j]) == pytest.approx(
                tree_similarity_baseline(pages[j], pages[i]), abs=1e-12)


def test_tree_range_property():
    pages = [build_page(terms=["a"]), build_page(secure_links=3),
             build_page(bare_form=True, scripts=2)]
    for a in pages:
        for b in pages:
            for value in (tree_similarity_baseline(a, b),
                          tree_similarity_pelican(a, b)):
                assert 0.0 <= value <= 1.0


DILUTE_SEED = ("<html>" + "".join(
    f'<a href="https://dilute.test/s{i}">x</a>' for i in range(10)) + "</html>")


def _dilution_pair():
    """Seed hit by a secure-links-frequency rule; the grey attack deletes the
    feature by adding ~191 invisible insecure internal links in one layer."""
    clf = make_classifier([rule("p", {"PageSecureLinksFreq"}, 2.0)], bias=-0.1)
    seed = parse_html(DILUTE_SEED, "http://dilute.test/page")
    oracle = ScoreOracle(clf)
    result = grey_box(grey_knowledge([(r.id, r.features) for r in clf.rules],
                                     oracle), seed)
    assert result.success
    return seed, result.final_page


def test_dilution_fixture_baseline_low_pelican_perfect():
    seed, final = _dilution_pair()
    baseline = tree_similarity_baseline(seed, final)
    pelican_value = tree_similarity_pelican(seed, final)
    # 191 added links: layer 2 ratio 10/201, so (1 + 10/201) / 2
    assert baseline == pytest.approx((1 + 10 / 201) / 2, abs=1e-9)
    assert baseline < 0.6
    assert pelican_value == pytest.approx(1.0, abs=0.01)


def test_pelican_invariant_under_invisible_additions(paypal_page):
    mutated = paypal_page.copy()
    body = mutated.root.element_children[1]
    for i in range(25):
        child = DomNode.element("a", {"href": f"http://paypal.com.secure-login.test/p{i}",
                                      "style": "display:none"})
        body.children.append(child)
    assert tree_similarity_pelican(paypal_page, mutated) == pytest.approx(1.0)
    assert tree_similarity_baseline(paypal_page, mutated) < 1.0


def test_pelican_layer_skip_over_inserted_wrapper(paypal_page):
    # a full wrapper layer between the root and its children shifts every
    # deeper layer down by one
    wrapped = paypal_page.copy()
    wrapper = DomNode.element("section")
    wrapper.children.extend(wrapped.root.children)
    wrapped.root.children = [wrapper]
    assert tree_similarity_pelican(paypal_page, wrapped) == pytest.approx(1.0)
    assert tree_similarity_baseline(paypal_page, wrapped) < 0.8


# -- store -------------------------------------------------------------------------

def test_store_capacity_eviction():
    store = PhishStore(k=2, h_hours=24)
    pages = [build_page(terms=[f"w{i}"]) for i in range(3)]
    for i, page in enumerate(pages):
        store.insert(page, now=1000.0 + i)
    assert len(store.entries) == 2
    assert store.entries[0].timestamp == 1001.0  # oldest evicted first


def test_store_age_eviction():
    store = PhishStore(k=10, h_hours=1.0)
    store.insert(build_page(terms=["old"]), now=0.0)
    store.insert(build_page(terms=["new"]), now=2 * 3600.0)
    assert len(store.entries) == 1
    assert store.entries[0].timestamp == 2 * 3600.0


@pytest.mark.parametrize("bounds", [{"h_hours": float("nan")}, {"h_hours": -1.0},
                                    {"k": -1}], ids=["h-nan", "h-negative", "k-negative"])
def test_store_rejects_an_invalid_horizon_or_size(bounds, tmp_path):
    # a NaN or negative horizon silently emptied the store on the first
    # insert, and k = -1 raised IndexError from evict
    with pytest.raises(ValueError, match="must be >= 0"):
        PhishStore(**bounds)
    path = tmp_path / "store.json"
    save_store(PhishStore(), path)
    with pytest.raises(ValueError, match="must be >= 0"):
        load_store(path, **bounds)


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_store_rejects_a_non_finite_clock(now):
    # against a NaN or infinite clock every age test fails or every one
    # passes: the store would lose all its entries, or keep them and store
    # a timestamp that load_store rejects
    store = PhishStore(k=10, h_hours=1.0)
    store.insert(build_page(terms=["kept"]), now=1000.0)
    before = list(store.entries)
    for call in (store.evict, lambda now: store.insert(build_page(), now)):
        with pytest.raises(ValueError, match="finite"):
            call(now)
        assert store.entries == before


def test_store_matches_history_replay_oracle():
    rng = random.Random(31)
    k, h_hours = 5, 24.0
    store = PhishStore(k=k, h_hours=h_hours)
    history = []
    now = 0.0
    for i in range(40):
        now += rng.uniform(0, 4 * 3600)
        page = build_page(terms=[f"w{i}"])
        store.insert(page, now=now)
        history.append((signature_of(page), now))
    alive = [(s, ts) for s, ts in history if now - ts <= h_hours * 3600.0]
    expected = alive[-k:]
    got = [(e.signature, e.timestamp) for e in store.entries]
    assert got == expected


def test_pipeline_evicts_a_loaded_store_over_capacity(tmp_path, paypal_page, bank_page):
    """A store file may hold more than k entries; the oldest beyond k never
    match."""
    store = PhishStore(k=10)
    for now, page in enumerate([paypal_page, bank_page, build_page(terms=["w"])]):
        store.insert(page, now=float(now))
    path = tmp_path / "store.json"
    save_store(store, path)
    clf = make_classifier([rule("p", {"PageTerm=nothing-here"}, 1.0)], bias=-1.0)
    verdict = pipeline(paypal_page.source_url, paypal_page, set(), set(),
                       load_store(path, k=10), ScoreOracle(clf), now=3.0)
    assert (verdict.label, verdict.matched_entry) == (EVASION_DETECTED, 0)
    small = load_store(path, k=2)
    assert len(small.entries) == 3
    verdict = pipeline(paypal_page.source_url, paypal_page, set(), set(), small,
                       ScoreOracle(clf), now=3.0)
    assert verdict.label == BENIGN
    assert [e.timestamp for e in small.entries] == [1.0, 2.0]
    verdict = pipeline(bank_page.source_url, bank_page, set(), set(), small,
                       ScoreOracle(clf), now=3.0)
    assert (verdict.label, verdict.matched_entry) == (EVASION_DETECTED, 0)


def test_store_persistence_round_trip(tmp_path):
    store = PhishStore(k=3, h_hours=24)
    store.insert(build_page(terms=["alpha"]), now=10.0)
    store.insert(build_page(secure_links=2), now=20.0)
    path = tmp_path / "store.json"
    save_store(store, path)
    again = load_store(path, k=3, h_hours=24)
    assert [(e.signature, e.timestamp) for e in again.entries] == \
        [(e.signature, e.timestamp) for e in store.entries]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_store_load_and_save_pause_the_collector_and_restore_its_state(
        tmp_path, monkeypatch, enabled):
    store = PhishStore()
    store.insert(build_page(terms=["alpha"]), now=10.0)
    good, bad = tmp_path / "store.json", tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [{"signature": [[
        {"tag": "html", "attrs": ["a", 1], "texts": []}]], "timestamp": 1}]}))
    seen = []
    for name in ("_signature_to_json", "_element_from_json"):
        monkeypatch.setattr(pelican, name, lambda *args, _f=getattr(pelican, name):
                            seen.append(gc.isenabled()) or _f(*args))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        save_store(store, good)
        assert gc.isenabled() is enabled
        assert load_store(good).entries[0].signature == store.entries[0].signature
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError, match="'attrs' must be a list of strings"):
            load_store(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


def test_store_file_is_the_sorted_document_and_a_newline(tmp_path):
    pages = ["<div><p class='a' id='b'>one</p><br><p>two</p></div>",
             "<form action='/x'><input type='password'><span></span></form>",
             "<ul><li>x</li><li>y</li><li></li></ul>"]
    sigs = [sig(html) for html in pages]
    store = PhishStore(entries=[StoreEntry(s, t) for s, t in
                                zip(sigs, (1.5, 1700000000.125, 0.1 + 0.2))])
    assert any(not e.attr_hashes and not e.text_hashes
               for s in sigs for layer in s.layers for e in layer)
    doc = {"entries": [
        {"signature": [[{"tag": e.tag, "attrs": sorted(e.attr_hashes),
                         "texts": sorted(e.text_hashes)} for e in layer]
                       for layer in entry.signature.layers],
         "timestamp": entry.timestamp} for entry in store.entries]}
    expected = io.StringIO()
    json.dump(doc, expected, sort_keys=True)
    path = tmp_path / "store.json"
    save_store(store, path)
    assert path.read_bytes() == (expected.getvalue() + "\n").encode("ascii")


# -- pipeline ----------------------------------------------------------------------

def _oracle():
    return ScoreOracle(make_classifier([rule("p", {"PageTerm=signin"}, 1.0)],
                                       bias=-0.2))


def test_pipeline_whitelist_short_circuits():
    oracle = _oracle()
    page = build_page(terms=["signin"])
    verdict = pipeline(page.source_url, page, {page.source_url}, set(),
                       PhishStore(), oracle)
    assert verdict.label == WHITELISTED
    assert oracle.query_count == 0


def test_pipeline_blacklist():
    oracle = _oracle()
    page = build_page(terms=["anything"])
    verdict = pipeline(page.source_url, page, set(), {page.source_url},
                       PhishStore(), oracle)
    assert verdict.label == BLACKLISTED
    assert oracle.query_count == 0


def test_pipeline_benign_queries_once():
    oracle = _oracle()
    page = build_page(terms=["flowers"])
    verdict = pipeline(page.source_url, page, set(), set(), PhishStore(), oracle)
    assert verdict.label == BENIGN
    assert oracle.query_count == 1


def test_pipeline_detects_and_stores_phishing_then_catches_evasion():
    clf = suite_model()
    oracle = ScoreOracle(clf)
    store = PhishStore()
    seed = suite_seed_pages(per_bucket=1)[0][1]
    verdict = pipeline(seed.source_url, seed, set(), set(), store, oracle,
                       now=100.0)
    assert verdict.label == PHISHING_BY_CLASSIFIER
    assert len(store.entries) == 1

    crafted = white_box(white_knowledge(clf, ScoreOracle(clf)), seed).final_page
    queries_before = oracle.query_count
    verdict = pipeline(crafted.source_url, crafted, set(), set(), store, oracle,
                       now=200.0)
    assert verdict.label == EVASION_DETECTED
    assert verdict.similarity >= 0.9
    assert verdict.matched_entry == 0
    assert oracle.query_count == queries_before   # classifier never invoked


def test_detection_soundness_on_attack_outputs():
    clf = suite_model()
    pool = suite_pool()
    greyrules = [(r.id, r.features) for r in clf.rules]
    for bucket, seed in suite_seed_pages(per_bucket=1):
        outputs = [
            white_box(white_knowledge(clf, ScoreOracle(clf)), seed).final_page,
            grey_box(grey_knowledge(greyrules, ScoreOracle(clf)), seed).final_page,
            black_box(black_knowledge(ScoreOracle(clf)), seed, pool,
                      rng_seed=13).final_page,
        ]
        for final in outputs:
            assert tree_similarity_pelican(seed, final) >= 0.9, bucket
