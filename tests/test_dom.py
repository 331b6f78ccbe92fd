import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishevade.dom import (
    ELEMENT,
    TEXT,
    DomNode,
    DomTree,
    ParseError,
    bfs_layers,
    isomorphic,
    parse_html,
    path_of,
    serialize,
    visible_projection,
    walk,
    walk_elements,
    walk_text_nodes,
)
from phishevade.mutation import (
    ElementSpec,
    MutationPlan,
    _resolve,
    add_invisible_element,
    plan_add_rule,
    plan_delete_feature,
    preservation_check,
)
from phishevade.pelican import tree_similarity_pelican

import dom_oracle
from html_parser_311 import HTMLParser
from conftest import FIXTURES, PAYPAL_URL, fixture_path, planned
from test_cli import _in_fresh_interpreter
from test_features import SOUP


def test_parse_simple_structure():
    tree = parse_html("<html><body><p>hi</p></body></html>")
    body = tree.root.element_children[0]
    p = body.element_children[0]
    assert tree.root.tag == "html"
    assert p.tag == "p"
    texts = [c for c in p.children if c.node_type == "text"]
    assert len(texts) == 1 and texts[0].value == "hi"


def test_parse_empty_document_yields_bare_root():
    tree = parse_html("")
    assert tree.root.tag == "html"
    assert tree.root.children == []


def test_parse_rejects_invalid_utf8():
    with pytest.raises(ParseError):
        parse_html(b"<p>\xff\xfe</p>")


@pytest.mark.parametrize("doc", ["<html><body><![ x</body></html>", '<![ style="a">'])
def test_parse_rejects_a_declaration_the_tokenizer_gives_up_on(doc):
    # html.parser raises AssertionError here, which reached the CLI as a
    # traceback
    with pytest.raises(ParseError):
        parse_html(doc)


def test_parse_is_tag_soup_tolerant():
    tree = parse_html("<html><body><div><p>one<p>two</div><b>x</body>")
    assert serialize(tree)  # no crash, tree well formed
    for _, el in walk_elements(tree):
        for child in el.children:
            if child.node_type != ELEMENT:
                assert not child.children


def test_duplicate_attributes_keep_first():
    tree = parse_html('<p class="a" class="b">x</p>')
    p = tree.root.element_children[0]
    assert p.get_attr("class") == "a"
    assert p.attrs == {"class": "a"}


def test_isomorphic_tells_attribute_orders_apart():
    a = parse_html('<p class="c" id="i">x</p>')
    b = parse_html('<p id="i" class="c">x</p>')
    assert a.root.element_children[0].attrs == b.root.element_children[0].attrs
    assert serialize(a) != serialize(b)
    assert not isomorphic(a.root, b.root)
    assert isomorphic(a.root, parse_html(serialize(a)).root)


def test_set_attr_replaces_in_place_and_appends_new_last():
    tree = parse_html('<p class="c" id="i" title="t">x</p>')
    p = tree.root.element_children[0]
    p.set_attr("id", "j")
    p.set_attr("Style", "color:red")
    assert list(p.attrs.items()) == [("class", "c"), ("id", "j"),
                                     ("title", "t"), ("style", "color:red")]
    assert '<p class="c" id="j" title="t" style="color:red">x</p>' in serialize(tree)


class _DepthCounter(HTMLParser):
    """Independent max-element-depth counter used as a reference for the
    BFS layer count (depth of tree == number of layers)."""

    VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
            "link", "meta", "param", "source", "track", "wbr"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.max_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self.VOID:
            self.max_depth = max(self.max_depth, len(self.stack) + 1)
            return
        self.stack.append(tag)
        self.max_depth = max(self.max_depth, len(self.stack))

    def handle_endtag(self, tag):
        if tag in self.stack:
            while self.stack and self.stack.pop() != tag:
                pass


def test_paypal_fixture_layer_count_matches_reference_parser():
    with open(fixture_path("login_paypal.html"), "r", encoding="utf-8") as fh:
        text = fh.read()
    counter = _DepthCounter()
    counter.feed(text)
    tree = parse_html(text, PAYPAL_URL)
    assert len(bfs_layers(tree)) == counter.max_depth == 5


def test_paypal_fixture_layer_sizes_match_hand_count():
    # hand-drawn: html | head body | title style div script script |
    # form p a a img | input input button
    with open(fixture_path("login_paypal.html"), "rb") as fh:
        tree = parse_html(fh.read(), PAYPAL_URL)
    sizes = [len(layer) for layer in bfs_layers(tree)]
    assert sizes == [1, 2, 5, 5, 3]
    assert [n.tag for n in bfs_layers(tree)[3]] == ["form", "p", "a", "a", "img"]


def test_serialize_contains_source_markup():
    tree = parse_html("<p>hi</p>")
    assert "<p>hi</p>" in serialize(tree)


def test_serialize_escapes_attribute_quotes_round_trip():
    node = DomNode.element("div", {"title": 'say "hi" & go'})
    tree = DomTree(DomNode.element("html", children=[node]))
    text = serialize(tree)
    assert "&quot;" in text and "&amp;" in text
    again = parse_html(text)
    assert again.root.element_children[0].get_attr("title") == 'say "hi" & go'


FIXTURE_FILES = ["login_paypal.html", "login_bank.html", "news_home.html",
                 "shop_index.html", "blog_post.html"]


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_round_trip_fixpoint_on_corpus(name):
    with open(fixture_path(name), "rb") as fh:
        data = fh.read()
    first = parse_html(data)
    text1 = serialize(first)
    second = parse_html(text1)
    assert isomorphic(first.root, second.root)
    assert serialize(second) == text1  # serialize∘parse is a fixpoint


def _random_tree(rng: random.Random, depth=3) -> DomNode:
    tag = rng.choice(["div", "p", "span", "ul", "li"])
    el = DomNode.element(tag)
    for _ in range(rng.randrange(3)):
        el.set_attr(rng.choice(["class", "id", "title", "data-x"]),
                    rng.choice(["a b", "c&d", 'q"r', "plain", ""]))
    for _ in range(rng.randrange(3)):
        roll = rng.random()
        if roll < 0.4 and depth > 0:
            el.children.append(_random_tree(rng, depth - 1))
        elif roll < 0.8:
            el.children.append(DomNode.text(rng.choice(
                ["hello", "a < b", "x & y", "tok1 tok2"])))
        else:
            el.children.append(DomNode.comment("note"))
    return el


def test_round_trip_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        tree = DomTree(DomNode.element("html", children=[_random_tree(rng)]))
        once = parse_html(serialize(tree))
        twice = parse_html(serialize(once))
        assert isomorphic(once.root, twice.root)


def test_script_content_round_trips_unescaped():
    tree = parse_html("<html><body><script>if(a<b){c&&d();}</script></body></html>")
    text = serialize(tree)
    assert "if(a<b){c&&d();}" in text
    again = parse_html(text)
    assert isomorphic(tree.root, again.root)


def test_adjacent_data_chunks_coalesce():
    # a dropped stray end tag splits the surrounding data into two chunks
    tree = parse_html('<html><b>"</a>x</b></html>')
    b = tree.root.element_children[0]
    texts = [c for c in b.children if c.node_type == "text"]
    assert len(texts) == 1 and texts[0].value == '"x'


SOUP_PIECES = [
    "<div>", "</div>", "<p>", "</p>", "<a href='http://x.y/'>", "</a>",
    "<input type=text>", "<img src=a.png>", "<br>", "<b>", "</i>", "</b>",
    "text one", "&amp;", "&#8203;", "&bogus;", "<script>if(a<b){}</script>",
    "<style>p{color:red}</style>", "<!-- c -->", "< notatag", ">", '"',
    "<form action=/x>", "</form>", "<td>", "</table>",
    "<FORM ACTION='HTTP://Q.R/'>", '<a href="u&amp;v">',
    "<div style='display:none'>", "<p class=a class=b>",
    "<input type=password>", "\u200b\u200c token", "<span", "attr=val>",
]


def test_round_trip_stable_on_random_tag_soup():
    from phishevade.features import extract_page_features

    rng = random.Random(99)
    for _ in range(500):
        doc = "".join(rng.choice(SOUP_PIECES)
                      for _ in range(rng.randrange(1, 25)))
        first = parse_html(doc, "http://fuzz.test/p")
        again = parse_html(serialize(first), "http://fuzz.test/p")
        assert isomorphic(first.root, again.root), doc
        extract_page_features(first)      # no crashes on soup
        visible_projection(first)
        bfs_layers(first)


# -- the tokenizer against the html.parser oracle ---------------------------------

# Every construct whose rules the tokenizer copies from html.parser: upper-case
# names; single-quoted, unquoted, bare and duplicate attributes; references in
# values and text; "/>" endings and odd closers; comments, declarations,
# marked sections and processing instructions; stray "<" and "&"; script and
# style text holding an end tag; and markup cut off by the end of the input.
PARSER_PIECES = st.sampled_from([
    "<DIV>", "</DIV>", "<A HREF='http://x.y/'>", '<P CLASS="a" Id="b">', "<Input Type=text>",
    "<a href='u v'>", "<a href=u>", "<input disabled>", '<p id="a" id="b">',
    '<p id="a" ID="b">', '<a b = "c" >', "<a b=c/>", '<a b="c"d=e>', "<a\x0bb>",
    '<a id="x>y">', '<a href="u&amp;v">', "<a title='&#62;'>", '<a title="&#1;">',
    "&amp;", "&#62;", "&nbsp;", "&#1;", "&bogus;", "&", "&#",
    "<br/>", "<span />", "<p/ >", "<a/b>", "</ x>", "</>", "</ >", "</1>", "</a b='>'>",
    "<!-- c -->", "<!---->", "<!-->", "--!>", "<!DOCTYPE html>", "<!x>", "<!>",
    "<![CDATA[x]]>", "<![CDATA[", "<![if x]>", "<![endif]>", "<![ x", "<![y", "<?pi>",
    "<", "< b", ">", '"', "'", "=", "/", " ", "\n", "\xa0", "\ufeff",
    "<script>a</b>c</script>", "<style>p</b>{}</style>", "<script>", "<style>",
    "</script>", "</STYLE >", "</\u017fcript>",
    '<a href="x', "<a b='c", "<a b=", "<a b", "<a/", "<!--", "<!doctype", "<?x",
])


def _parsed(parse, doc):
    """The tree ``parse`` builds from ``doc``, or its ParseError message."""
    try:
        return parse(doc)
    except ParseError as exc:
        return str(exc)


def assert_parses_as_the_oracle(doc):
    want = _parsed(dom_oracle.parse_html, doc)
    got = _parsed(parse_html, doc)
    if isinstance(want, str):
        assert got == want, doc
    else:
        assert not isinstance(got, str), (doc, got)
        assert isomorphic(got.root, want.root), (doc, serialize(got), serialize(want))


@settings(max_examples=400, deadline=None)
@given(soup=SOUP, pieces=st.lists(st.one_of(PARSER_PIECES, st.sampled_from(SOUP_PIECES)),
                                  max_size=25), data=st.data())
def test_parse_matches_the_html_parser_oracle_on_token_soup(soup, pieces, data):
    doc = "".join(data.draw(st.permutations(soup + pieces)))
    cut = data.draw(st.none() | st.integers(0, len(doc)))
    assert_parses_as_the_oracle(doc if cut is None else doc[:cut])


PAGE_FILES = sorted([*pathlib.Path(FIXTURES).rglob("*.html"),
                     *(pathlib.Path(__file__).resolve().parent.parent / "demos").rglob("*.html")])


def test_every_fixture_and_demo_page_parses_to_the_oracle_tree():
    assert len(PAGE_FILES) >= 18
    for path in PAGE_FILES:
        assert_parses_as_the_oracle(path.read_bytes())


def _stray_closer_page(tags):
    return "<div>" * tags + "</p>" * tags


def _parse_seconds(doc):
    """The best of three parse times of ``doc``."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        parse_html(doc)
        times.append(time.perf_counter() - started)
    return min(times)


def test_stray_end_tags_take_no_scan_of_the_open_elements():
    """An end tag that matches no open element returns at once: 16,000
    ``</p>`` under 16,000 open ``<div>`` took over 7 s when each one scanned
    the open stack."""
    doc = _stray_closer_page(16000)
    started = time.perf_counter()
    tree = parse_html(doc)
    assert time.perf_counter() - started < 0.5
    # four times the tags take about four times as long, not sixteen
    assert _parse_seconds(doc) < 8 * _parse_seconds(_stray_closer_page(4000))
    # the oracle drops every stray closer, so its tree is that of the open
    # tags alone, which it builds without the scans
    assert isomorphic(tree.root, dom_oracle.parse_html("<div>" * 16000).root)
    assert_parses_as_the_oracle(_stray_closer_page(2000) + "<p>x</b></div>y")


@pytest.mark.parametrize("opener", ["<!-- ", "<![CDATA[ ", "<?x ", "</ ", "<!x "])
def test_unterminated_markup_takes_no_scan_per_opener(opener):
    """An opener with no closer fell back to text only after searching the
    rest of the page: 100 KB of ``<!-- `` took over 5 s."""
    def page(size):
        return opener * (size // len(opener))

    assert _parse_seconds(page(100_000)) < 8 * _parse_seconds(page(25_000))
    assert_parses_as_the_oracle(page(2_000))
    assert_parses_as_the_oracle(page(2_000) + "-->]]>")


def test_a_leading_byte_order_mark_is_dropped():
    with open(fixture_path("login_paypal.html"), "rb") as fh:
        data = fh.read()
    plain = parse_html(data, PAYPAL_URL)
    for marked in (b"\xef\xbb\xbf" + data, "\ufeff" + data.decode("utf-8")):
        tree = parse_html(marked, PAYPAL_URL)
        assert isomorphic(tree.root, plain.root)
        assert serialize(tree) == serialize(plain)
        assert tree_similarity_pelican(plain, tree) == 1.0
        assert tree_similarity_pelican(tree, plain) == 1.0
    # only one mark is dropped
    assert parse_html("\ufeff\ufeffx").root.children[0].value == "\ufeffx"


def test_parsing_loads_neither_html_parser_nor_markupbase():
    """src/ keeps one parser: html.parser, in a copy, is the tests' oracle."""
    script = ("import json, sys\n"
              "import phishevade\n"
              "phishevade.parse_html('<!DOCTYPE html><p a=\"b\" c=d>x<![CDATA[y]]></p>')\n"
              "print(json.dumps(sorted(m for m in ('html.parser', '_markupbase')"
              " if m in sys.modules)))\n")
    assert _in_fresh_interpreter(script) == ("", [])


def test_layer_partition_covers_every_element(paypal_page):
    layers = bfs_layers(paypal_page)
    total = sum(len(layer) for layer in layers)
    assert total == sum(1 for _ in walk_elements(paypal_page))
    seen = set()
    for layer in layers:
        for node in layer:
            assert id(node) not in seen
            seen.add(id(node))


def test_single_element_tree_layers():
    tree = parse_html("")
    assert bfs_layers(tree) == [[tree.root]]


def test_root_children_layer_order():
    tree = parse_html("<html><i>a</i><b>b</b><u>c</u></html>")
    layers = bfs_layers(tree)
    assert [n.tag for n in layers[1]] == ["i", "b", "u"]


# -- visible projection -------------------------------------------------------

def test_hidden_subtree_excluded():
    base = parse_html("<html><body><p>shown</p></body></html>")
    extra = parse_html('<html><body><p>shown</p>'
                       '<div style="display:none">x<span>y</span></div>'
                       "</body></html>")
    assert visible_projection(base) == visible_projection(extra)


def test_visibility_hidden_and_zero_size_excluded():
    shown = parse_html("<html><body><p>t</p></body></html>")
    hidden1 = parse_html('<html><body><p>t</p>'
                         '<b style="visibility:hidden">x</b></body></html>')
    hidden2 = parse_html('<html><body><p>t</p>'
                         '<b style="width:0;height:0px">x</b></body></html>')
    assert visible_projection(hidden1) == visible_projection(shown)
    assert visible_projection(hidden2) == visible_projection(shown)


def test_zero_width_text_equal_effective_text():
    a = parse_html("<html><body><p>Hell&#8203;o</p></body></html>")
    b = parse_html("<html><body><p>Hello</p></body></html>")
    assert visible_projection(a) == visible_projection(b)


def test_onclick_not_in_appearance_whitelist():
    a = parse_html('<html><body><a href="u">x</a></body></html>')
    b = parse_html('<html><body><a href="u" onclick="go()">x</a></body></html>')
    # href is not appearance either; onclick addition must not show up
    assert visible_projection(a) == visible_projection(b)


def test_projection_keeps_appearance_attributes():
    tree = parse_html('<html><body>'
                      '<img src="a.png" width="5" onload="x()"></body></html>')
    entry = visible_projection(tree)[-1]
    assert entry[0] == "img"
    assert entry[2] == {"src": "a.png", "width": "5"}


def test_projection_sound_under_hidden_mutations(paypal_page):
    before = visible_projection(paypal_page)
    mutated = paypal_page.copy()
    body = mutated.root.element_children[1]
    hidden = DomNode.element("div", {"style": "display:none"},
                             [DomNode.text("invisible bonus")])
    body.children.append(hidden)
    assert visible_projection(mutated) == before


# -- copy -------------------------------------------------------------------------

def _node_pairs(a: DomNode, b: DomNode) -> list[tuple[DomNode, DomNode]]:
    """Corresponding nodes of two trees of the same shape, every pair
    listed, found without recursion."""
    pairs, stack = [], [(a, b)]
    while stack:
        x, y = stack.pop()
        assert len(x.children) == len(y.children)
        pairs.append((x, y))
        stack.extend(zip(x.children, y.children))
    return pairs


def _assert_unshared_clone(pairs) -> None:
    for src, dst in pairs:
        assert (dst.node_type, dst.tag, dst.value) \
            == (src.node_type, src.tag, src.value)
        assert list(dst.attrs.items()) == list(src.attrs.items())
    source = {id(obj) for src, _ in pairs for obj in (src, src.attrs, src.children)}
    clone = {id(obj) for _, dst in pairs for obj in (dst, dst.attrs, dst.children)}
    assert not source & clone


def test_copy_of_a_very_deep_page_returns():
    depth = 5000
    tree = parse_html('<div class="d">' * depth + "leaf", "http://seed.test/")
    clone = tree.copy()
    assert clone.source_url == tree.source_url
    pairs = _node_pairs(tree.root, clone.root)
    assert len(pairs) == depth + 2          # the html root and the text leaf
    _assert_unshared_clone(pairs)


@settings(max_examples=150, deadline=None)
@given(pieces=SOUP, data=st.data())
def test_copy_is_an_unshared_structural_clone(pieces, data):
    tree = parse_html("<html><body>" + "".join(pieces), "http://seed.test/page")
    before = serialize(tree)
    clone = tree.copy()
    assert serialize(clone) == before
    assert isomorphic(clone.root, tree.root)
    assert clone.source_url == tree.source_url
    pairs = _node_pairs(tree.root, clone.root)
    _assert_unshared_clone(pairs)

    elements = [dst for _, dst in pairs if dst.node_type == ELEMENT]
    texts = [dst for _, dst in pairs if dst.node_type == TEXT]
    pick = st.lists(st.sampled_from(elements), max_size=4)
    for el in data.draw(pick, label="set_attr"):
        el.set_attr(data.draw(st.sampled_from(["href", "class", "data-x"])), "v")
    for el in data.draw(pick, label="remove_attr"):
        for name in list(el.attrs):
            el.remove_attr(name)
    for el in data.draw(pick, label="append"):
        el.children.append(DomNode.element("span", children=[DomNode.text("new")]))
    if texts:
        for node in data.draw(st.lists(st.sampled_from(texts), max_size=4),
                              label="edit text"):
            node.value += "\u200bedited"
    assert serialize(tree) == before


# -- iterative walks against the recursive reference -----------------------------

def test_walks_of_a_very_deep_page_return():
    depth = 5000
    tree = parse_html('<div class="d">' * depth + "leaf", "http://seed.test/")
    elements = list(walk_elements(tree))
    assert len(elements) == depth + 1
    assert elements[-1][0] == (0,) * depth
    assert [(path, n.value) for path, n in walk_text_nodes(tree)] == [((0,) * (depth + 1), "leaf")]
    html = serialize(tree)
    assert serialize(parse_html(html, tree.source_url)) == html
    assert len(visible_projection(tree)) == depth + 1
    clone = tree.copy()
    assert isomorphic(tree.root, clone.root)
    assert preservation_check(tree, clone).passed


# Extra pieces for the projection and the functional check: hidden and
# styled elements, an attribute-keyed stylesheet rule and zero-width text.
STYLED = st.sampled_from([
    '<div style="display:none">', '<span style="width:0;height:0px">',
    '<p class="c" align="left">', '<p style="visibility:hidden">',
    '<style>[name=a]{color:red} input[type=text]{border:0}</style>',
    '<input name="a" type="text">', '<button type="submit">', "x\u200by",
    "<!-- note -->", "<br>", "</p>", "</span>",
])


def _assert_walks_match_reference(tree):
    assert [(p, id(n)) for p, n in walk_elements(tree)] \
        == [(p, id(n)) for p, n in dom_oracle.walk_elements(tree)]
    assert [(p, id(n)) for p, n in walk_text_nodes(tree)] \
        == [(p, id(n)) for p, n in dom_oracle.walk_text_nodes(tree)]
    # raw is what the one walk down a text node's path finds
    for at, node, raw in walk(tree):
        if node.node_type == TEXT:
            assert (node, raw) == _resolve(tree, path_of(at), TEXT)
    assert serialize(tree) == dom_oracle.serialize(tree)
    assert visible_projection(tree) == dom_oracle.visible_projection(tree)


@settings(max_examples=150, deadline=None)
@given(pieces=SOUP, styled=st.lists(STYLED, max_size=8), data=st.data(),
       body=st.booleans())
def test_iterative_walks_match_the_recursive_reference(pieces, styled, data, body):
    pieces = data.draw(st.permutations(pieces + styled))
    tree = parse_html(("<html><body>" if body else "") + "".join(pieces),
                      "http://seed.test/page")
    others = [tree.copy()]
    for feature in ["PageTerm=login", "PageHasTextInputs", "PageHasPswdInputs",
                    "PageExternalLinksFreq"]:
        try:
            others.append(planned(plan_delete_feature, tree, feature).tree)
        except (LookupError, ValueError):
            pass
    others.append(planned(plan_add_rule, tree, {"PageTerm=new", "PageHasForms"}).tree)
    # void and raw-text elements that carry text, which only additions make
    additions = MutationPlan.on(tree)
    for spec in [ElementSpec("input", (("type", "text"),), "typed"),
                 ElementSpec("img", (), "a<b"), ElementSpec("script", (), "x<y")]:
        additions.push(add_invisible_element(additions.tree, spec))
    others.append(additions.tree)
    others.append(parse_html("<html><body>" + "".join(reversed(pieces)),
                             "http://seed.test/page"))
    _assert_walks_match_reference(tree)
    for other in others:
        _assert_walks_match_reference(other)
        assert isomorphic(tree.root, other.root) \
            == dom_oracle.isomorphic(tree.root, other.root)
        for before, after in [(tree, other), (other, tree)]:
            expected = []
            dom_oracle.check_functional(before.root, after.root, "", expected)
            problems = preservation_check(before, after).problems
            assert [p for p in problems if p != "visible projections differ"] == expected
