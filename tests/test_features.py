import random
import struct
from urllib.parse import urljoin, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishevade.dom import parse_html, walk_elements, walk_text_nodes
from phishevade.features import (
    Feature,
    PageTally,
    UrlError,
    extract_page_features,
    extract_url_features,
    find_term,
    hash_feature,
    terms_of,
)
from phishevade.suffixes import split_host

from conftest import build_page
from features_oracle import find_term as oracle_find_term


def page_counts(tree):
    """The folded element tally of a page."""
    tally = PageTally(tree.source_url)
    extract_page_features(tree, tally)
    return tally.counts


# -- reference SHA-256 (independent of hashlib) --------------------------------

_K = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
]
_H0 = [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def reference_sha256(data: bytes) -> str:
    length = len(data) * 8
    data += b"\x80"
    while len(data) % 64 != 56:
        data += b"\x00"
    data += struct.pack(">Q", length)
    h = list(_H0)
    for chunk_start in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[chunk_start:chunk_start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF)
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, [a, b, c, d, e, f, g, hh])]
    return "".join(f"{x:08x}" for x in h)


def test_hash_feature_matches_reference_implementation():
    for text in ["PageTerm=login", "PageHasForms", "UrlTld=com",
                 "PageTerm=élève"]:
        assert hash_feature(text) == reference_sha256(text.encode("utf-8"))
    # frozen value, computed offline with the reference implementation
    assert hash_feature("PageTerm=login") == (
        "7f49be8c506c4deb716fd277d1bd9caa0ede6fb2987afb043e51a4d93d032991")


def test_hash_feature_deterministic_and_rejects_empty():
    assert hash_feature("PageTerm=a") == hash_feature("PageTerm=a")
    with pytest.raises(ValueError):
        hash_feature("")


# -- page features --------------------------------------------------------------

def test_single_form_sets_page_has_forms():
    page = build_page(bare_form=True)
    fmap = extract_page_features(page)
    assert fmap["PageHasForms"] == 1.0


def test_secure_links_freq_hand_count():
    # 4 links, 3 of them https
    page = build_page(secure_links=3, insecure_external_links=1)
    fmap = extract_page_features(page)
    assert fmap["PageSecureLinksFreq"] == pytest.approx(0.75)
    assert fmap["PageExternalLinksFreq"] == pytest.approx(1.0)


def test_zero_denominator_frequencies_absent():
    page = build_page(terms=["hello"])
    fmap = extract_page_features(page)
    assert "PageSecureLinksFreq" not in fmap
    assert "PageExternalLinksFreq" not in fmap


def test_boolean_features_absent_when_false():
    page = build_page(terms=["x"])
    fmap = extract_page_features(page)
    assert "PageHasForms" not in fmap
    assert "PageNumScriptTags>1" not in fmap


def test_input_kinds_and_script_thresholds():
    page = build_page(input_types=["text", "password", "radio", "checkbox"],
                      scripts=7)
    fmap = extract_page_features(page)
    for key in ["PageHasTextInputs", "PageHasPswdInputs",
                "PageHasRadioInputs", "PageHasCheckInputs",
                "PageNumScriptTags>1", "PageNumScriptTags>6"]:
        assert fmap[key] == 1.0
    two = extract_page_features(build_page(scripts=2))
    assert two["PageNumScriptTags>1"] == 1.0
    assert "PageNumScriptTags>6" not in two


def test_action_and_link_wildcards():
    page = build_page(actions=["http://collector.evil.example/post"],
                      insecure_external_links=1)
    fmap = extract_page_features(page)
    assert fmap["PageActionURL=http://collector.evil.example/post"] == 1.0
    assert fmap["PageLinkDomain=example.com"] == 1.0
    assert fmap["PageActionOtherDomainFreq"] == pytest.approx(1.0)


def test_img_other_domain_freq_uses_src():
    page = build_page(imgs=["http://cdn.pics.example.org/a.png",
                            "http://seed.test/b.png"])
    fmap = extract_page_features(page)
    assert fmap["PageImgOtherDomainFreq"] == pytest.approx(0.5)


def test_page_terms_raw_tokenization():
    page = parse_html("<html><body><p>Hello World!</p>"
                      "<p>Hello again</p></body></html>",
                      "http://seed.test/")
    fmap = extract_page_features(page)
    assert fmap["PageTerm=Hello"] == 1.0
    assert fmap["PageTerm=World!"] == 1.0          # no punctuation handling
    assert "PageTerm=hello" not in fmap            # case sensitive


def test_zero_width_characters_split_terms():
    page = parse_html("<html><body><p>Hell\u200bo</p></body></html>",
                      "http://seed.test/")
    fmap = extract_page_features(page)
    assert "PageTerm=Hello" not in fmap
    assert fmap["PageTerm=Hell"] == 1.0 and fmap["PageTerm=o"] == 1.0


TERM_PIECES = ["ab", "aba", "a", "b", " ", "\t", "\n", "\xa0",
               "\u200b", "\u200c", "\u200d", "\ufeff"]
SEARCHED_TERMS = ["", "a", "b", "ab", "ba", "aa", "aba", "abab", "baba", "a b",
                  "a\u200bb", "a\xa0", " "]


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(TERM_PIECES), max_size=12).map("".join),
       term=st.sampled_from(SEARCHED_TERMS) | st.lists(
           st.sampled_from(TERM_PIECES), max_size=3).map("".join))
def test_find_term_is_the_first_equal_token(text, term):
    """One delimiter-bounded search finds the first token of the text equal
    to the term, as a walk over every token does; a term that is empty or
    holds a delimiter is never found."""
    assert find_term(text, term) == oracle_find_term(text, term)


@pytest.mark.parametrize("text, term, offset", [
    ("aaa aa", "aa", 4),                 # the first hit is inside a longer token
    ("aa aaa aa", "aa", 0),
    ("abab ab", "ab", 5),                # overlapping hits
    ("ab\u200bab", "ab", 0),
    ("xab\u200bab", "ab", 4),            # a zero-width character delimits
    ("ab\xa0ab", "ab", 0),
    ("a b", "a b", -1),                  # a term with a delimiter is no token
    ("a\u200bb", "a\u200bb", -1),
    ("ab", "", -1),
    ("", "", -1),
])
def test_find_term_cases(text, term, offset):
    assert find_term(text, term) == offset == oracle_find_term(text, term)


def test_script_text_not_tokenized_as_terms():
    page = parse_html("<html><body><script>var secretToken=1;</script>"
                      "<p>visible</p></body></html>", "http://seed.test/")
    fmap = extract_page_features(page)
    assert "PageTerm=var" not in fmap
    assert "PageTerm=visible" in fmap


def test_term_completeness_property():
    rng = random.Random(3)
    words = ["alpha", "Beta!", "x1", "longish-token", "über"]
    for _ in range(20):
        chosen = [rng.choice(words) for _ in range(rng.randrange(1, 8))]
        page = build_page(terms=[" ".join(chosen)])
        fmap = extract_page_features(page)
        for token in terms_of(" ".join(chosen)):
            assert fmap[f"PageTerm={token}"] == 1.0


def test_frequency_bounds_property():
    rng = random.Random(9)
    for _ in range(25):
        page = build_page(secure_links=rng.randrange(4),
                          insecure_external_links=rng.randrange(4),
                          internal_links=rng.randrange(4),
                          imgs=["http://other.example.net/i.png"] * rng.randrange(3))
        fmap = extract_page_features(page)
        for key, value in fmap.items():
            if key in ("PageExternalLinksFreq", "PageSecureLinksFreq",
                       "PageActionOtherDomainFreq", "PageImgOtherDomainFreq"):
                assert 0.0 < value <= 1.0


def test_adding_internal_link_decreases_external_freq():
    for internal in range(0, 4):
        fewer = build_page(insecure_external_links=2, internal_links=internal)
        more = build_page(insecure_external_links=2, internal_links=internal + 1)
        a = extract_page_features(fewer)["PageExternalLinksFreq"]
        b = extract_page_features(more)["PageExternalLinksFreq"]
        assert b < a


MALFORMED_REF = "http://[x"


@pytest.mark.parametrize("markup, counted, expected", [
    (f'<a href="{MALFORMED_REF}">', {"links": 1, "external_links": 0,
                                     "secure_links": 0}, {}),
    (f'<form action="{MALFORMED_REF}"></form>',
     {"actions": 1, "other_actions": 0},
     {"PageHasForms": 1.0, f"PageActionURL={MALFORMED_REF}": 1.0}),
    (f'<img src="{MALFORMED_REF}">', {"imgs": 1, "other_imgs": 0}, {}),
], ids=["a-href", "form-action", "img-src"])
def test_malformed_reference_counts_as_hostless(markup, counted, expected):
    """A reference that does not parse is internal and, even on an https
    page, not secure; the raw action URL is still a feature."""
    page = parse_html(f"<html><body>{markup}</body></html>", "https://seed.test/")
    counts = page_counts(page)
    assert {name: getattr(counts, name) for name in counted} == counted
    assert extract_page_features(page) == expected


# -- one-walk extraction against the four-walk reference -------------------------

def _ref_domain(url):
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    return split_host(host)[1] if host else None


def _ref_join(base_url, ref):
    try:
        return urljoin(base_url, ref)
    except ValueError:
        return None


def _ref_is_external(ref, base_url):
    joined = _ref_join(base_url, ref)
    target = _ref_domain(joined) if joined is not None else None
    base_domain = _ref_domain(base_url)
    if target is None or base_domain is None:
        return False
    return target != base_domain


def _ref_is_secure(ref, base_url):
    try:
        return urlsplit(urljoin(base_url, ref)).scheme == "https"
    except ValueError:
        return False


def _ref_link_counts(tree):
    total = external = secure = 0
    for _, el in walk_elements(tree):
        href = el.get_attr("href") if el.tag == "a" else None
        if href is None:
            continue
        total += 1
        external += _ref_is_external(href, tree.source_url)
        secure += _ref_is_secure(href, tree.source_url)
    return total, external, secure


def _ref_action_counts(tree):
    total = other = 0
    for _, el in walk_elements(tree):
        action = el.get_attr("action") if el.tag == "form" else None
        if action is None:
            continue
        total += 1
        other += _ref_is_external(action, tree.source_url)
    return total, other


def _ref_img_counts(tree):
    total = other = 0
    for _, el in walk_elements(tree):
        if el.tag != "img":
            continue
        total += 1
        src = el.get_attr("src")
        other += src is not None and _ref_is_external(src, tree.source_url)
    return total, other


def _ref_page_features(tree):
    """The page feature definitions as separate walks per tally, with
    unparseable references treated as hostless."""
    fmap = {}
    scripts = 0
    inputs = {"text": "PageHasTextInputs", "password": "PageHasPswdInputs",
              "radio": "PageHasRadioInputs", "checkbox": "PageHasCheckInputs"}
    for _, el in walk_elements(tree):
        if el.tag == "form":
            fmap["PageHasForms"] = 1.0
            if el.get_attr("action"):
                fmap[f"PageActionURL={el.get_attr('action')}"] = 1.0
        elif el.tag == "input":
            kind = inputs.get((el.get_attr("type") or "").lower())
            if kind:
                fmap[kind] = 1.0
        elif el.tag == "a":
            href = el.get_attr("href")
            if href and _ref_is_external(href, tree.source_url):
                domain = _ref_domain(_ref_join(tree.source_url, href))
                if domain:
                    fmap[f"PageLinkDomain={domain}"] = 1.0
        elif el.tag == "script":
            scripts += 1
    if scripts > 1:
        fmap["PageNumScriptTags>1"] = 1.0
    if scripts > 6:
        fmap["PageNumScriptTags>6"] = 1.0
    links, external, secure = _ref_link_counts(tree)
    actions, other_actions = _ref_action_counts(tree)
    imgs, other_imgs = _ref_img_counts(tree)
    for kind, num, den in (("PageExternalLinksFreq", external, links),
                           ("PageSecureLinksFreq", secure, links),
                           ("PageActionOtherDomainFreq", other_actions, actions),
                           ("PageImgOtherDomainFreq", other_imgs, imgs)):
        if den and num:
            fmap[kind] = num / den
    for _, node in walk_text_nodes(tree):
        for term in terms_of(node.value):
            fmap[f"PageTerm={term}"] = 1.0
    return fmap, (links, external, secure, actions, other_actions, imgs,
                  other_imgs, scripts)


REFERENCES = st.sampled_from([
    "http://[x", "https://[::1", "//[bad/", "http://a.example.com/",
    "https://b.example.org/p", "https://seed.test/in", "http://www.seed.test/",
    "/local", "rel/path", "mailto:x@y.test", "javascript:void(0)", "",
    "http://./", "https://cdn.shop.co.uk/i.png", "//proto.example.net/",
])
SOUP = st.lists(st.one_of(
    st.builds('<a href="{}">'.format, REFERENCES),
    st.builds('<form action="{}">'.format, REFERENCES),
    st.builds('<img src="{}">'.format, REFERENCES),
    st.sampled_from([
        "<a>", "</a>", "<form>", "</form>", "<img>", "<input>",
        '<input type="text">', '<input type="PASSWORD">', "<input type=radio>",
        '<input type="checkbox">', "<script>a<b</script>", "<script>",
        "</script>", "<style>p{}</style>", "<div>", "</div>", "<p>",
        "login now", "verify\u200baccount", "</body>",
    ]),
), max_size=25)


@settings(max_examples=150, deadline=None)
@given(pieces=SOUP, url=st.sampled_from(
    ["", "http://seed.test/page", "https://seed.test/login",
     "https://shop.co.uk/cart"]))
def test_one_walk_matches_the_four_walk_reference(pieces, url):
    tree = parse_html("<html><body>" + "".join(pieces), url)
    expected_fmap, expected_counts = _ref_page_features(tree)
    assert extract_page_features(tree) == expected_fmap
    counts = page_counts(tree)
    assert (counts.links, counts.external_links, counts.secure_links,
            counts.actions, counts.other_actions, counts.imgs,
            counts.other_imgs, counts.scripts) == expected_counts


# -- URL features ---------------------------------------------------------------

def canon(features) -> set[str]:
    return {f.canonical for f in features}


def test_url_tokenization_manual():
    got = canon(extract_url_features("http://login.example.com/a/b"))
    assert got == {"UrlTld=com", "UrlDomain=example.com",
                   "UrlOtherHostToken=login", "UrlPathToken=a", "UrlPathToken=b"}


def test_url_bare_domain_has_no_extra_tokens():
    got = canon(extract_url_features("http://example.com/"))
    assert got == {"UrlTld=com", "UrlDomain=example.com"}


def test_url_multi_label_suffix():
    got = canon(extract_url_features("https://shop.trading.co.uk/cart"))
    assert "UrlTld=co.uk" in got
    assert "UrlDomain=trading.co.uk" in got
    assert "UrlOtherHostToken=shop" in got


def test_url_error_on_garbage():
    with pytest.raises(UrlError):
        extract_url_features("not a url")
    with pytest.raises(UrlError):
        extract_url_features("/relative/only")


def test_hash_injectivity_over_corpus_scale_features(paypal_page, legit_pages):
    seen: dict[str, str] = {}
    for page in [paypal_page, *legit_pages]:
        fmap = extract_page_features(page)
        for key in list(fmap) + [f.canonical for f in
                                 extract_url_features(page.source_url)]:
            digest = hash_feature(key)
            assert seen.setdefault(digest, key) == key
    assert len(seen) > 40


def test_feature_canonical_forms():
    assert Feature("PageHasForms").canonical == "PageHasForms"
    assert Feature("PageTerm", "login").canonical == "PageTerm=login"
    assert Feature.parse("PageTerm=login") == Feature("PageTerm", "login")
    assert Feature.parse("PageNumScriptTags>1") == Feature("PageNumScriptTags>1")
    assert Feature.parse("NotAFeature=x") is None
    with pytest.raises(ValueError):
        Feature("PageTerm")
    with pytest.raises(ValueError):
        Feature("PageHasForms", "payload")
