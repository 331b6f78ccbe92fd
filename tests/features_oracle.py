"""Reference definition of page feature extraction.

One direct walk over the elements (``walk_elements``, which enters script
and style elements) and one over the text nodes (``walk_text_nodes``, which
skips the text inside them) count the features each node gives (one per
element feature and per term occurrence) and fill the element tally; the
feature map keeps the counted features, in the order the walks meet them.
The program folds per-node contributions into a ``PageTally`` in one walk
that builds no paths instead, and keeps the tally up to date as a plan
edits the page and undoes edits; ``tests/test_features.py`` and
``tests/test_mutation.py`` check that both give the same maps, key order
included, and counts.

A reference points where ``urljoin`` puts it: the oracle joins it with the
page URL and splits the result with ``urlsplit``, where
``PageTally.resolve`` splits the reference once with
``features.split_reference``, its own reading of urlsplit's rules, and
reads the scheme and host off that and the page's split.  A host that
normalizes to nothing or holds an empty label is no host: a page URL with
one has no domain, and a reference to one is internal and not secure, as
is one that does not join or split.
"""

from collections import Counter
from urllib.parse import urljoin, urlsplit

from phishevade.dom import walk_elements, walk_text_nodes
from phishevade.features import (
    _TERM_SPLIT,
    PageCounts,
    extract_url_features,
    terms_of,
)
from phishevade.suffixes import split_host

_INPUT_FEATURES = {
    "text": "PageHasTextInputs",
    "password": "PageHasPswdInputs",
    "radio": "PageHasRadioInputs",
    "checkbox": "PageHasCheckInputs",
}

_FREQUENCY_TALLIES = {
    "PageExternalLinksFreq": ("external_links", "links"),
    "PageSecureLinksFreq": ("secure_links", "links"),
    "PageActionOtherDomainFreq": ("other_actions", "actions"),
    "PageImgOtherDomainFreq": ("other_imgs", "imgs"),
}


def host_domain(host):
    """The registrable domain of a host; None without a host, or when one of
    its labels is empty."""
    if not host:
        return None
    _, registrable, other_labels = split_host(host)
    if "" in registrable.split(".") or "" in other_labels:
        return None
    return registrable


def registrable_domain(url):
    """The registrable domain of a URL's host; None without one, or when the
    URL does not parse."""
    try:
        return host_domain(urlsplit(url).hostname)
    except ValueError:
        return None


def resolve_reference(ref, base_url, base_domain):
    """``(domain, secure)`` of a reference joined with the page URL: the
    joined URL's registrable domain when it differs from the page's
    ``base_domain``, else None, and whether its scheme is https.  A
    reference that does not join or split, or whose host has an empty
    label, is internal and not secure."""
    try:
        parts = urlsplit(urljoin(base_url, ref))
    except ValueError:
        return None, False
    host = parts.hostname
    domain = host_domain(host)
    if host and domain is None:
        return None, False
    if base_domain is None or domain == base_domain:
        domain = None
    return domain, parts.scheme == "https"


def find_term(text, term):
    """Offset of the first token of ``text`` equal to ``term``, or -1: a
    walk over every token."""
    return next((m.start() for m in _TERM_SPLIT.finditer(text)
                 if m.group() == term), -1)


def _element_walk(tree):
    """The element features, counted, and the element tally, in one walk."""
    found = Counter()
    counts = PageCounts()
    base_url = tree.source_url
    base_domain = registrable_domain(base_url)
    for _, el in walk_elements(tree):
        tag = el.tag
        if tag == "a":
            href = el.attrs.get("href")
            if href is None:
                continue
            domain, secure = resolve_reference(href, base_url, base_domain)
            counts.links += 1
            counts.secure_links += secure
            if domain is not None:
                counts.external_links += 1
                found[f"PageLinkDomain={domain}"] += 1
        elif tag == "form":
            found["PageHasForms"] += 1
            action = el.attrs.get("action")
            if action is None:
                continue
            if action:
                found[f"PageActionURL={action}"] += 1
            counts.actions += 1
            if resolve_reference(action, base_url, base_domain)[0] is not None:
                counts.other_actions += 1
        elif tag == "img":
            counts.imgs += 1
            src = el.attrs.get("src")
            if src is not None and \
                    resolve_reference(src, base_url, base_domain)[0] is not None:
                counts.other_imgs += 1
        elif tag == "input":
            feature = _INPUT_FEATURES.get((el.attrs.get("type") or "").lower())
            if feature:
                found[feature] += 1
        elif tag == "script":
            counts.scripts += 1
    return found, counts


def page_counts(tree):
    """The element tally of a page."""
    return _element_walk(tree)[1]


def _fold(tree):
    """The element walk's counted features plus every term occurrence, and
    the element tally."""
    found, counts = _element_walk(tree)
    for _, node in walk_text_nodes(tree):
        found.update(f"PageTerm={term}" for term in terms_of(node.value))
    return found, counts


def feature_counts(tree):
    """How many times the page's nodes give each feature."""
    return _fold(tree)[0]


def extract_page_features(tree):
    """The page-level feature map."""
    found, counts = _fold(tree)
    fmap = dict.fromkeys(found, 1.0)
    if counts.scripts > 1:
        fmap["PageNumScriptTags>1"] = 1.0
    if counts.scripts > 6:
        fmap["PageNumScriptTags>6"] = 1.0
    for kind, (num, den) in _FREQUENCY_TALLIES.items():
        if getattr(counts, num):
            fmap[kind] = getattr(counts, num) / getattr(counts, den)
    return fmap


def extract_all_features(tree):
    """Page features plus the URL features of the page's own URL."""
    fmap = extract_page_features(tree)
    if tree.source_url:
        for feature in extract_url_features(tree.source_url):
            fmap[feature.canonical] = 1.0
    return fmap
