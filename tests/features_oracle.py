"""Reference definition of page feature extraction.

One direct walk over the elements and one over the text nodes fill the
feature map and the element tally.  The program folds per-node
contributions into a ``PageTally`` instead, and keeps it up to date as a
plan edits the page; ``tests/test_features.py`` and
``tests/test_mutation.py`` check that both give the same maps.
"""

from phishevade.dom import walk_elements, walk_text_nodes
from phishevade.features import (
    PageCounts,
    extract_url_features,
    registrable_domain,
    resolve_reference,
    terms_of,
)

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


def _element_walk(tree):
    """The element features and the element tally, in one walk."""
    fmap = {}
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
                if domain:
                    fmap[f"PageLinkDomain={domain}"] = 1.0
        elif tag == "form":
            fmap["PageHasForms"] = 1.0
            action = el.attrs.get("action")
            if action is None:
                continue
            if action:
                fmap[f"PageActionURL={action}"] = 1.0
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
                fmap[feature] = 1.0
        elif tag == "script":
            counts.scripts += 1
    return fmap, counts


def page_counts(tree):
    """The element tally of a page."""
    return _element_walk(tree)[1]


def extract_page_features(tree):
    """The page-level feature map."""
    fmap, counts = _element_walk(tree)
    if counts.scripts > 1:
        fmap["PageNumScriptTags>1"] = 1.0
    if counts.scripts > 6:
        fmap["PageNumScriptTags>6"] = 1.0
    for kind, (num, den) in _FREQUENCY_TALLIES.items():
        if getattr(counts, num):
            fmap[kind] = getattr(counts, num) / getattr(counts, den)
    for _, node in walk_text_nodes(tree):
        for term in terms_of(node.value):
            fmap[f"PageTerm={term}"] = 1.0
    return fmap


def extract_all_features(tree):
    """Page features plus the URL features of the page's own URL."""
    fmap = extract_page_features(tree)
    if tree.source_url:
        for feature in extract_url_features(tree.source_url):
            fmap[feature.canonical] = 1.0
    return fmap
