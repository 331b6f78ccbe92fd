"""Feature extraction from pages and URLs.

Features are identified by canonical strings: a bare kind name for boolean
and frequency features (``PageHasForms``, ``PageSecureLinksFreq``, ...) and
``Kind=payload`` for wildcard kinds (``PageTerm=login``, ``UrlTld=com``, ...).
A page's feature map holds canonical string -> value; absent features are 0.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from urllib.parse import urljoin, urlsplit

from .dom import DomTree, walk_elements, walk_text_nodes
from .suffixes import split_host

# Boolean page features.
PAGE_HAS_FORMS = "PageHasForms"
PAGE_HAS_TEXT_INPUTS = "PageHasTextInputs"
PAGE_HAS_PSWD_INPUTS = "PageHasPswdInputs"
PAGE_HAS_RADIO_INPUTS = "PageHasRadioInputs"
PAGE_HAS_CHECK_INPUTS = "PageHasCheckInputs"
PAGE_NUM_SCRIPTS_GT1 = "PageNumScriptTags>1"
PAGE_NUM_SCRIPTS_GT6 = "PageNumScriptTags>6"

# Frequency page features (ratio valued, in [0, 1]).
PAGE_EXTERNAL_LINKS_FREQ = "PageExternalLinksFreq"
PAGE_ACTION_OTHER_DOMAIN_FREQ = "PageActionOtherDomainFreq"
PAGE_SECURE_LINKS_FREQ = "PageSecureLinksFreq"
PAGE_IMG_OTHER_DOMAIN_FREQ = "PageImgOtherDomainFreq"

# Wildcard kinds.
PAGE_ACTION_URL = "PageActionURL"
PAGE_LINK_DOMAIN = "PageLinkDomain"
PAGE_TERM = "PageTerm"
URL_TLD = "UrlTld"
URL_DOMAIN = "UrlDomain"
URL_OTHER_HOST_TOKEN = "UrlOtherHostToken"
URL_PATH_TOKEN = "UrlPathToken"

BOOLEAN_KINDS = frozenset({
    PAGE_HAS_FORMS, PAGE_HAS_TEXT_INPUTS, PAGE_HAS_PSWD_INPUTS,
    PAGE_HAS_RADIO_INPUTS, PAGE_HAS_CHECK_INPUTS,
    PAGE_NUM_SCRIPTS_GT1, PAGE_NUM_SCRIPTS_GT6,
})
FREQUENCY_KINDS = frozenset({
    PAGE_EXTERNAL_LINKS_FREQ, PAGE_ACTION_OTHER_DOMAIN_FREQ,
    PAGE_SECURE_LINKS_FREQ, PAGE_IMG_OTHER_DOMAIN_FREQ,
})
PAGE_WILDCARD_KINDS = frozenset({PAGE_ACTION_URL, PAGE_LINK_DOMAIN, PAGE_TERM})
URL_KINDS = frozenset({URL_TLD, URL_DOMAIN, URL_OTHER_HOST_TOKEN, URL_PATH_TOKEN})
WILDCARD_KINDS = PAGE_WILDCARD_KINDS | URL_KINDS
ALL_KINDS = BOOLEAN_KINDS | FREQUENCY_KINDS | WILDCARD_KINDS

FeatureValueMap = dict[str, float]

# Term tokens are delimited by Unicode whitespace and by zero-width
# characters: a zero-width split inside a term therefore yields two fragment
# terms rather than one token containing the invisible character.
_TERM_SPLIT = re.compile(r"[^\s\u200b\u200c\u200d\ufeff]+")


class UrlError(ValueError):
    """URL is not a parseable absolute URL."""


@dataclass(frozen=True)
class Feature:
    """A feature kind plus its payload for wildcard kinds."""

    kind: str
    payload: str | None = None

    def __post_init__(self):
        if self.kind in WILDCARD_KINDS:
            if not self.payload:
                raise ValueError(f"{self.kind} requires a payload")
        elif self.payload is not None:
            raise ValueError(f"{self.kind} takes no payload")

    @property
    def canonical(self) -> str:
        if self.payload is None:
            return self.kind
        return f"{self.kind}={self.payload}"

    @classmethod
    def parse(cls, canonical: str) -> Feature | None:
        """Parse a canonical string; None when it is not a known feature."""
        if canonical in BOOLEAN_KINDS or canonical in FREQUENCY_KINDS:
            return cls(canonical)
        kind, sep, payload = canonical.partition("=")
        if sep and payload and kind in WILDCARD_KINDS:
            return cls(kind, payload)
        return None


def feature_kind(canonical: str) -> str | None:
    """Kind of a canonical feature string, or None for unknown strings."""
    feature = Feature.parse(canonical)
    return feature.kind if feature else None


def terms_of(text: str) -> list[str]:
    return _TERM_SPLIT.findall(text)


def term_spans(text: str) -> list[tuple[str, int, int]]:
    """Term tokens with their (start, end) character offsets."""
    return [(m.group(), m.start(), m.end()) for m in _TERM_SPLIT.finditer(text)]


def hash_feature(canonical: str) -> str:
    """SHA-256 digest of a canonical feature string, lowercase hex."""
    if not canonical:
        raise ValueError("empty feature string")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def registrable_domain(url: str) -> str | None:
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    return split_host(host)[1] if host else None


def resolve_reference(ref: str, base_url: str,
                      base_domain: str | None) -> tuple[str | None, bool]:
    """Resolve an href, action or src against the page URL, once.

    Returns ``(domain, secure)``: ``domain`` is the reference's registrable
    domain when it differs from the page's ``base_domain`` (an external
    reference), else None; ``secure`` says the scheme is https.  References
    without a host (mailto:, javascript:, ...), references on a page with no
    domain, and references that do not parse are internal; the last are
    also not secure.
    """
    try:
        parts = urlsplit(urljoin(base_url, ref))
    except ValueError:
        return None, False
    host = parts.hostname
    domain = split_host(host)[1] if host else None
    if base_domain is None or domain == base_domain:
        domain = None
    return domain, parts.scheme == "https"


# Frequency kind -> its PageCounts numerator and denominator, in the order
# extraction emits them.
FREQUENCY_TALLIES = {
    PAGE_EXTERNAL_LINKS_FREQ: ("external_links", "links"),
    PAGE_SECURE_LINKS_FREQ: ("secure_links", "links"),
    PAGE_ACTION_OTHER_DOMAIN_FREQ: ("other_actions", "actions"),
    PAGE_IMG_OTHER_DOMAIN_FREQ: ("other_imgs", "imgs"),
}


@dataclass(slots=True)
class PageCounts:
    """One page's element tally: the numerators and denominators of the
    frequency features, and the script count."""

    links: int = 0
    external_links: int = 0
    secure_links: int = 0
    actions: int = 0
    other_actions: int = 0
    imgs: int = 0
    other_imgs: int = 0
    scripts: int = 0

    def fraction(self, kind: str) -> tuple[int, int]:
        """``(numerator, denominator)`` of a frequency feature kind."""
        num, den = FREQUENCY_TALLIES[kind]
        return getattr(self, num), getattr(self, den)


_INPUT_FEATURES = {
    "text": PAGE_HAS_TEXT_INPUTS,
    "password": PAGE_HAS_PSWD_INPUTS,
    "radio": PAGE_HAS_RADIO_INPUTS,
    "checkbox": PAGE_HAS_CHECK_INPUTS,
}


def _element_walk(tree: DomTree) -> tuple[FeatureValueMap, PageCounts]:
    """The element features and the element tally, in one walk.

    ``<a href>`` counts as a link, ``<form action>`` as an action, every
    ``<img>`` as an image; external references are counted in their
    numerators, an external link also yields ``PageLinkDomain``.
    """
    fmap: FeatureValueMap = {}
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
                    fmap[f"{PAGE_LINK_DOMAIN}={domain}"] = 1.0
        elif tag == "form":
            fmap[PAGE_HAS_FORMS] = 1.0
            action = el.attrs.get("action")
            if action is None:
                continue
            if action:
                fmap[f"{PAGE_ACTION_URL}={action}"] = 1.0
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


def page_counts(tree: DomTree) -> PageCounts:
    """The element tally of a page (see :class:`PageCounts`)."""
    return _element_walk(tree)[1]


def extract_page_features(tree: DomTree) -> FeatureValueMap:
    """Extract the page-level feature map.

    Boolean features appear with value 1 only when true; frequency features
    appear only when their numerator is non-zero; wildcard features appear
    with value 1 per distinct payload.  Term extraction sees the raw text,
    zero-width characters are token delimiters, not stripped.
    """
    fmap, counts = _element_walk(tree)
    if counts.scripts > 1:
        fmap[PAGE_NUM_SCRIPTS_GT1] = 1.0
    if counts.scripts > 6:
        fmap[PAGE_NUM_SCRIPTS_GT6] = 1.0
    for kind in FREQUENCY_TALLIES:
        num, den = counts.fraction(kind)
        if num:
            fmap[kind] = num / den
    for _, node in walk_text_nodes(tree):
        for term in terms_of(node.value):
            fmap[f"{PAGE_TERM}={term}"] = 1.0
    return fmap


def extract_url_features(url: str) -> set[Feature]:
    """Tokenize an absolute URL into its URL features."""
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise UrlError(str(exc)) from exc
    if not parts.scheme or not parts.hostname:
        raise UrlError(f"not an absolute URL: {url!r}")
    suffix, registrable, other_labels = split_host(parts.hostname)
    features: set[Feature] = set()
    if suffix:
        features.add(Feature(URL_TLD, suffix))
    features.add(Feature(URL_DOMAIN, registrable))
    for label in other_labels:
        features.add(Feature(URL_OTHER_HOST_TOKEN, label))
    for segment in parts.path.split("/"):
        if segment:
            features.add(Feature(URL_PATH_TOKEN, segment))
    return features


def extract_all_features(tree: DomTree) -> FeatureValueMap:
    """Page features plus the URL features of the page's own URL."""
    fmap = extract_page_features(tree)
    if tree.source_url:
        for feature in extract_url_features(tree.source_url):
            fmap[feature.canonical] = 1.0
    return fmap
