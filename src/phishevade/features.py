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


def _host_of(url: str) -> str | None:
    try:
        return urlsplit(url).hostname
    except ValueError:
        return None


def registrable_domain(url: str) -> str | None:
    host = _host_of(url)
    if not host:
        return None
    return split_host(host)[1]


def is_external(href: str, base_url: str) -> bool:
    """True when the resolved link's registrable domain differs from the
    page's.  Links without a host (mailto:, javascript:, ...) are internal."""
    base_domain = registrable_domain(base_url)
    target = registrable_domain(urljoin(base_url, href))
    if target is None or base_domain is None:
        return False
    return target != base_domain


def _is_secure(href: str, base_url: str) -> bool:
    try:
        return urlsplit(urljoin(base_url, href)).scheme == "https"
    except ValueError:
        return False


def link_counts(tree: DomTree) -> tuple[int, int, int]:
    """(total, external, secure) over ``href`` attributes of ``a`` elements."""
    total = external = secure = 0
    for _, el in walk_elements(tree):
        if el.tag != "a":
            continue
        href = el.get_attr("href")
        if href is None:
            continue
        total += 1
        if is_external(href, tree.source_url):
            external += 1
        if _is_secure(href, tree.source_url):
            secure += 1
    return total, external, secure


def action_counts(tree: DomTree) -> tuple[int, int]:
    """(total, other_domain) over ``action`` attributes of ``form`` elements."""
    total = other = 0
    for _, el in walk_elements(tree):
        if el.tag != "form":
            continue
        action = el.get_attr("action")
        if action is None:
            continue
        total += 1
        if is_external(action, tree.source_url):
            other += 1
    return total, other


def img_counts(tree: DomTree) -> tuple[int, int]:
    """(total img elements, imgs whose src domain is external)."""
    total = other = 0
    for _, el in walk_elements(tree):
        if el.tag != "img":
            continue
        total += 1
        src = el.get_attr("src")
        if src is not None and is_external(src, tree.source_url):
            other += 1
    return total, other


def extract_page_features(tree: DomTree) -> FeatureValueMap:
    """Extract the page-level feature map.

    Boolean features appear with value 1 only when true; frequency features
    appear only when their denominator is non-zero; wildcard features appear
    with value 1 per distinct payload.  Term extraction sees the raw text,
    zero-width characters are token delimiters, not stripped.
    """
    fmap: FeatureValueMap = {}
    script_count = 0
    for _, el in walk_elements(tree):
        tag = el.tag
        if tag == "form":
            fmap[PAGE_HAS_FORMS] = 1.0
            action = el.get_attr("action")
            if action:
                fmap[f"{PAGE_ACTION_URL}={action}"] = 1.0
        elif tag == "input":
            kind = (el.get_attr("type") or "").lower()
            if kind == "text":
                fmap[PAGE_HAS_TEXT_INPUTS] = 1.0
            elif kind == "password":
                fmap[PAGE_HAS_PSWD_INPUTS] = 1.0
            elif kind == "radio":
                fmap[PAGE_HAS_RADIO_INPUTS] = 1.0
            elif kind == "checkbox":
                fmap[PAGE_HAS_CHECK_INPUTS] = 1.0
        elif tag == "a":
            href = el.get_attr("href")
            if href and is_external(href, tree.source_url):
                domain = registrable_domain(urljoin(tree.source_url, href))
                if domain:
                    fmap[f"{PAGE_LINK_DOMAIN}={domain}"] = 1.0
        elif tag == "script":
            script_count += 1

    if script_count > 1:
        fmap[PAGE_NUM_SCRIPTS_GT1] = 1.0
    if script_count > 6:
        fmap[PAGE_NUM_SCRIPTS_GT6] = 1.0

    total_links, external_links, secure_links = link_counts(tree)
    if total_links:
        if external_links:
            fmap[PAGE_EXTERNAL_LINKS_FREQ] = external_links / total_links
        if secure_links:
            fmap[PAGE_SECURE_LINKS_FREQ] = secure_links / total_links
    total_actions, other_actions = action_counts(tree)
    if total_actions and other_actions:
        fmap[PAGE_ACTION_OTHER_DOMAIN_FREQ] = other_actions / total_actions
    total_imgs, other_imgs = img_counts(tree)
    if total_imgs and other_imgs:
        fmap[PAGE_IMG_OTHER_DOMAIN_FREQ] = other_imgs / total_imgs

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
