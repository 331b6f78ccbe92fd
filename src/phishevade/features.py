"""Feature extraction from pages and URLs.

Features are identified by canonical strings: a bare kind name for boolean
and frequency features (``PageHasForms``, ``PageSecureLinksFreq``, ...) and
``Kind=payload`` for wildcard kinds (``PageTerm=login``, ``UrlTld=com``, ...).
A page's feature map holds canonical string -> value; absent features are 0.

Page features are a fold of per-node contributions.  An element contributes
a multiset of features (``PageHasForms``, the input kinds,
``PageActionURL=...``, ``PageLinkDomain=...``) and a :class:`PageCounts`
increment; a text node that ``walk_text_nodes`` yields (so not one inside
script or style) contributes its terms as a multiset of ``PageTerm=...``.
Which element carries a feature is said here once: ``FREQUENCIES`` gives
each frequency kind its counts and its element (tag, attribute),
``INPUT_TYPES`` each input kind its input type, and ``SCRIPT_FLAGS`` each
script flag the script count it must exceed.  A :class:`PageTally` is
that fold plus the URL features, which are fixed because URLs are never
mutated.  ``PageTally.value`` defines the value of every page feature: 1
for a feature counted at least once, the script flags and the frequency
ratios from the folded counts.  ``extract_page_features`` and
``extract_all_features`` fold a whole page; because each contribution is
local, an edit to one node updates a tally by removing the node's old
contribution and adding its new one, which is how ``mutation.MutationPlan``
carries a page's tally along with its tree and undoes an edit in both.  A
zero-width split of a text node is more local still: ``split_text`` trades
one count of the term that spans the split for one count of each fragment,
without tokenizing the node again.  Every edit appends to the tally's
``journal`` the features whose value it may have changed: those whose
presence it flipped and the count features of the elements it added or
removed.  Nothing clears the journal: each reader that tracks the tally
(``classifier.TallyHits``) keeps its own position in it and, on a read,
re-reads the value of only the features past that position, so any number
of readers can follow one working page.

Where an href, action or src points is :meth:`PageTally.resolve`: the tally
splits the page URL once, splits each reference once against that split,
and memoizes host -> registrable domain for as long as it lives, so each
distinct host is split once per page.  No reference is joined into a URL;
joining with the standard library's URL join and splitting the result is
the definition the tests hold ``resolve`` to.  A host is usable when
``split_usable_host`` says so, for URL features and references alike: a
host that normalizes to nothing or holds an empty label gives no URL
features, and a reference to it is internal and not secure.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from .dom import DomNode, DomTree, walk_elements, walk_text_nodes
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


def find_term(text: str, term: str) -> int:
    """Offset of the first token of ``text`` equal to ``term``, or -1; an
    empty term, or one that holds a delimiter, is no token.

    One ``str.find`` pass: a hit is a token when no term character touches
    it on either side.  (A regex per term would not do: the distinct terms
    of an attack overflow the ``re`` module's pattern cache.)"""
    if not _TERM_SPLIT.fullmatch(term):
        return -1
    end, match = len(term), _TERM_SPLIT.match
    i = text.find(term)
    while i >= 0:
        if not (i and match(text, i - 1, i)) and not match(text, i + end, i + end + 1):
            return i
        i = text.find(term, i + 1)
    return -1


def hash_feature(canonical: str) -> str:
    """SHA-256 digest of a canonical feature string, lowercase hex."""
    if not canonical:
        raise ValueError("empty feature string")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Frequency(NamedTuple):
    """A frequency kind's :class:`PageCounts` numerator and denominator, and
    the element (tag, attribute) whose reference it counts."""

    numerator: str
    denominator: str
    tag: str
    attr: str


FREQUENCIES = {
    PAGE_EXTERNAL_LINKS_FREQ: Frequency("external_links", "links", "a", "href"),
    PAGE_SECURE_LINKS_FREQ: Frequency("secure_links", "links", "a", "href"),
    PAGE_ACTION_OTHER_DOMAIN_FREQ: Frequency("other_actions", "actions", "form", "action"),
    PAGE_IMG_OTHER_DOMAIN_FREQ: Frequency("other_imgs", "imgs", "img", "src"),
}

# Script flag -> the script count it must exceed.
SCRIPT_FLAGS = {PAGE_NUM_SCRIPTS_GT1: 1, PAGE_NUM_SCRIPTS_GT6: 6}

# The features read from a tally's counts, in feature map order.
_COUNT_FEATURES = (*SCRIPT_FLAGS, *FREQUENCIES)

# Tag -> the count features that adding or removing one of its elements
# moves (a link only with an href, a form only with an action).
_COUNTS_MOVED = {tag: tuple(kind for kind, f in FREQUENCIES.items() if f.tag == tag)
                 for tag in dict.fromkeys(f.tag for f in FREQUENCIES.values())}
_COUNTS_MOVED["script"] = tuple(SCRIPT_FLAGS)


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
        frequency = FREQUENCIES[kind]
        return getattr(self, frequency.numerator), getattr(self, frequency.denominator)


_INPUT_FEATURES = {
    "text": PAGE_HAS_TEXT_INPUTS,
    "password": PAGE_HAS_PSWD_INPUTS,
    "radio": PAGE_HAS_RADIO_INPUTS,
    "checkbox": PAGE_HAS_CHECK_INPUTS,
}
# Input feature kind -> the input type that carries it.
INPUT_TYPES = {kind: input_type for input_type, kind in _INPUT_FEATURES.items()}

_TERM_PREFIX = PAGE_TERM + "="

# The tags whose elements contribute; every other element contributes
# nothing.
_CONTRIBUTING_TAGS = frozenset({"a", "form", "img", "input", "script"})


def split_usable_host(host: str | None) -> tuple[str, str, list[str]] | None:
    """``split_host`` of ``host``, or None when there is no host or it is
    not usable: it normalizes to nothing (dots or spaces) or holds an
    empty label."""
    if not host:
        return None
    split = split_host(host)
    _, registrable, other_labels = split
    return split if all(registrable.split(".") + other_labels) else None


class _Domains(dict):
    """Host -> its registrable domain, None for a host that is not usable;
    each host is split once."""

    def __missing__(self, host: str | None) -> str | None:
        split = split_usable_host(host)
        domain = self[host] = None if split is None else split[1]
        return domain


class PageTally:
    """The fold of a page's node contributions: ``features`` counts the
    features the nodes contribute (only positive counts are kept),
    ``counts`` is the folded :class:`PageCounts`, and the URL features of
    ``url`` complete :meth:`fmap`.  Start with an empty tally for the page's
    URL and fold the page into it with :func:`extract_page_features`.
    ``base`` is the split of ``url`` (None when it does not parse) that
    :meth:`resolve` reads references against.  :meth:`value` is the one
    definition of a page feature's value.

    ``journal`` lists, in order and append only, every feature whose value
    an edit may have changed: each feature whose presence in ``features``
    it flipped, and the count features of each element it added or
    removed (both link ratios for a link, the action ratio for a form with
    an action, the image ratio for an image, both script flags for a
    script).  A reader that tracks the tally keeps its own position in it.
    The whole-page fold of the terms does not record them."""

    __slots__ = ("url", "base", "base_domain", "features", "counts",
                 "journal", "_domains", "_joined_secure", "_url_fmap")

    def __init__(self, url: str):
        self.url = url
        self._domains = _Domains()
        try:
            self.base = urlsplit(url)
        except ValueError:
            self.base = None
        host = self.base.hostname if self.base else None
        self.base_domain = self._domains[host]
        # whether a reference that joins onto the page's host is secure: on
        # an https page whose host, if it has one, is usable
        self._joined_secure = self.base is not None and self.base.scheme == "https" \
            and (self.base_domain is not None or not host)
        self.features: Counter[str] = Counter()
        self.counts = PageCounts()
        self.journal: list[str] = []
        self._url_fmap: FeatureValueMap | None = None

    def resolve(self, ref: str) -> tuple[str | None, bool]:
        """Where an href, action or src on the page points.

        Returns ``(domain, secure)``: ``domain`` is the reference's
        registrable domain when it differs from the page's ``base_domain``
        (an external reference), else None; ``secure`` says the scheme is
        https.  References without a host (mailto:, javascript:, ...),
        references on a page with no domain, references whose host is not
        usable (``split_usable_host``) and references that do not parse
        are internal; the last two are also not secure, and on a page whose
        URL does not parse every reference is one.

        Only the scheme and the host of the joined URL count, so the
        reference is split once, with the page's scheme as its default, and
        never joined.  A reference that names a host keeps it.  One that
        names no netloc and keeps the page's scheme joins onto the page's
        host: internal, and not secure when that host is not usable.  Any
        other one names no host and is internal.  (The join also needs a
        scheme that takes relative references; https does, and on any
        other scheme the reference is internal and not secure either way.)
        An empty reference, and any reference on a page with an empty URL,
        fall under the same rules.
        """
        base = self.base
        if base is None:
            return None, False
        try:
            parts = urlsplit(ref, base.scheme)
        except ValueError:
            return None, False
        if not parts.netloc and parts.scheme == base.scheme:
            return None, self._joined_secure    # joined onto the page's host
        secure = parts.scheme == "https"
        host = parts.hostname
        domain = self._domains[host]
        if domain is None:      # no host, or one that is not usable
            return None, secure and not host
        if self.base_domain is None or domain == self.base_domain:
            return None, secure
        return domain, secure

    def _count(self, feature: str, sign: int) -> None:
        n = self.features[feature] + sign
        if n:
            self.features[feature] = n
        else:
            del self.features[feature]
        if not n or n == sign:      # absent after the edit, or before it
            self.journal.append(feature)

    def add_element(self, el: DomNode, sign: int = 1) -> None:
        """Add (``sign`` 1) or remove (``sign`` -1) the contribution of one
        element.

        ``<a href>`` counts as a link, ``<form action>`` as an action, every
        ``<img>`` as an image; external references are counted in their
        numerators, an external link also contributes ``PageLinkDomain``.
        Every form contributes ``PageHasForms``, a non-empty action
        ``PageActionURL``, an input of a known type its input kind.  The
        journal records the count features the element moves.
        """
        tag = el.tag
        counts = self.counts
        if tag == "a":
            href = el.attrs.get("href")
            if href is None:
                return
            domain, secure = self.resolve(href)
            counts.links += sign
            if secure:
                counts.secure_links += sign
            if domain is not None:
                counts.external_links += sign
                self._count(f"{PAGE_LINK_DOMAIN}={domain}", sign)
        elif tag == "form":
            self._count(PAGE_HAS_FORMS, sign)
            action = el.attrs.get("action")
            if action is None:
                return
            if action:
                self._count(f"{PAGE_ACTION_URL}={action}", sign)
            counts.actions += sign
            if self.resolve(action)[0] is not None:
                counts.other_actions += sign
        elif tag == "img":
            counts.imgs += sign
            src = el.attrs.get("src")
            if src is not None and self.resolve(src)[0] is not None:
                counts.other_imgs += sign
        elif tag == "input":
            feature = _INPUT_FEATURES.get((el.attrs.get("type") or "").lower())
            if feature:
                self._count(feature, sign)
        elif tag == "script":
            counts.scripts += sign
        self.journal.extend(_COUNTS_MOVED.get(tag, ()))

    def add_text(self, text: str, sign: int = 1) -> None:
        """Add or remove the terms of one counted text node.  Term
        extraction sees the raw text: zero-width characters are token
        delimiters, not stripped."""
        for term in terms_of(text):
            self._count(_TERM_PREFIX + term, sign)

    def split_text(self, text: str, offset: int, sign: int = 1) -> None:
        """Count (``sign`` 1) or uncount (``sign`` -1) a delimiter inserted
        into the counted text ``text`` at ``offset``: the term that spans
        the offset gives way to its two fragments.  At a term boundary, or
        inside a run of delimiters, no term changes."""
        tail = _TERM_SPLIT.match(text, offset)
        # the term's head, read backwards from the offset
        head = _TERM_SPLIT.match(text[offset - 1::-1]) if tail and offset else None
        if head is None:
            return
        cut = head.end()
        term = text[offset - cut:tail.end()]
        self._count(_TERM_PREFIX + term, -sign)
        self._count(_TERM_PREFIX + term[:cut], sign)
        self._count(_TERM_PREFIX + term[cut:], sign)

    def value(self, name: str) -> float:
        """The value of page feature ``name`` on the page: a frequency
        ratio from ``counts`` (0 while its numerator is 0), a script flag 1
        when ``counts`` has more scripts than it names, and any other
        feature 1 when it is counted, else 0."""
        if name in FREQUENCIES:
            n, d = self.counts.fraction(name)
            return n / d if n else 0.0
        if name in SCRIPT_FLAGS:
            return float(self.counts.scripts > SCRIPT_FLAGS[name])
        return 1.0 if name in self.features else 0.0

    def page_fmap(self) -> FeatureValueMap:
        """The page feature map: each page feature whose :meth:`value` is
        not 0."""
        fmap = dict.fromkeys(self.features, 1.0)
        for name in _COUNT_FEATURES:
            value = self.value(name)
            if value:
                fmap[name] = value
        return fmap

    def fmap(self) -> FeatureValueMap:
        """Page features plus the URL features of the page's own URL."""
        if self._url_fmap is None:
            features = extract_url_features(self.url) if self.url else ()
            self._url_fmap = {f.canonical: 1.0 for f in features}
        fmap = self.page_fmap()
        fmap.update(self._url_fmap)
        return fmap


def extract_page_features(tree: DomTree,
                          tally: PageTally | None = None) -> FeatureValueMap:
    """Extract the page-level feature map by folding every node of ``tree``.

    Boolean features appear with value 1 only when true; frequency features
    appear only when their numerator is non-zero; wildcard features appear
    with value 1 per distinct payload.  ``tally``, when given, is an empty
    ``PageTally(tree.source_url)`` that receives the fold, for a caller that
    goes on to keep it up to date while it edits the page.
    """
    if tally is None:
        tally = PageTally(tree.source_url)
    add_element = tally.add_element
    for _, el in walk_elements(tree):
        if el.tag in _CONTRIBUTING_TAGS:
            add_element(el)
    # whitespace delimits terms, so the joined text holds exactly the
    # terms of all counted text nodes, and one tokenizer call folds them
    text = " ".join([node.value for _, node in walk_text_nodes(tree)])
    tally.features.update(map(_TERM_PREFIX.__add__, terms_of(text)))
    return tally.page_fmap()


def extract_url_features(url: str) -> set[Feature]:
    """Tokenize an absolute URL into its URL features."""
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise UrlError(str(exc)) from exc
    split = split_usable_host(parts.hostname) if parts.scheme else None
    if split is None:
        raise UrlError(f"not an absolute URL: {url!r}")
    suffix, registrable, other_labels = split
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
    tally = PageTally(tree.source_url)
    extract_page_features(tree, tally)
    return tally.fmap()
