"""Recovering hashed feature names by hashing corpus-derived candidates.

A hashed model only stores SHA-256 digests of its feature strings.  Every
feature string that real pages and URLs can produce is enumerable, so running
the extractors over a corpus yields candidate strings whose digests can be
matched against the model's manifest.  Recovery is complete for every
manifest digest whose preimage occurs in the corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .classifier import HEX64, Classifier, HashFormatError, SchemaError, clip, decode_json
from .dom import DomTree, ParseError, load_page
from .features import Feature, UrlError, extract_page_features, extract_url_features, hash_feature

PHISH = "phish"
LEGIT = "legit"


@dataclass
class CorpusPage:
    """A labelled page; its URL features are extracted once, here, so a URL
    that is not absolute raises :class:`UrlError`."""

    url: str
    tree: DomTree
    label: str
    url_features: set[Feature] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_label(self.label)
        self.url_features = extract_url_features(self.url)


def _check_label(label) -> None:
    """Raise :class:`SchemaError` unless ``label`` is a corpus label."""
    if label not in (PHISH, LEGIT):
        raise SchemaError(f"bad corpus label {clip(repr(label))}")


@dataclass
class Corpus:
    """Pages and bare URLs.  ``url_features[i]`` holds the URL features of
    ``url_list[i]``, extracted once; add a URL with :meth:`add_url`."""

    pages: list[CorpusPage] = field(default_factory=list)
    url_list: list[str] = field(default_factory=list)
    url_features: list[set[Feature]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.url_features = [extract_url_features(url) for url in self.url_list]

    def add_url(self, url: str) -> None:
        """Append a bare URL; one that is not absolute raises
        :class:`UrlError` and is not added."""
        self.url_features.append(extract_url_features(url))
        self.url_list.append(url)


@dataclass
class InversionReport:
    recovered: dict[str, str]          # digest -> canonical string
    unrecovered: set[str]
    candidates_tried: int
    elapsed: float


def load_corpus(manifest_path) -> Corpus:
    """Read a JSON-lines corpus manifest.

    Each record is ``{"url": ..., "path": ..., "label": "phish"|"legit"}``;
    records without a ``path`` contribute a bare URL only, and a record
    without a ``label`` is legit.  Paths are resolved relative to the
    manifest file.  A record that is not an object with a string ``url``
    (and a string ``path``, when given) raises :class:`SchemaError`, as does
    one whose ``label`` is not a corpus label, with or without a ``path``;
    one whose ``url`` is not an absolute URL raises :class:`UrlError`, and
    one whose page does not decode or parse raises ``dom.ParseError``.  The
    last three name the manifest's ``path:line``.  A record's label is checked
    before its page is read, and every error is raised before any later
    page is read.  Each record's URL features are extracted once, when the
    record is added, and kept with it.
    """
    import os

    base = os.path.dirname(os.path.abspath(manifest_path))
    corpus = Corpus()
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = decode_json(line, "corpus record")
            if not isinstance(record, dict) or not isinstance(record.get("url"), str) \
                    or not isinstance(record.get("path", ""), str):
                raise SchemaError(f"corpus record {clip(repr(line))} needs a string "
                                  "'url' and no non-string 'path'")
            url, path, label = record["url"], record.get("path"), record.get("label", LEGIT)
            try:
                _check_label(label)
                if path:
                    full = path if os.path.isabs(path) else os.path.join(base, path)
                    corpus.pages.append(CorpusPage(url, load_page(full, url), label))
                else:
                    corpus.add_url(url)
            except (ParseError, SchemaError, UrlError) as exc:
                raise type(exc)(f"{manifest_path}:{lineno}: {exc}") from exc
    return corpus


def harvest_candidates(corpus: Corpus) -> set[str]:
    """All canonical feature strings the corpus can produce."""
    candidates: set[str] = set()
    for page in corpus.pages:
        candidates.update(extract_page_features(page.tree).keys())
    for features in [page.url_features for page in corpus.pages] + corpus.url_features:
        candidates.update(f.canonical for f in features)
    return candidates


def check_manifest(manifest) -> set[str]:
    digests = set()
    for digest in manifest:
        if not HEX64.match(digest):
            raise HashFormatError(f"not a 64-hex digest: {digest!r}")
        digests.add(digest)
    return digests


def load_manifest(path) -> set[str]:
    """Read a digest manifest: one 64-hex digest per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    return check_manifest(line for line in lines if line)


def invert_hashes(candidates, manifest) -> InversionReport:
    """Match candidate strings against a digest manifest.

    Deterministic: the recovered map depends only on the candidate and
    manifest sets.  Candidate hashing is a pure map, so chunked parallel
    hashing would merge to the same report; at this scale one pass is used.
    """
    targets = check_manifest(manifest)
    started = time.perf_counter()
    recovered: dict[str, str] = {}
    tried = 0
    for candidate in sorted(set(candidates)):
        tried += 1
        digest = hash_feature(candidate)
        if digest in targets:
            recovered[digest] = candidate
    elapsed = time.perf_counter() - started
    return InversionReport(
        recovered=recovered,
        unrecovered=targets - recovered.keys(),
        candidates_tried=tried,
        elapsed=elapsed,
    )


FULLY_INFERRED = "fully_inferred"
PARTIALLY_INFERRED = "partially_inferred"
OPAQUE = "opaque"


def infer_rules(classifier: Classifier, recovered: dict[str, str]) -> dict[str, set[str]]:
    """Partition a hashed classifier's rules by digest coverage.

    Fully inferred rules (every digest recovered) can be deleted and added;
    partially inferred rules can only be deleted; opaque rules cannot be
    targeted at all.
    """
    if not classifier.hashed:
        raise ValueError("rule inference applies to hashed classifiers")
    out = {FULLY_INFERRED: set(), PARTIALLY_INFERRED: set(), OPAQUE: set()}
    for rule in classifier.rules:
        known = sum(1 for digest in rule.features if digest in recovered)
        if known == len(rule.features):
            out[FULLY_INFERRED].add(rule.id)
        elif known:
            out[PARTIALLY_INFERRED].add(rule.id)
        else:
            out[OPAQUE].add(rule.id)
    return out


def report_to_dict(report: InversionReport, include_timing: bool = False) -> dict:
    return {
        "recovered": dict(sorted(report.recovered.items())),
        "unrecovered": sorted(report.unrecovered),
        "candidates_tried": report.candidates_tried,
        "elapsed_ms": round(report.elapsed * 1000.0, 3) if include_timing else None,
    }
