import json
from unittest import mock

import pytest

from phishevade.classifier import HashFormatError, SchemaError
from phishevade.collision import (
    Corpus,
    CorpusPage,
    harvest_candidates,
    infer_rules,
    invert_hashes,
    load_corpus,
    load_manifest,
)
from phishevade.features import (
    UrlError,
    extract_page_features,
    extract_url_features,
    hash_feature,
)

from conftest import LEGIT_URLS, PAYPAL_URL, build_page, fixture_path, make_classifier, rule


def small_corpus(paypal_page, legit_pages) -> Corpus:
    pages = [CorpusPage(PAYPAL_URL, paypal_page, "phish")]
    for url, tree in zip(sorted(LEGIT_URLS.values()), legit_pages):
        pages.append(CorpusPage(tree.source_url or url, tree, "legit"))
    return Corpus(pages=pages, url_list=["http://promo.linkfarm.test/win/big"])


def test_harvest_includes_page_terms():
    page = build_page(terms=["login now"])
    corpus = Corpus(pages=[CorpusPage("http://seed.test/p", page, "phish")])
    candidates = harvest_candidates(corpus)
    assert "PageTerm=login" in candidates
    assert "UrlDomain=seed.test" in candidates


def test_harvest_empty_corpus():
    assert harvest_candidates(Corpus()) == set()


def test_harvest_equals_reextraction_union(paypal_page, legit_pages):
    corpus = small_corpus(paypal_page, legit_pages)
    expected = set()
    for page in corpus.pages:
        expected |= set(extract_page_features(page.tree))
        expected |= {f.canonical for f in extract_url_features(page.url)}
    for url in corpus.url_list:
        expected |= {f.canonical for f in extract_url_features(url)}
    assert harvest_candidates(corpus) == expected


def test_invert_recovers_known_feature():
    manifest = {hash_feature("PageTerm=login")}
    report = invert_hashes({"PageTerm=login", "PageTerm=other"}, manifest)
    assert report.recovered == {hash_feature("PageTerm=login"): "PageTerm=login"}
    assert report.unrecovered == set()
    assert report.candidates_tried == 2


def test_invert_disjoint_manifest():
    manifest = {hash_feature("PageTerm=never-on-page")}
    report = invert_hashes({"PageTerm=login"}, manifest)
    assert report.recovered == {}
    assert report.unrecovered == manifest


def test_invert_duplicate_manifest_entries_are_a_set():
    digest = hash_feature("PageHasForms")
    report = invert_hashes({"PageHasForms"}, [digest, digest, digest])
    assert report.recovered == {digest: "PageHasForms"}
    assert report.unrecovered == set()


def test_invert_rejects_malformed_hex():
    with pytest.raises(HashFormatError):
        invert_hashes({"PageHasForms"}, {"zz" * 32})
    with pytest.raises(HashFormatError):
        invert_hashes({"PageHasForms"}, {"abc123"})


def test_invert_soundness_and_determinism(paypal_page, legit_pages):
    corpus = small_corpus(paypal_page, legit_pages)
    candidates = harvest_candidates(corpus)
    manifest = {hash_feature(c) for c in sorted(candidates)[:40]}
    manifest.add(hash_feature("PageTerm=not-in-any-fixture"))
    first = invert_hashes(candidates, manifest)
    second = invert_hashes(candidates, manifest)
    assert first.recovered == second.recovered
    assert first.unrecovered == second.unrecovered == {
        hash_feature("PageTerm=not-in-any-fixture")}
    for digest, preimage in first.recovered.items():
        assert hash_feature(preimage) == digest


def test_conditional_completeness(paypal_page, legit_pages):
    # every manifest digest whose preimage occurs in the corpus is recovered
    corpus = small_corpus(paypal_page, legit_pages)
    candidates = harvest_candidates(corpus)
    manifest = {hash_feature(c) for c in candidates}
    report = invert_hashes(candidates, manifest)
    assert report.unrecovered == set()
    assert len(report.recovered) == len(candidates)


def test_infer_rules_partition():
    d = {name: hash_feature(name) for name in
         ["PageTerm=a", "PageTerm=b", "PageTerm=c", "PageTerm=d"]}
    clf = make_classifier([
        rule("full", {d["PageTerm=a"], d["PageTerm=b"]}, 1.0),
        rule("partial", {d["PageTerm=b"], d["PageTerm=c"]}, 1.0),
        rule("dark", {d["PageTerm=d"]}, 1.0),
    ], hashed=True)
    recovered = {d["PageTerm=a"]: "PageTerm=a", d["PageTerm=b"]: "PageTerm=b"}
    parts = infer_rules(clf, recovered)
    assert parts["fully_inferred"] == {"full"}
    assert parts["partially_inferred"] == {"partial"}
    assert parts["opaque"] == {"dark"}

    all_known = dict(recovered)
    all_known[d["PageTerm=c"]] = "PageTerm=c"
    all_known[d["PageTerm=d"]] = "PageTerm=d"
    parts = infer_rules(clf, all_known)
    assert parts["fully_inferred"] == {"full", "partial", "dark"}

    parts = infer_rules(clf, {})
    assert parts["opaque"] == {"full", "partial", "dark"}


def test_manifest_file_round_trip(tmp_path):
    digests = {hash_feature(f"PageTerm=w{i}") for i in range(5)}
    path = tmp_path / "manifest.txt"
    path.write_text("".join(f"{digest}\n" for digest in sorted(digests)))
    assert load_manifest(path) == digests


def test_corpus_manifest_loading(tmp_path):
    manifest = tmp_path / "corpus.jsonl"
    records = [
        {"url": PAYPAL_URL, "path": fixture_path("login_paypal.html"),
         "label": "phish"},
        {"url": "http://promo.linkfarm.test/win", "label": "phish"},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    corpus = load_corpus(manifest)
    assert len(corpus.pages) == 1 and corpus.pages[0].label == "phish"
    assert corpus.url_list == ["http://promo.linkfarm.test/win"]


def test_a_record_whose_url_is_not_absolute_fails_before_any_page_is_read(tmp_path):
    manifest = tmp_path / "corpus.jsonl"
    records = [
        {"url": "http://./x", "label": "phish"},
        {"url": PAYPAL_URL, "path": fixture_path("login_paypal.html"),
         "label": "phish"},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with mock.patch("phishevade.collision.load_page") as load, \
            pytest.raises(UrlError) as raised:
        load_corpus(manifest)
    assert str(raised.value) == f"{manifest}:1: not an absolute URL: 'http://./x'"
    load.assert_not_called()


@pytest.mark.parametrize("record", [
    {"url": "http://a.test/", "path": "missing.html", "label": "bogus"},
    {"url": "http://a.test/", "label": "bogus"},
    {"url": "http://a.test/", "path": fixture_path("login_paypal.html"), "label": "bogus"},
], ids=["missing-page", "url-only", "page"])
def test_a_bad_label_fails_at_its_line_before_its_page_is_read(tmp_path, record):
    manifest = tmp_path / "corpus.jsonl"
    records = [{"url": PAYPAL_URL, "label": "phish"}, record]
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with mock.patch("phishevade.collision.load_page") as load, \
            pytest.raises(SchemaError) as raised:
        load_corpus(manifest)
    assert str(raised.value) == f"{manifest}:2: bad corpus label 'bogus'"
    load.assert_not_called()
