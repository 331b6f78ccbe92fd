import os

import pytest

from phishevade.classifier import ClassificationRule, Classifier
from phishevade.dom import DomTree, load_page, parse_html

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

PAYPAL_URL = "http://paypal.com.secure-login.test/signin"
BANK_URL = "http://firstbank.com.account-verify.test/login"
LEGIT_URLS = {
    "news_home.html": "https://dailyledger.test/",
    "shop_index.html": "https://gardensupply.test/shop",
    "blog_post.html": "https://fieldnotes.test/posts/soil-moisture",
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.fixture
def paypal_page() -> DomTree:
    return load_page(fixture_path("login_paypal.html"), PAYPAL_URL)


@pytest.fixture
def bank_page() -> DomTree:
    return load_page(fixture_path("login_bank.html"), BANK_URL)


@pytest.fixture
def legit_pages() -> list[DomTree]:
    return [load_page(fixture_path(name), url)
            for name, url in sorted(LEGIT_URLS.items())]


@pytest.fixture
def copied_trees(monkeypatch) -> list[DomTree]:
    """The trees ``DomTree.copy`` is called on, in call order."""
    calls = []
    copy = DomTree.copy

    def counting(self):
        calls.append(self)
        return copy(self)

    monkeypatch.setattr(DomTree, "copy", counting)
    return calls


def planned(planner, tree: DomTree, *args, **kwargs):
    """A ``MutationPlan`` over a copy of ``tree`` with the ops of one
    planner call pushed onto it."""
    from phishevade.mutation import MutationPlan
    plan = MutationPlan.on(tree)
    planner(plan, *args, **kwargs)
    return plan


def build_page_html(terms=(), secure_links=0, insecure_external_links=0,
                    internal_links=0, actions=(), input_types=(), imgs=(),
                    scripts=0, bare_form=False, filler=0, host="seed.test",
                    external_host="elsewhere.example.com") -> str:
    """Compose a page whose extracted features are fully controlled.

    ``secure_links`` are https on the external host, ``insecure_external``
    http on the external host, ``internal_links`` http on ``host``;
    ``filler`` adds that many neutral static elements.
    """
    parts = ["<html><head><title>fixture</title></head><body>"]
    for i in range(filler):
        parts.append(f"<div>filler{i:02d} body copy</div>")
    for term in terms:
        parts.append(f"<p>{term}</p>")
    for i in range(secure_links):
        parts.append(f'<a href="https://{external_host}/s{i}">s{i}</a>')
    for i in range(insecure_external_links):
        parts.append(f'<a href="http://{external_host}/x{i}">x{i}</a>')
    for i in range(internal_links):
        parts.append(f'<a href="http://{host}/i{i}">i{i}</a>')
    for action in actions:
        parts.append(f'<form action="{action}"></form>')
    if bare_form:
        parts.append("<form></form>")
    for t in input_types:
        parts.append(f'<input type="{t}">')
    for src in imgs:
        parts.append(f'<img src="{src}">')
    for i in range(scripts):
        parts.append(f"<script>run{i}();</script>")
    parts.append("</body></html>")
    return "".join(parts)


def build_page(url="http://seed.test/page", **kwargs) -> DomTree:
    host = kwargs.setdefault("host", "seed.test")
    assert host in url
    return parse_html(build_page_html(**kwargs), url)


def rule(rule_id: str, feats, weight: float) -> ClassificationRule:
    return ClassificationRule(rule_id, frozenset(feats), weight)


def make_classifier(rules, bias=0.0, threshold=0.5, hashed=False,
                    freq_detect_threshold=0.05) -> Classifier:
    return Classifier(bias, tuple(rules), threshold, hashed,
                      freq_detect_threshold)


def suite_model() -> Classifier:
    """20-rule attack-suite model: a spread of deletable and undeletable
    positive rules plus addable negative rules, including a subset pair
    (n2 over n7) and a zero-weight rule."""
    return make_classifier([
        rule("p01", {"PageTerm=signin"}, 0.9),
        rule("p02", {"PageHasPswdInputs"}, 1.1),
        rule("p03", {"PageTerm=verify", "PageTerm=account"}, 0.8),
        rule("p04", {"PageActionOtherDomainFreq"}, 1.0),
        rule("p05", {"PageLinkDomain=cdn-tracker.net"}, 0.7),
        rule("p06", {"PageSecureLinksFreq", "PageHasPswdInputs"}, 0.6),
        rule("p07", {"PageTerm=urgent"}, 1.2),
        rule("p08", {"PageExternalLinksFreq"}, 0.5),
        rule("p09", {"PageHasForms"}, 0.4),
        rule("p10", {"PageNumScriptTags>1"}, 0.3),
        rule("p11", {"UrlOtherHostToken=paypal"}, 0.8),
        rule("p12", {"PageHasForms", "PageTerm=login"}, 0.7),
        rule("p13", {"PageTerm=confirm"}, 0.6),
        rule("n01", {"PageTerm=privacy"}, -0.8),
        rule("n02", {"PageTerm=contact", "PageTerm=help"}, -0.6),
        rule("n03", {"PageHasCheckInputs"}, -0.5),
        rule("n04", {"PageImgOtherDomainFreq"}, -0.4),
        rule("n05", {"PageTerm=copyright"}, -0.3),
        rule("n07", {"PageTerm=contact"}, -0.2),
        rule("z01", {"PageTerm=zero"}, 0.0),
    ], bias=-0.5)


def single_rule_model() -> Classifier:
    """Criterion-10 model: five deletable and three addable rules whose
    features appear in no other rule, plus two rules sharing features."""
    return make_classifier([
        rule("d1", {"PageTerm=sd1"}, 1.5), rule("d2", {"PageTerm=sd2"}, 1.5),
        rule("d3", {"PageTerm=sd3"}, 1.5), rule("d4", {"PageTerm=sd4"}, 1.5),
        rule("d5", {"PageTerm=sd5"}, 1.5),
        rule("a1", {"PageTerm=sa1"}, -1.2), rule("a2", {"PageTerm=sa2"}, -1.2),
        rule("a3", {"PageTerm=sa3"}, -1.2),
        rule("shared1", {"PageTerm=sh", "PageHasForms"}, 0.3),
        rule("shared2", {"PageHasForms"}, 0.2),
    ], bias=-0.4)


def single_rule_seeds() -> list[DomTree]:
    """Six criterion-10 seed pages hitting two to five deletable rules."""
    seeds = []
    for i in range(6):
        hit = [f"sd{j + 1}" for j in range(2 + (i % 4))]
        seeds.append(build_page(url=f"http://solo{i}.test/p",
                                host=f"solo{i}.test",
                                terms=hit + (["sh"] if i % 2 else []),
                                bare_form=bool(i % 2)))
    return seeds


# content presets hitting known rule subsets; raw scores computed against
# suite_model with bias -0.5
SEED_PRESETS = {
    "[0.5,0.6)": [
        dict(terms=["signin"]),                                   # x = 0.4
        dict(terms=["confirm"]),                                  # x = 0.1
        dict(bare_form=True, scripts=2),                          # x = 0.2
    ],
    "[0.6,0.7)": [
        dict(terms=["urgent"]),                                   # x = 0.7
        dict(insecure_external_links=1,
             external_host="cdn-tracker.net"),                    # x = 0.7
        dict(terms=["confirm"], bare_form=True, scripts=2),       # x = 0.7
    ],
    "[0.7,0.8)": [
        dict(terms=["verify", "account", "confirm"]),             # x = 0.9
        dict(terms=["signin", "confirm"]),                        # x = 1.0
        dict(terms=["urgent", "confirm"]),                        # x = 1.3
    ],
    "[0.8,0.9)": [
        dict(terms=["signin"], input_types=["password"]),         # x = 1.5
        dict(actions=["http://collect.drop-box.example/p"],
             terms=["login"]),                                    # x = 1.6
        dict(terms=["urgent", "signin"]),                         # x = 1.6
    ],
    "[0.9,1.0)": [
        dict(terms=["signin"], input_types=["password"],
             secure_links=2),                                     # x = 2.6
        dict(terms=["verify", "account", "urgent"],
             input_types=["password"]),                           # x = 2.6
        dict(terms=["urgent", "signin", "confirm", "login"],
             bare_form=True),                                     # x = 2.9
    ],
}

NEUTRAL_TERMS = ["meadow", "lantern", "quartz"]


def suite_seed_pages(per_bucket: int = 6):
    """Deterministic seed pages spread across the report's score buckets:
    each bucket preset is varied with neutral terms that hit no rule."""
    pages = []
    for bucket, presets in SEED_PRESETS.items():
        made = 0
        variant = 0
        while made < per_bucket:
            preset = dict(presets[variant % len(presets)])
            extra = NEUTRAL_TERMS[: variant // len(presets)]
            preset["terms"] = list(preset.get("terms", [])) + extra
            preset["filler"] = 20   # realistic page bulk around the features
            url = f"http://seed{len(pages):02d}.test/page"
            preset["host"] = f"seed{len(pages):02d}.test"
            pages.append((bucket, build_page(url=url, **preset)))
            made += 1
            variant += 1
    return pages


def suite_pool():
    """Addition pool with specs that can hit the suite model's negative
    rules, plus neutral noise."""
    from phishevade.mutation import ElementSpec
    return [
        ElementSpec("div", (), "privacy"),
        ElementSpec("div", (), "contact"),
        ElementSpec("div", (), "help"),
        ElementSpec("div", (), "copyright"),
        ElementSpec("input", (("type", "checkbox"),)),
        ElementSpec("img", (("src", "http://pics.stock-farm.example/i.png"),)),
        ElementSpec("div", (), "meadow"),
        ElementSpec("p", (), "lantern"),
        ElementSpec("span", (), "quartz"),
        ElementSpec("a", (("href", "/local"),)),
    ]
