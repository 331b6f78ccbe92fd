"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of the seed and the sizes asked for: the same seed
always yields the same pages, stream, corpus and model.  Page sizes are
fixed points spread over a range, so a different seed changes the content of
the inputs and their order but not their sizes; that keeps the timings of
different seeds comparable.

The attack-suite inputs mirror ``suite_model``, ``SEED_PRESETS`` and
``suite_pool`` from the test suite (copied, so a test edit cannot move the
benchmark), with seeded filler words and black-box ``rng_seed`` values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from phishevade.classifier import ClassificationRule, Classifier
from phishevade.dom import DomTree, parse_html, serialize, walk_elements, walk_text_nodes
from phishevade.features import hash_feature, terms_of
from phishevade.mutation import (
    ElementSpec,
    MutationPlan,
    add_invisible_element,
    apply,
    modify_attribute,
    modify_text,
)
from phishevade.pelican import BENIGN, EVASION_DETECTED, PHISHING_BY_CLASSIFIER

# Every term any rule of the suite model names, plus the neutral preset
# terms.  Generated words never equal one of them, so filler text cannot
# change a score.
RESERVED_TERMS = frozenset({
    "signin", "verify", "account", "urgent", "login", "confirm", "privacy",
    "contact", "help", "copyright", "zero", "meadow", "lantern", "quartz",
})

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v")
_VOWELS = ("a", "e", "i", "o", "u")


def make_words(rng: random.Random, count: int, syllables: int = 3) -> list[str]:
    """``count`` distinct pronounceable pseudo-words, none of them reserved."""
    words: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(syllables))
        if word not in RESERVED_TERMS:
            words.add(word)
    return sorted(words)


GOLDEN = (5 ** 0.5 - 1) / 2


def spread(count: int, offset: float) -> list[float]:
    """``count`` quantiles in (0, 1), the midpoint of each equal-width
    stratum, in low-discrepancy order from ``offset``: every prefix of the
    list covers the range about evenly."""
    points = [(offset + j * GOLDEN) % 1.0 for j in range(count)]
    stratum = [0] * count
    for rank, j in enumerate(sorted(range(count), key=points.__getitem__)):
        stratum[j] = rank
    return [(s + 0.5) / count for s in stratum]


def spread_sizes(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` sizes spread log-uniformly over [lo, hi): the seed changes
    their order, never the sizes themselves."""
    ratio = math.log(hi / lo)
    return [int(lo * math.exp(ratio * q)) for q in spread(count, rng.random())]


def _rule(rule_id: str, feats, weight: float) -> ClassificationRule:
    return ClassificationRule(rule_id, frozenset(feats), weight)


def suite_model() -> Classifier:
    """The 20-rule attack-suite model: deletable and undeletable positive
    rules, addable negative rules, a subset pair and a zero-weight rule."""
    return Classifier(-0.5, (
        _rule("p01", {"PageTerm=signin"}, 0.9),
        _rule("p02", {"PageHasPswdInputs"}, 1.1),
        _rule("p03", {"PageTerm=verify", "PageTerm=account"}, 0.8),
        _rule("p04", {"PageActionOtherDomainFreq"}, 1.0),
        _rule("p05", {"PageLinkDomain=cdn-tracker.net"}, 0.7),
        _rule("p06", {"PageSecureLinksFreq", "PageHasPswdInputs"}, 0.6),
        _rule("p07", {"PageTerm=urgent"}, 1.2),
        _rule("p08", {"PageExternalLinksFreq"}, 0.5),
        _rule("p09", {"PageHasForms"}, 0.4),
        _rule("p10", {"PageNumScriptTags>1"}, 0.3),
        _rule("p11", {"UrlOtherHostToken=paypal"}, 0.8),
        _rule("p12", {"PageHasForms", "PageTerm=login"}, 0.7),
        _rule("p13", {"PageTerm=confirm"}, 0.6),
        _rule("n01", {"PageTerm=privacy"}, -0.8),
        _rule("n02", {"PageTerm=contact", "PageTerm=help"}, -0.6),
        _rule("n03", {"PageHasCheckInputs"}, -0.5),
        _rule("n04", {"PageImgOtherDomainFreq"}, -0.4),
        _rule("n05", {"PageTerm=copyright"}, -0.3),
        _rule("n07", {"PageTerm=contact"}, -0.2),
        _rule("z01", {"PageTerm=zero"}, 0.0),
    ))


# Content presets per score bucket of the suite model (bias -0.5).
SEED_PRESETS = {
    "[0.5,0.6)": [
        dict(terms=["signin"]),
        dict(terms=["confirm"]),
        dict(bare_form=True, scripts=2),
    ],
    "[0.6,0.7)": [
        dict(terms=["urgent"]),
        dict(insecure_external_links=1, external_host="cdn-tracker.net"),
        dict(terms=["confirm"], bare_form=True, scripts=2),
    ],
    "[0.7,0.8)": [
        dict(terms=["verify", "account", "confirm"]),
        dict(terms=["signin", "confirm"]),
        dict(terms=["urgent", "confirm"]),
    ],
    "[0.8,0.9)": [
        dict(terms=["signin"], input_types=["password"]),
        dict(actions=["http://collect.drop-box.example/p"], terms=["login"]),
        dict(terms=["urgent", "signin"]),
    ],
    "[0.9,1.0)": [
        dict(terms=["signin"], input_types=["password"], secure_links=2),
        dict(terms=["verify", "account", "urgent"], input_types=["password"]),
        dict(terms=["urgent", "signin", "confirm", "login"], bare_form=True),
    ],
}

NEUTRAL_TERMS = ["meadow", "lantern", "quartz"]


def suite_pool() -> list[ElementSpec]:
    """Addition pool: specs that hit the suite model's negative rules, plus
    neutral noise."""
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


def _seed_page_html(filler: list[str], terms=(), secure_links=0,
                    insecure_external_links=0, actions=(), input_types=(),
                    scripts=0, bare_form=False,
                    external_host="elsewhere.example.com") -> str:
    parts = ["<html><head><title>fixture</title></head><body>"]
    parts.extend(f"<div>{line}</div>" for line in filler)
    parts.extend(f"<p>{term}</p>" for term in terms)
    parts.extend(f'<a href="https://{external_host}/s{i}">s{i}</a>'
                 for i in range(secure_links))
    parts.extend(f'<a href="http://{external_host}/x{i}">x{i}</a>'
                 for i in range(insecure_external_links))
    parts.extend(f'<form action="{action}"></form>' for action in actions)
    if bare_form:
        parts.append("<form></form>")
    parts.extend(f'<input type="{t}">' for t in input_types)
    parts.extend(f"<script>run{i}();</script>" for i in range(scripts))
    parts.append("</body></html>")
    return "".join(parts)


@dataclass
class AttackInputs:
    model: Classifier
    grey_rules: list[tuple[str, frozenset[str]]]
    pool: list[ElementSpec]
    pages: list[tuple[str, DomTree]]     # (score bucket, seed page)
    rng_seeds: list[int]                 # black-box rng_seed per page
    html_bytes: list[int]                # serialized size per page


def attack_inputs(seed: int, per_bucket: int = 6, filler: int = 20) -> AttackInputs:
    """Seed pages spread over the five score buckets, each preset varied
    with neutral terms and ``filler`` lines of seeded words."""
    rng = random.Random(f"attack-suite/{seed}")
    words = make_words(rng, 200)
    model = suite_model()
    pages = []
    for bucket, presets in SEED_PRESETS.items():
        for variant in range(per_bucket):
            preset = dict(presets[variant % len(presets)])
            extra = NEUTRAL_TERMS[: variant // len(presets)]
            preset["terms"] = list(preset.get("terms", [])) + extra
            lines = [f"{rng.choice(words)}{i:02d} {rng.choice(words)} "
                     f"{rng.choice(words)}" for i in range(filler)]
            index = len(pages)
            html = _seed_page_html(lines, **preset)
            pages.append((bucket, parse_html(html, f"http://seed{index:02d}.test/page")))
    return AttackInputs(
        model=model,
        grey_rules=[(r.id, r.features) for r in model.rules],
        pool=suite_pool(),
        pages=pages,
        rng_seeds=[rng.randrange(1 << 30) for _ in pages],
        html_bytes=[len(serialize(page).encode("utf-8")) for _, page in pages],
    )


# -- defend-stream -----------------------------------------------------------

PHISH, BENIGN_KIND = "phish", "benign"
EVASION, FRESH = "evasion", "fresh"

# Fixed clock for every store insert: eviction happens by count only.
CLOCK = 1_700_000_000.0


def _site_html(rng: random.Random, words: list[str], token: str,
               target_bytes: int, kind: str) -> str:
    """A site page of about ``target_bytes``.  Every element carries an
    attribute with the page's own ``token``, so two generated pages share no
    attribute hash and Pelican tells them apart; text is seeded words."""
    def text(n: int) -> str:
        return " ".join(rng.choice(words) for _ in range(n))

    head = [f'<html data-site="{token}"><head data-h="{token}">',
            f'<title data-t="{token}">{token} {text(3)}</title>',
            f'<meta name="description" content="{token} {text(4)}"></head>',
            f'<body class="b-{token}"><div id="{token}-nav" class="nav-{token}">',
            f'<ul class="menu-{token}">']
    head += [f'<li class="m{i}-{token}"><a class="l{i}-{token}" '
             f'href="/{token}/{i}">{text(2)}</a></li>' for i in range(4)]
    head.append(f'</ul></div><div id="{token}-main" class="main-{token}">')
    if kind == PHISH:
        tail = [f'<div id="{token}-box" class="box-{token}">',
                f'<p class="alert-{token}">urgent please verify your account '
                f'{text(3)}</p>',
                f'<form id="{token}-f" class="f-{token}" method="post" '
                f'action="http://collect-{token}.example/p">',
                f'<input class="u-{token}" type="text" name="user-{token}">',
                f'<input class="w-{token}" type="password" name="pw-{token}">',
                f'<button class="go-{token}" type="submit">signin {text(1)}</button>',
                "</form></div>"]
    else:
        tail = [f'<div id="{token}-foot" class="foot-{token}">',
                f'<p class="legal-{token}">privacy copyright {text(3)}</p>',
                f'<p class="reach-{token}">contact help {text(3)}</p></div>']
    tail.append("</div></body></html>")
    fixed = sum(len(s) for s in head) + sum(len(s) for s in tail)

    blocks: list[str] = []
    size, b = fixed, 0
    while size < target_bytes or b == 0:
        block = [f'<section id="{token}-s{b}" class="s-{token}">',
                 f'<h2 class="h{b}-{token}">{text(3)}</h2>']
        block += [f'<p class="p{b}x{i}-{token}">{text(10)}</p>' for i in range(3)]
        block.append("</section>")
        blocks.extend(block)
        size += sum(len(s) for s in block)
        b += 1
    return "".join(head + blocks + tail)


def _evasion_html(source_html: str, url: str) -> str:
    """Mutate a stored phishing page with the program's own NodeOps: split
    its ``signin`` term, trade the form action for an event handler and
    append two invisible negative-rule elements."""
    tree = parse_html(source_html, url)
    term_path = next(path for path, node in walk_text_nodes(tree)
                     if "signin" in terms_of(node.value))
    form_path = next(path for path, el in walk_elements(tree) if el.tag == "form")
    ops = [modify_text(tree, term_path, "signin"),
           modify_attribute(tree, form_path, "action"),
           add_invisible_element(tree, ElementSpec("div", (), "privacy")),
           add_invisible_element(tree, ElementSpec("div", (), "copyright"))]
    return serialize(apply(tree, MutationPlan(ops)))


@dataclass(frozen=True)
class StreamPage:
    kind: str                   # evasion | fresh | benign
    url: str
    html: str
    expected_label: str
    expected_entry: int | None  # store index an evasion must match


@dataclass
class DefendInputs:
    model: Classifier
    k: int
    store_pages: list[tuple[str, str]]    # (url, html), oldest first
    stream: list[StreamPage]


def defend_inputs(seed: int, k: int = 50, per_kind: int = 12,
                  lo_bytes: int = 2000, hi_bytes: int = 12000) -> DefendInputs:
    """A store of ``k`` phishing pages and a stream of ``per_kind`` pages of
    each kind, taking turns.  The expected verdicts come from replaying the
    stream against a model of the store: fresh pages are inserted and evict
    the oldest entry, evasions target an entry present at their turn.

    Page sizes, the sizes of the entries evicted first and the sizes of the
    entries evasions target are spread evenly over the size range, so the
    seed changes the content and not the amount of matching work."""
    rng = random.Random(f"defend-stream/{seed}")
    words = make_words(rng, 300)
    counter = iter(range(1 << 30))

    def new_page(kind: str, size: int) -> tuple[str, str]:
        token = f"t{next(counter):03d}{rng.choice(words)}"
        url = f"http://{token}.example.net/{rng.choice(words)}"
        return url, _site_html(rng, words, token, size, kind)

    store_pages = [new_page(PHISH, size)
                   for size in spread_sizes(rng, k, lo_bytes, hi_bytes)]
    fresh_sizes = iter(spread_sizes(rng, per_kind, lo_bytes, hi_bytes))
    benign_sizes = iter(spread_sizes(rng, per_kind, lo_bytes, hi_bytes))
    target_ranks = iter(spread(per_kind, rng.random()))
    live = list(store_pages)               # replay of the store, oldest first
    stream = []
    for kind in [EVASION, FRESH, BENIGN_KIND] * per_kind:
        if kind == EVASION:
            by_size = sorted(range(len(live)), key=lambda i: len(live[i][1]))
            index = by_size[int(next(target_ranks) * len(live))]
            url, html = live[index]
            stream.append(StreamPage(kind, url + "?v", _evasion_html(html, url),
                                     EVASION_DETECTED, index))
        elif kind == FRESH:
            url, html = new_page(PHISH, next(fresh_sizes))
            stream.append(StreamPage(kind, url, html, PHISHING_BY_CLASSIFIER, None))
            live.append((url, html))
            if len(live) > k:
                live.pop(0)
        else:
            url, html = new_page(BENIGN_KIND, next(benign_sizes))
            stream.append(StreamPage(kind, url, html, BENIGN, None))
    return DefendInputs(suite_model(), k, store_pages, stream)


# -- infer-corpus ------------------------------------------------------------

@dataclass
class CorpusRecord:
    url: str
    label: str
    html: str | None            # None for a URL-only record


@dataclass
class InferInputs:
    records: list[CorpusRecord]
    model: Classifier           # hashed
    manifest: set[str]          # every digest the model names
    expected: dict[str, str]    # digest -> canonical string it must recover
    foreign: set[str]           # digests no corpus string produces
    partition: dict[str, set[str]]


def _corpus_page_html(rng: random.Random, words: list[str], domains: list[str],
                      target_bytes: int, placed_terms: set[str],
                      placed_domains: set[str]) -> str:
    """A bulky article page: term-rich paragraphs, link lists to external
    domains, images, a form and scripts, grown to ``target_bytes``."""
    def text(n: int) -> str:
        chosen = [rng.choice(words) for _ in range(n)]
        placed_terms.update(chosen)
        return " ".join(chosen)

    parts = [f"<html><head><title>{text(4)}</title>",
             "<script>var cfg = {ready: true};</script></head><body>"]
    size = sum(len(s) for s in parts)
    b = 0
    while size < target_bytes or b == 0:
        block = [f'<div class="art{b % 7}"><h3>{text(4)}</h3><p>{text(40)}</p><ul>']
        for i in range(5):
            domain = rng.choice(domains)
            placed_domains.add(domain)
            block.append(f'<li><a href="http://www.{domain}/{rng.choice(words)}">'
                         f'{text(2)}</a></li>')
        block.append(f'<li><a href="/local/{b}">{text(2)}</a></li></ul>')
        block.append(f'<img src="http://img.{rng.choice(domains)}/{b}.png">')
        if b % 5 == 0:
            block.append(f'<form action="http://forms.{rng.choice(domains)}/s">'
                         f'<input type="text" name="q{b}"></form>')
        block.append(f"<script>track({b});</script></div>")
        size += sum(len(s) for s in block)
        parts.extend(block)
        b += 1
    parts.append("</body></html>")
    return "".join(parts)


def infer_inputs(seed: int, pages: int = 10, url_records: int = 40,
                 lo_bytes: int = 5000, hi_bytes: int = 80000,
                 rules: tuple[int, int, int] = (20, 20, 10)) -> InferInputs:
    """A corpus of ``pages`` bulky pages plus ``url_records`` URL-only
    records, and a hashed model with ``rules`` = (fully inferred, partially
    inferred, opaque) rule counts.  Fully inferred rules name two corpus
    strings, partial ones a corpus string and a foreign one, opaque ones two
    foreign strings."""
    rng = random.Random(f"infer-corpus/{seed}")
    words = make_words(rng, 1500)
    domains = [f"{w}{n}.com" for n, w in enumerate(make_words(rng, 60, 2))]
    placed_terms: set[str] = set()
    placed_domains: set[str] = set()
    records = []
    for i, size in enumerate(spread_sizes(rng, pages, lo_bytes, hi_bytes)):
        url = f"http://p{i:02d}.corpus.test/{rng.choice(words)}/{rng.choice(words)}"
        html = _corpus_page_html(rng, words, domains, size, placed_terms,
                                 placed_domains)
        records.append(CorpusRecord(url, "phish" if i % 2 else "legit", html))
    path_tokens = set()
    for i in range(url_records):
        segment = f"{rng.choice(words)}{i}"
        path_tokens.add(segment)
        records.append(CorpusRecord(
            f"https://u{i:02d}.{rng.choice(domains)}/{segment}", "legit", None))

    full, partial, opaque = rules
    known = sorted(f"PageTerm={t}" for t in placed_terms)
    known += sorted(f"PageLinkDomain={d}" for d in placed_domains)
    known += sorted(f"UrlPathToken={s}" for s in path_tokens)
    chosen = rng.sample(known, 2 * full + partial)
    absent = [f"PageTerm=absent-{seed}-{i:03d}" for i in range(partial + 2 * opaque)]

    rule_list = []
    partition = {"fully_inferred": set(), "partially_inferred": set(), "opaque": set()}
    for i in range(full):
        rule_list.append((f"f{i:02d}", chosen[2 * i: 2 * i + 2], "fully_inferred"))
    for i in range(partial):
        rule_list.append((f"q{i:02d}", [chosen[2 * full + i], absent[i]],
                          "partially_inferred"))
    for i in range(opaque):
        rule_list.append((f"o{i:02d}", absent[partial + 2 * i: partial + 2 * i + 2],
                          "opaque"))
    hashed_rules = []
    for rule_id, feats, part in rule_list:
        weight = round(rng.uniform(-1.0, 1.0), 3) or 0.5
        hashed_rules.append(_rule(rule_id, {hash_feature(f) for f in feats}, weight))
        partition[part].add(rule_id)
    model = Classifier(-0.2, tuple(hashed_rules), hashed=True)
    expected = {hash_feature(f): f for f in chosen}
    foreign = {hash_feature(f) for f in absent}
    return InferInputs(records, model, set(expected) | foreign, expected,
                       foreign, partition)
