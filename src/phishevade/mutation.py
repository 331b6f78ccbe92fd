"""Appearance- and functionality-preserving page mutations.

Three node operations cover every feature-level edit:

* ``modify_attribute`` removes a function-related attribute and re-creates
  its effect through an event handler (``onclick="this.href='...';"``),
  inlining any stylesheet rules that were keyed on the removed attribute.
* ``modify_text`` splits a term with a zero-width space so term extraction
  misses it while the rendering is unchanged.
* ``add_invisible_element`` appends a ``display:none`` element under body,
  carrying feature-bearing attributes or text.

``plan_delete_feature`` and ``plan_add_rule`` build the feature-level plans
used by the attacks.  A plan owns one copy of the page and of its feature
tally (``features.PageTally``) and applies each op to both as it is pushed,
so ``plan.tree`` is the candidate page and ``plan.fmap`` its feature map,
with no walk over the page; ``apply`` replays a plan onto a fresh copy, the
reference for tests.  Node paths index children (an attribute is addressed
by its element's path plus its name), so paths stay valid across attribute
rewrites and appended additions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from . import features as F
from .classifier import SchemaError, check_freq_detect_threshold, unsatisfied
from .dom import (
    ELEMENT,
    TEXT,
    DomNode,
    DomTree,
    attribute_keyed_rules,
    in_raw_text,
    node_at,
    visible_projection,
    walk_elements,
    walk_text_nodes,
)
# extract_all_features is bound here too: perfbench/layers.py times the
# extraction entry points on every module that binds them
from .features import (
    Feature,
    FeatureValueMap,
    PageTally,
    extract_all_features,  # noqa: F401
    extract_page_features,
    resolve_reference,
    term_spans,
)

ZERO_WIDTH_SPACE = "\u200b"

# Modifiable function-related attributes per element, with the event used to
# restore the removed attribute at interaction time.
MODIFIABLE_ATTRS: dict[str, tuple[frozenset[str], str]] = {
    "button": (frozenset({
        "form", "formaction", "formenctype", "formmethod", "formnovalidate",
        "formtarget", "name", "type", "value"}), "onclick"),
    "input": (frozenset({
        "accept", "form", "formaction", "formenctype", "formmethod",
        "formnovalidate", "formtarget", "max", "min", "name", "placeholder",
        "required", "size", "step", "type"}), "onfocus"),
    "form": (frozenset({
        "action", "enctype", "method", "name", "novalidate", "target"}),
        "oninput"),
    "a": (frozenset({
        "download", "href", "hreflang", "media", "rel", "target", "type"}),
        "onclick"),
    "table": (frozenset({"summary"}), "onmousemove"),
}

# The input "type" attribute is only modifiable for these values: other
# values (radio, checkbox, ...) render controls whose look cannot be
# reproduced with a style attribute.
INPUT_TYPE_MODIFIABLE = frozenset({"reset", "button", "password", "submit", "text"})

DELETABLE_KINDS = frozenset({
    F.PAGE_HAS_TEXT_INPUTS, F.PAGE_HAS_PSWD_INPUTS,
    F.PAGE_EXTERNAL_LINKS_FREQ, F.PAGE_ACTION_OTHER_DOMAIN_FREQ,
    F.PAGE_SECURE_LINKS_FREQ, F.PAGE_IMG_OTHER_DOMAIN_FREQ,
    F.PAGE_ACTION_URL, F.PAGE_LINK_DOMAIN, F.PAGE_TERM,
})

# Frequency kind -> (tag, attribute) of the element whose reference it counts.
_FREQUENCY_CARRIERS = {
    F.PAGE_EXTERNAL_LINKS_FREQ: ("a", "href"),
    F.PAGE_SECURE_LINKS_FREQ: ("a", "href"),
    F.PAGE_ACTION_OTHER_DOMAIN_FREQ: ("form", "action"),
    F.PAGE_IMG_OTHER_DOMAIN_FREQ: ("img", "src"),
}

_HANDLER_ASSIGNMENT = re.compile(r"this\.([\w-]+)='((?:\\.|[^'\\])*)';")


class UnsupportedMutation(ValueError):
    """The requested mutation cannot be performed without visible damage."""


class TermNotFound(LookupError):
    """The term does not occur as a token in the target text node."""


class FeatureAbsent(LookupError):
    """The target feature is not present on the page."""


class PathError(LookupError):
    """An operation's target path no longer resolves."""


class UrlFeatureUnaddable(ValueError):
    """URL features cannot be added: URLs are never mutated."""


@dataclass(frozen=True)
class NodeOp:
    kind: str                       # modify_attribute | modify_text | add_invisible_element
    target: tuple[int, ...]         # child-index path from the root
    payload: dict


@dataclass
class MutationPlan:
    """NodeOps in application order; a plan made with :meth:`on` also holds
    ``tree``, its copy of the page with every pushed op applied, and
    ``tally``, the tally of ``tree``."""
    ops: list[NodeOp] = field(default_factory=list)
    tree: DomTree | None = None
    tally: PageTally | None = None

    @classmethod
    def on(cls, tree: DomTree, tally: PageTally | None = None) -> MutationPlan:
        """An empty plan over a copy of ``tree`` and of ``tally``, the tally
        of ``tree`` (folded from the page when not given); the inputs are
        untouched."""
        if tally is None:
            tally = PageTally(tree.source_url)
            extract_page_features(tree, tally)
        else:
            tally = tally.copy()
        return cls(tree=tree.copy(), tally=tally)

    @property
    def fmap(self) -> FeatureValueMap:
        """The feature map of ``tree``, read from the carried tally."""
        return self.tally.fmap()

    def push(self, op: NodeOp) -> None:
        """Apply ``op`` to the plan's tree, update the tally from the one
        node it changes or appends, and record it."""
        _apply_in_place(self.tree, op, self.tally)
        self.ops.append(op)


@dataclass(frozen=True)
class ElementSpec:
    """A flat element harvested for invisible addition: tag, attributes and
    direct text."""
    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    text: str | None = None

    def to_dict(self) -> dict:
        return {"tag": self.tag, "attrs": dict(self.attrs), "text": self.text}

    @classmethod
    def from_dict(cls, record: dict) -> "ElementSpec":
        return cls(record["tag"], tuple(sorted(record.get("attrs", {}).items())),
                   record.get("text"))


def _escape_js(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "\\'")


def _unescape_js(value: str) -> str:
    return re.sub(r"\\(.)", r"\1", value)


def parse_handler_assignments(handler: str) -> dict[str, str]:
    """Recover ``attr -> value`` pairs from a restoration event handler."""
    return {m.group(1): _unescape_js(m.group(2))
            for m in _HANDLER_ASSIGNMENT.finditer(handler)}


def styles_for_attribute(tree: DomTree, tag: str, attr: str, value: str) -> dict[str, str]:
    """Merged declarations from the document's ``<style>`` blocks whose
    selectors key on ``tag[attr=value]`` (or ``[attr=value]``)."""
    decls: dict[str, str] = {}
    for sel_tag, sel_attr, sel_value, rule_decls in attribute_keyed_rules(tree):
        if sel_attr != attr or sel_value != value:
            continue
        if sel_tag is not None and sel_tag != tag:
            continue
        decls.update(rule_decls)
    return decls


def _element_at(tree: DomTree, path: tuple[int, ...]) -> DomNode:
    try:
        node = node_at(tree, path)
    except IndexError as exc:
        raise PathError(str(exc)) from exc
    if node.node_type != ELEMENT:
        raise PathError(f"path {path} is not an element")
    return node


def modify_attribute(tree: DomTree, path: tuple[int, ...], attr: str) -> NodeOp:
    """Plan the removal of ``attr`` on the element at ``path``, restoring the
    same attribute/value through the element's event handler and inlining
    stylesheet rules keyed on the attribute."""
    el = _element_at(tree, path)
    value = el.get_attr(attr)
    if value is None:
        raise PathError(f"element at {path} has no attribute {attr!r}")
    entry = MODIFIABLE_ATTRS.get(el.tag)
    if entry is None or attr not in entry[0]:
        raise UnsupportedMutation(f"<{el.tag} {attr}> is not modifiable")
    if el.tag == "input" and attr == "type" \
            and value.lower() not in INPUT_TYPE_MODIFIABLE:
        raise UnsupportedMutation(
            f"input type={value!r} cannot be imitated with a style attribute")
    event = entry[1]
    style_decls = styles_for_attribute(tree, el.tag, attr, value)
    return NodeOp("modify_attribute", path, {
        "attr": attr,
        "value": value,
        "event": event,
        "assignment": f"this.{attr}='{_escape_js(value)}';",
        "style": "".join(f"{k}:{v};" for k, v in style_decls.items()),
    })


def modify_text(tree: DomTree, path: tuple[int, ...], term: str,
                avoid_terms: set[str] | None = None) -> NodeOp:
    """Plan a zero-width split of ``term`` in the text node at ``path``.

    The split lands at the term midpoint; when a resulting fragment is in
    ``avoid_terms`` the split point shifts by one until both fragments are
    clean, or the operation is abandoned.
    """
    try:
        node = node_at(tree, path)
    except IndexError as exc:
        raise PathError(str(exc)) from exc
    if node.node_type != TEXT:
        raise PathError(f"path {path} is not a text node")
    span = next(((s, e) for t, s, e in term_spans(node.value) if t == term), None)
    if span is None:
        raise TermNotFound(f"{term!r} is not a token of the text node")
    n = len(term)
    if n < 2:
        raise UnsupportedMutation("single-character terms cannot be split")
    mid = (n + 1) // 2
    candidates = list(range(mid, n)) + list(range(mid - 1, 0, -1))
    avoid = avoid_terms or set()
    for cut in candidates:
        if term[:cut] in avoid or term[cut:] in avoid:
            continue
        return NodeOp("modify_text", path, {
            "term": term,
            "offset": span[0] + cut,
        })
    raise UnsupportedMutation(
        f"every split of {term!r} collides with a known term feature")


def _addition_parent_path(tree: DomTree) -> tuple[int, ...]:
    for path, el in walk_elements(tree):
        if el.tag == "body":
            return path
    return ()


def add_invisible_element(tree: DomTree, spec: ElementSpec) -> NodeOp:
    """Plan an invisible append of ``spec`` under body (or the root when the
    document has no body element)."""
    if spec.tag in ("html", "head", "body"):
        raise UnsupportedMutation(f"<{spec.tag}> cannot be appended under body")
    return NodeOp("add_invisible_element", _addition_parent_path(tree), {
        "tag": spec.tag,
        "attrs": dict(spec.attrs),
        "text": spec.text,
    })


# -- applying ops -----------------------------------------------------------

def _apply_in_place(tree: DomTree, op: NodeOp, tally: PageTally) -> None:
    """Apply ``op`` to ``tree`` and keep ``tally`` its tally: the changed
    node's old contribution is removed and its new one added."""
    if op.kind == "modify_attribute":
        el = _element_at(tree, op.target)
        attr = op.payload["attr"]
        if el.get_attr(attr) is None:
            raise PathError(f"attribute {attr!r} vanished at {op.target}")
        tally.add_element(el, -1)
        el.remove_attr(attr)
        if op.payload["style"]:
            existing = el.get_attr("style")
            if existing and not existing.rstrip().endswith(";"):
                existing = existing.rstrip() + ";"
            el.set_attr("style", (existing or "") + op.payload["style"])
        event = op.payload["event"]
        handler = el.get_attr(event) or ""
        el.set_attr(event, handler + op.payload["assignment"])
        tally.add_element(el)
    elif op.kind == "modify_text":
        try:
            node = node_at(tree, op.target)
        except IndexError as exc:
            raise PathError(str(exc)) from exc
        offset = op.payload["offset"]
        if node.node_type != TEXT or offset > len(node.value):
            raise PathError(f"text target {op.target} no longer resolves")
        counted = not in_raw_text(tree, op.target)
        if counted:
            tally.add_text(node.value, -1)
        node.value = node.value[:offset] + ZERO_WIDTH_SPACE + node.value[offset:]
        if counted:
            tally.add_text(node.value)
    elif op.kind == "add_invisible_element":
        parent = _element_at(tree, op.target)
        el = DomNode(ELEMENT, tag=op.payload["tag"])
        style = None
        for name, value in op.payload["attrs"].items():
            if name == "style":
                style = value
                continue
            el.set_attr(name, value)
        if style and not style.rstrip().endswith(";"):
            style = style.rstrip() + ";"
        el.set_attr("style", (style or "") + "display:none")
        text = op.payload["text"]
        if text:
            el.children.append(DomNode.text(text))
        parent.children.append(el)
        tally.add_element(el)
        if text and not in_raw_text(tree, op.target + (len(parent.children) - 1, 0)):
            tally.add_text(text)
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")


def apply(tree: DomTree, plan: MutationPlan) -> DomTree:
    """Replay ``plan``'s ops onto a new copy of ``tree`` (the input is
    untouched); a plan built on ``tree`` holds this result as its ``tree``."""
    replay = MutationPlan.on(tree)
    for op in plan.ops:
        replay.push(op)
    return replay.tree


def apply_op(tree: DomTree, op: NodeOp) -> DomTree:
    return apply(tree, MutationPlan([op]))


# -- feature-level planners ---------------------------------------------------

def deletable_feature(canonical: str) -> bool:
    kind = F.feature_kind(canonical)
    return kind in DELETABLE_KINDS


def addable_feature(canonical: str) -> bool:
    kind = F.feature_kind(canonical)
    return kind is not None and kind not in F.URL_KINDS


def _internal_url(tree: DomTree, scheme: str = "http") -> str:
    try:
        host = urlsplit(tree.source_url).hostname
    except ValueError:
        host = None
    return f"{scheme}://{host}/" if host else "/"


_EXTERNAL_PAD_URL = "http://pad-external.invalid/"


def _dilution_added(num: int, den: int, threshold: float) -> int:
    """Smallest n with num / (den + n) < threshold."""
    n = max(0, int(num / threshold) - den - 1)
    while num / (den + n) >= threshold:
        n += 1
    return n


def _boost_added(num: int, den: int, threshold: float) -> int:
    """Smallest n with (num + n) / (den + n) >= threshold (n >= 1)."""
    n = 1
    while (num + n) / (den + n) < threshold:
        n += 1
    return n


def plan_delete_feature(tree: DomTree, canonical: str,
                        freq_detect_threshold: float = 0.05,
                        avoid_terms: set[str] | None = None,
                        tally: PageTally | None = None) -> MutationPlan:
    """Build a plan that zeroes ``canonical`` (or, for frequency features,
    drives it below the detection threshold) on the page; ``plan.tree`` is
    the mutated page.  ``tally`` is the page's tally when the caller holds
    it (see :meth:`MutationPlan.on`)."""
    check_freq_detect_threshold(freq_detect_threshold)
    feature = Feature.parse(canonical)
    if feature is None:
        raise UnsupportedMutation(f"unknown feature {canonical!r}")
    if feature.kind in F.URL_KINDS:
        raise UnsupportedMutation("URL features cannot be deleted: URLs are never mutated")
    if feature.kind not in DELETABLE_KINDS:
        raise UnsupportedMutation(f"{feature.kind} cannot be deleted")
    plan = MutationPlan.on(tree, tally)
    if canonical not in plan.tally.page_fmap():
        raise FeatureAbsent(canonical)

    work, push = plan.tree, plan.push
    kind, payload = feature.kind, feature.payload
    if kind == F.PAGE_TERM:
        # break every token occurrence of the term, node by node; a split
        # leaves two shorter fragments, so it never recreates the term
        for path, node in walk_text_nodes(work):
            while any(t == payload for t, _, _ in term_spans(node.value)):
                push(modify_text(work, path, payload, avoid_terms))
    elif kind in (F.PAGE_HAS_TEXT_INPUTS, F.PAGE_HAS_PSWD_INPUTS):
        wanted = "text" if kind == F.PAGE_HAS_TEXT_INPUTS else "password"
        for path, el in list(walk_elements(work)):
            if el.tag == "input" and (el.get_attr("type") or "").lower() == wanted:
                push(modify_attribute(work, path, "type"))
    elif kind == F.PAGE_ACTION_URL:
        for path, el in list(walk_elements(work)):
            if el.tag == "form" and el.get_attr("action") == payload:
                push(modify_attribute(work, path, "action"))
    elif kind == F.PAGE_LINK_DOMAIN:
        base_domain = plan.tally.base_domain
        for path, el in list(walk_elements(work)):
            href = el.get_attr("href") if el.tag == "a" else None
            if href is not None and resolve_reference(
                    href, work.source_url, base_domain)[0] == payload:
                push(modify_attribute(work, path, "href"))
    elif kind in F.FREQUENCY_KINDS:
        # dilute with internal, insecure references
        tag, attr = _FREQUENCY_CARRIERS[kind]
        num, den = plan.tally.counts.fraction(kind)
        spec = ElementSpec(tag, ((attr, _internal_url(work)),))
        for _ in range(_dilution_added(num, den, freq_detect_threshold)):
            push(add_invisible_element(work, spec))
    return plan


def _spec_for_feature(plan: MutationPlan, feature: Feature,
                      freq_detect_threshold: float) -> list[ElementSpec]:
    work, counts = plan.tree, plan.tally.counts
    base_domain = plan.tally.base_domain
    kind, payload = feature.kind, feature.payload
    if kind == F.PAGE_TERM:
        return [ElementSpec("div", (), payload)]
    if kind == F.PAGE_HAS_FORMS:
        return [ElementSpec("form")]
    if kind == F.PAGE_HAS_TEXT_INPUTS:
        return [ElementSpec("input", (("type", "text"),))]
    if kind == F.PAGE_HAS_PSWD_INPUTS:
        return [ElementSpec("input", (("type", "password"),))]
    if kind == F.PAGE_HAS_RADIO_INPUTS:
        return [ElementSpec("input", (("type", "radio"),))]
    if kind == F.PAGE_HAS_CHECK_INPUTS:
        return [ElementSpec("input", (("type", "checkbox"),))]
    if kind in (F.PAGE_NUM_SCRIPTS_GT1, F.PAGE_NUM_SCRIPTS_GT6):
        wanted = 2 if kind == F.PAGE_NUM_SCRIPTS_GT1 else 7
        return [ElementSpec("script")] * max(0, wanted - counts.scripts)
    if kind == F.PAGE_ACTION_URL:
        return [ElementSpec("form", (("action", payload),))]
    if kind == F.PAGE_LINK_DOMAIN:
        href = f"http://{payload}/"
        if resolve_reference(href, work.source_url, base_domain)[0] is None:
            raise UnsupportedMutation(
                f"{payload!r} is the page's own domain, the link would not be external")
        return [ElementSpec("a", (("href", href),))]
    if kind in F.FREQUENCY_KINDS:
        # boost with secure internal links or external references
        tag, attr = _FREQUENCY_CARRIERS[kind]
        url = _internal_url(work, "https") if kind == F.PAGE_SECURE_LINKS_FREQ \
            else _EXTERNAL_PAD_URL
        domain, secure = resolve_reference(url, work.source_url, base_domain)
        if not (secure if kind == F.PAGE_SECURE_LINKS_FREQ else domain is not None):
            # padding that only grows the denominator can never reach t
            raise UnsupportedMutation(f"{url!r} does not count toward {kind} here")
        num, den = counts.fraction(kind)
        n = _boost_added(num, den, freq_detect_threshold)
        return [ElementSpec(tag, ((attr, url),))] * n
    raise UnsupportedMutation(f"{kind} cannot be added")


def plan_add_rule(tree: DomTree, rule_features,
                  freq_detect_threshold: float = 0.05,
                  tally: PageTally | None = None) -> MutationPlan:
    """Build a plan that makes every feature of a rule satisfied, so the
    rule hits on ``plan.tree``; ``tally`` as for
    :func:`plan_delete_feature`."""
    check_freq_detect_threshold(freq_detect_threshold)
    parsed = []
    for canonical in sorted(rule_features):
        feature = Feature.parse(canonical)
        if feature is None:
            raise UnsupportedMutation(f"unknown feature {canonical!r}")
        # URL features are kept: they only fail the plan when unsatisfied
        parsed.append((canonical, feature))

    # With e external and s secure links out of L, both link ratios need
    # e + s >= 2tL.  No link the planner adds is both external and secure,
    # so each one lowers e + s - 2tL by at least 2t - 1: above t = 1/2 a
    # shortfall only grows, and padding round after round cannot close it.
    link_ratios = {F.PAGE_EXTERNAL_LINKS_FREQ, F.PAGE_SECURE_LINKS_FREQ}
    both_link_ratios = freq_detect_threshold > 0.5 \
        and link_ratios <= {feature.kind for _, feature in parsed}
    plan = MutationPlan.on(tree, tally)
    for _ in range(10):
        unsat = unsatisfied(rule_features, plan.fmap, freq_detect_threshold)
        missing = [(c, f) for c, f in parsed if c in unsat]
        if not missing:
            return plan
        if both_link_ratios and any(f.kind in link_ratios for _, f in missing):
            counts = plan.tally.counts
            if counts.external_links + counts.secure_links \
                    < 2 * freq_detect_threshold * counts.links:
                raise UnsupportedMutation(
                    "external and secure link ratios cannot both reach "
                    f"{freq_detect_threshold} on this page")
        for canonical, feature in missing:
            if feature.kind in F.URL_KINDS:
                raise UrlFeatureUnaddable(canonical)
            for spec in _spec_for_feature(plan, feature, freq_detect_threshold):
                plan.push(add_invisible_element(plan.tree, spec))
    raise UnsupportedMutation(
        "rule features keep interfering; could not satisfy all of "
        + ", ".join(sorted(rule_features)))


# -- preservation check -------------------------------------------------------

@dataclass
class PreservationReport:
    projection_equal: bool
    functional_equal: bool
    problems: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.projection_equal and self.functional_equal


def _check_functional(before: DomNode, after: DomNode,
                      problems: list[str]) -> None:
    """Append a problem for every node pair, in document order, whose type or
    tag changed, that lost an attribute no event handler restores, or lost
    content children.  Works from an explicit stack."""
    stack = [(before, after, "")]
    while stack:
        before, after, path = stack.pop()
        if before.node_type != after.node_type:
            problems.append(f"{path}: node type changed")
            continue
        if before.node_type != ELEMENT:
            continue
        if before.tag != after.tag:
            problems.append(f"{path}: tag {before.tag} became {after.tag}")
            continue
        before_attrs, after_attrs = before.attrs, after.attrs
        entry = MODIFIABLE_ATTRS.get(before.tag)
        for name, value in before_attrs.items():
            if name in after_attrs:
                continue
            if entry is None or name not in entry[0]:
                problems.append(f"{path}: attribute {name!r} removed from <{before.tag}>")
                continue
            handler = after_attrs.get(entry[1], "")
            restored = parse_handler_assignments(handler)
            if restored.get(name) != value:
                problems.append(
                    f"{path}: removed {name!r} has no event handler restoring "
                    f"{name}={value!r}")
        if len(after.children) < len(before.children):
            problems.append(f"{path}: content children removed under <{before.tag}>")
        stack.extend(reversed([(b, a, f"{path}/{i}") for i, (b, a)
                               in enumerate(zip(before.children, after.children))]))


def preservation_check(before: DomTree, after: DomTree) -> PreservationReport:
    """PASS iff the visible projections are equal and every removed
    function-related attribute is restored by an event handler."""
    projection_equal = visible_projection(before) == visible_projection(after)
    problems: list[str] = []
    if not projection_equal:
        problems.append("visible projections differ")
    _check_functional(before.root, after.root, problems)
    functional_equal = not [p for p in problems if p != "visible projections differ"]
    return PreservationReport(projection_equal, functional_equal, problems)


# -- addition pool -------------------------------------------------------------

HARVEST_TAGS = frozenset({
    "a", "img", "input", "form", "button", "div", "p", "span", "li",
    "h1", "h2", "h3", "label", "strong", "em",
})


def harvest_addition_pool(trees) -> list[ElementSpec]:
    """Collect flat element specs (tag, attributes, direct text) from pages,
    in document order, deduplicated."""
    seen = set()
    pool: list[ElementSpec] = []
    for tree in trees:
        for _, el in walk_elements(tree):
            if el.tag not in HARVEST_TAGS:
                continue
            attrs = tuple(sorted((name, value) for name, value in el.attrs.items()
                                 if not name.startswith("on")))
            text = el.direct_text().strip() or None
            spec = ElementSpec(el.tag, attrs, text)
            if spec in seen:
                continue
            seen.add(spec)
            pool.append(spec)
    return pool


def save_pool(pool, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for spec in pool:
            fh.write(json.dumps(spec.to_dict(), sort_keys=True) + "\n")


def load_pool(path) -> list[ElementSpec]:
    """Read a JSON-lines pool; a line that is not an element spec (a string
    ``tag``, string attribute values, a string or null ``text``) raises
    :class:`SchemaError`."""
    pool = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                spec = ElementSpec.from_dict(json.loads(line))
            except (AttributeError, KeyError, TypeError) as exc:
                raise SchemaError(f"pool line {line!r} is not an element spec: "
                                  f"{type(exc).__name__}: {exc}") from exc
            strings = [spec.tag, *(value for _, value in spec.attrs)]
            if not all(isinstance(s, str) for s in strings) \
                    or not isinstance(spec.text, (str, type(None))):
                raise SchemaError(f"pool line {line!r} is not an element spec: "
                                  "tag, attribute values and text must be strings")
            pool.append(spec)
    return pool
