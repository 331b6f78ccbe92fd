"""Appearance- and functionality-preserving page mutations.

Three node operations cover every feature-level edit:

* ``modify_attribute`` removes a function-related attribute and re-creates
  its effect through an event handler (``onclick="this.href='...';"``),
  inlining any stylesheet rules that were keyed on the removed attribute.
* ``modify_text`` splits a term with a zero-width space so term extraction
  misses it while the rendering is unchanged.
* ``add_invisible_element`` appends a ``display:none`` element under body,
  carrying feature-bearing attributes or text.

A ``MutationPlan`` made with ``MutationPlan.on`` is a working page: its one
copy of the page, the feature tally (``features.PageTally``) folded from
the page, and an undo journal.  ``push`` applies an op to both in place and
records its inverse, so ``plan.tree`` is the mutated page and ``plan.fmap``
its feature map, with no walk over the page: one walk down the op's path
finds the node and whether its text is counted (not inside script or
style), and a term split only trades the split term for its two fragments
in the tally.  ``undo(mark)`` reverts every op after the first ``mark``,
last first.  An attack copies and folds the page once and undoes the
candidates it rejects instead of copying the page for each one.
``plan_delete_feature`` and ``plan_add_rule`` push the feature-level edits
onto the plan they are given and never copy; one that fails undoes what it
pushed, so a failed planner leaves the plan as it was.  A term split
searches its node once for the term (``features.find_term``).  ``apply``
replays a plan's ops onto a fresh copy, the reference for tests.  Node
paths index children (an attribute is addressed by its element's path plus
its name), so paths stay valid across attribute rewrites and appended
additions.  ``load_pool`` accepts only element specs whose added element
reads back unchanged from the HTML it is written as, so that what an
attack scores is what it writes.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

from . import features as F
from .classifier import (
    SchemaError,
    check_freq_detect_threshold,
    clip,
    decode_json,
    unsatisfied,
)
from .dom import (
    ELEMENT,
    RAWTEXT_TAGS,
    TEXT,
    DomNode,
    DomTree,
    ParseError,
    attribute_keyed_rules,
    isomorphic,
    parse_html,
    path_of,
    serialize,
    visible_projection,
    walk,
)
# extract_all_features is bound here too: perfbench/layers.py times the
# extraction entry points on every module that binds them
from .features import (
    Feature,
    FeatureValueMap,
    PageTally,
    extract_all_features,  # noqa: F401
    extract_page_features,
    find_term,
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
    """NodeOps in application order.  A plan made with :meth:`on` also holds
    ``tree``, its copy of the page with every op in ``ops`` applied,
    ``tally``, the tally of ``tree``, and the inverse of each op."""
    ops: list[NodeOp] = field(default_factory=list)
    tree: DomTree | None = None
    tally: PageTally | None = None
    _inverses: list[Callable[[], None]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def on(cls, tree: DomTree) -> MutationPlan:
        """An empty plan over a copy of ``tree`` and the tally folded from
        it, the one whole-page extraction a working page needs (its feature
        map is :attr:`fmap`); ``tree`` is untouched."""
        tally = PageTally(tree.source_url)
        extract_page_features(tree, tally)
        return cls(tree=tree.copy(), tally=tally)

    @property
    def fmap(self) -> FeatureValueMap:
        """The feature map of ``tree``, read from the carried tally."""
        return self.tally.fmap()

    def push(self, op: NodeOp) -> None:
        """Apply ``op`` to the plan's tree in place, update the tally from
        the one node it changes or appends, and record the op and its
        inverse."""
        self._inverses.append(_apply_in_place(self.tree, op, self.tally))
        self.ops.append(op)

    def undo(self, mark: int) -> None:
        """Revert every op after the first ``mark``, last first, in the tree
        and the tally, and cut ``ops`` back to ``mark``."""
        ops, inverses = self.ops, self._inverses
        while len(ops) > mark:
            ops.pop()
            inverses.pop()()


@contextmanager
def _undone_on_failure(plan: MutationPlan):
    """Undo what the block pushed onto ``plan`` if it raises."""
    mark = len(plan.ops)
    try:
        yield
    except BaseException:
        plan.undo(mark)
        raise


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


def _resolve(tree: DomTree, path: tuple[int, ...],
             node_type: str) -> tuple[DomNode, bool]:
    """The node of ``node_type`` at ``path``, the child indices down from
    the root, and whether that node is, or lies inside, a script or style
    element: for a text node that is ``dom.walk``'s ``raw``, and the tally
    does not count text there.  One walk down the path finds both; a path
    that does not resolve, or ends at a node of another type, raises
    :class:`PathError`."""
    node = tree.root
    raw = node.tag in RAWTEXT_TAGS
    for index in path:
        if index >= len(node.children):
            raise PathError(f"path {path} does not resolve")
        node = node.children[index]
        raw = raw or node.tag in RAWTEXT_TAGS
    if node.node_type != node_type:
        raise PathError(f"no {node_type} node at path {path}")
    return node, raw


def modify_attribute(tree: DomTree, path: tuple[int, ...], attr: str) -> NodeOp:
    """Plan the removal of ``attr`` on the element at ``path``, restoring the
    same attribute/value through the element's event handler and inlining
    stylesheet rules keyed on the attribute."""
    el, _ = _resolve(tree, path, ELEMENT)
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


def split_avoid_terms(features) -> set[str]:
    """The terms that ``PageTerm`` features among ``features`` name: the
    ``avoid_terms`` of :func:`modify_text`, so that a split does not leave
    a term that a rule tests."""
    prefix = F.PAGE_TERM + "="
    return {f[len(prefix):] for f in features if f.startswith(prefix)}


def modify_text(tree: DomTree, path: tuple[int, ...], term: str,
                avoid_terms: set[str] | None = None) -> NodeOp:
    """Plan a zero-width split of ``term`` in the text node at ``path``.

    The split goes into the first token equal to ``term``, found with one
    search of the node (``features.find_term``); a term that is no token of
    the node, an empty one or one holding a delimiter included, raises
    :class:`TermNotFound`.  The split lands at the term midpoint; when a
    resulting fragment is in ``avoid_terms`` the split point shifts by one
    until both fragments are clean, or the operation is abandoned.
    """
    node, _ = _resolve(tree, path, TEXT)
    start = find_term(node.value, term)
    if start < 0:
        raise TermNotFound(f"{term!r} is not a token of the text node")
    n = len(term)
    if n < 2:
        raise UnsupportedMutation("single-character terms cannot be split")
    mid = (n + 1) // 2
    avoid = avoid_terms or set()
    for cut in [*range(mid, n), *range(mid - 1, 0, -1)]:
        if term[:cut] not in avoid and term[cut:] not in avoid:
            return NodeOp("modify_text", path, {"term": term, "offset": start + cut})
    raise UnsupportedMutation(
        f"every split of {term!r} collides with a known term feature")


def _addition_parent_path(tree: DomTree) -> tuple[int, ...]:
    for at, el, _ in walk(tree):
        if el.tag == "body":
            return path_of(at)
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

def _append_style(el: DomNode, style: str | None, decls: str) -> None:
    """Set the style of ``el`` to ``style``, ended with a ``;`` when it is
    not empty, followed by ``decls``."""
    if style and not style.rstrip().endswith(";"):
        style = style.rstrip() + ";"
    el.set_attr("style", (style or "") + decls)


def _invisible_element(tag: str, attrs: dict[str, str],
                       text: str | None) -> DomNode:
    """The element an addition appends: ``attrs`` with ``display:none``
    ending its style, and ``text``, unless empty, as its one child."""
    el = DomNode(ELEMENT, tag=tag)
    for name, value in attrs.items():
        if name != "style":
            el.set_attr(name, value)
    _append_style(el, attrs.get("style"), "display:none")
    if text:
        el.children.append(DomNode.text(text))
    return el


def _apply_in_place(tree: DomTree, op: NodeOp,
                    tally: PageTally) -> Callable[[], None]:
    """Apply ``op`` to ``tree`` and keep ``tally`` its tally: the changed
    node's old contribution is removed and its new one added.  The one walk
    down the op's path also tells whether its text is counted: not in, or
    inside, a script or style element, nor, for an addition, in a script or
    style element it appends.  Returns the op's inverse, which reverts
    both."""
    if op.kind == "modify_attribute":
        el, _ = _resolve(tree, op.target, ELEMENT)
        attr = op.payload["attr"]
        if el.get_attr(attr) is None:
            raise PathError(f"attribute {attr!r} vanished at {op.target}")
        tally.add_element(el, -1)
        old_attrs = el.attrs
        el.attrs = dict(old_attrs)
        el.remove_attr(attr)
        if op.payload["style"]:
            _append_style(el, el.get_attr("style"), op.payload["style"])
        event = op.payload["event"]
        handler = el.get_attr(event) or ""
        el.set_attr(event, handler + op.payload["assignment"])
        tally.add_element(el)

        def inverse() -> None:
            tally.add_element(el, -1)
            el.attrs = old_attrs
            tally.add_element(el)
    elif op.kind == "modify_text":
        node, raw = _resolve(tree, op.target, TEXT)
        offset = op.payload["offset"]
        if offset > len(node.value):
            raise PathError(f"text target {op.target} no longer resolves")
        old_value = node.value
        node.value = old_value[:offset] + ZERO_WIDTH_SPACE + old_value[offset:]
        if not raw:
            tally.split_text(old_value, offset)

        def inverse() -> None:
            if not raw:
                tally.split_text(old_value, offset, -1)
            node.value = old_value
    elif op.kind == "add_invisible_element":
        parent, raw = _resolve(tree, op.target, ELEMENT)
        text = op.payload["text"]
        el = _invisible_element(op.payload["tag"], op.payload["attrs"], text)
        parent.children.append(el)
        tally.add_element(el)
        counted = bool(text) and not (raw or el.tag in RAWTEXT_TAGS)
        if counted:
            tally.add_text(text)

        def inverse() -> None:
            tally.add_element(el, -1)
            if counted:
                tally.add_text(text, -1)
            parent.children.pop()
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    return inverse


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


def _internal_url(tally: PageTally, scheme: str = "http") -> str:
    host = tally.base.hostname if tally.base else None
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


def plan_delete_feature(plan: MutationPlan, canonical: str,
                        freq_detect_threshold: float = 0.05,
                        avoid_terms: set[str] | None = None) -> None:
    """Push onto ``plan`` the ops that zero ``canonical`` (or, for frequency
    features, drive it below the detection threshold) on ``plan.tree``.  A
    feature whose ``plan.tally.value`` is 0 raises :class:`FeatureAbsent`.
    The inputs an input feature edits and the padding a frequency feature
    adds are the carriers ``features`` names for it.  On failure nothing
    stays pushed."""
    check_freq_detect_threshold(freq_detect_threshold)
    feature = Feature.parse(canonical)
    if feature is None:
        raise UnsupportedMutation(f"unknown feature {canonical!r}")
    if feature.kind in F.URL_KINDS:
        raise UnsupportedMutation("URL features cannot be deleted: URLs are never mutated")
    if feature.kind not in DELETABLE_KINDS:
        raise UnsupportedMutation(f"{feature.kind} cannot be deleted")
    if not plan.tally.value(canonical):
        raise FeatureAbsent(canonical)

    work, push = plan.tree, plan.push
    kind, payload = feature.kind, feature.payload
    with _undone_on_failure(plan):
        if kind == F.PAGE_TERM:
            # break every token occurrence of the term, node by node; a split
            # leaves two shorter fragments, so it never recreates the term.
            # A token is a substring of its node: most nodes are skipped
            # without a search, and a node is done when modify_text no
            # longer finds the term in it
            for at, node, raw in walk(work):
                if node.node_type == TEXT and not raw:
                    with suppress(TermNotFound):
                        while payload in node.value:
                            push(modify_text(work, path_of(at), payload, avoid_terms))
        elif kind not in F.FREQUENCY_KINDS:
            # the carriers: inputs of the type, forms with the action or
            # links to the domain; an edit rewrites only attributes
            if kind == F.PAGE_ACTION_URL:
                tag, attr, hit = "form", "action", payload.__eq__
            elif kind == F.PAGE_LINK_DOMAIN:
                resolve = plan.tally.resolve
                tag, attr, hit = "a", "href", lambda href: resolve(href)[0] == payload
            else:
                tag, attr, hit = "input", "type", lambda t: t.lower() == F.INPUT_TYPES[kind]
            for at, el, _ in walk(work):
                value = el.attrs.get(attr) if el.tag == tag else None
                if value is not None and hit(value):
                    push(modify_attribute(work, path_of(at), attr))
        else:
            # dilute with internal, insecure references
            carrier = F.FREQUENCIES[kind]
            num, den = plan.tally.counts.fraction(kind)
            spec = ElementSpec(carrier.tag, ((carrier.attr, _internal_url(plan.tally)),))
            for _ in range(_dilution_added(num, den, freq_detect_threshold)):
                push(add_invisible_element(work, spec))


def _spec_for_feature(plan: MutationPlan, feature: Feature,
                      freq_detect_threshold: float) -> list[ElementSpec]:
    tally, counts = plan.tally, plan.tally.counts
    kind, payload = feature.kind, feature.payload
    if kind == F.PAGE_TERM:
        return [ElementSpec("div", (), payload)]
    if kind == F.PAGE_HAS_FORMS:
        return [ElementSpec("form")]
    if kind in F.INPUT_TYPES:
        return [ElementSpec("input", (("type", F.INPUT_TYPES[kind]),))]
    if kind in F.SCRIPT_FLAGS:
        return [ElementSpec("script")] * max(0, F.SCRIPT_FLAGS[kind] + 1 - counts.scripts)
    if kind == F.PAGE_ACTION_URL:
        return [ElementSpec("form", (("action", payload),))]
    if kind == F.PAGE_LINK_DOMAIN:
        href = f"http://{payload}/"
        if tally.resolve(href)[0] is None:
            raise UnsupportedMutation(
                f"{payload!r} is the page's own domain, the link would not be external")
        return [ElementSpec("a", (("href", href),))]
    if kind in F.FREQUENCY_KINDS:
        # boost with secure internal links or external references
        carrier = F.FREQUENCIES[kind]
        url = _internal_url(tally, "https") if kind == F.PAGE_SECURE_LINKS_FREQ \
            else _EXTERNAL_PAD_URL
        domain, secure = tally.resolve(url)
        if not (secure if kind == F.PAGE_SECURE_LINKS_FREQ else domain is not None):
            # padding that only grows the denominator can never reach t
            raise UnsupportedMutation(f"{url!r} does not count toward {kind} here")
        num, den = counts.fraction(kind)
        n = _boost_added(num, den, freq_detect_threshold)
        return [ElementSpec(carrier.tag, ((carrier.attr, url),))] * n
    raise UnsupportedMutation(f"{kind} cannot be added")


def plan_add_rule(plan: MutationPlan, rule_features,
                  freq_detect_threshold: float = 0.05) -> None:
    """Push onto ``plan`` the invisible additions that make every feature of
    a rule satisfied, so the rule hits on ``plan.tree``.  On failure
    nothing stays pushed."""
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
    with _undone_on_failure(plan):
        for _ in range(10):
            unsat = unsatisfied(rule_features, plan.fmap, freq_detect_threshold)
            missing = [(c, f) for c, f in parsed if c in unsat]
            if not missing:
                return
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


def _path_text(at) -> str:
    """The path of place ``at`` as a problem names it: ``/0/3``."""
    return "".join(f"/{i}" for i in path_of(at))


def _check_functional(before: DomNode, after: DomNode,
                      problems: list[str]) -> None:
    """Append a problem for every node pair, in document order, whose type or
    tag changed, that lost an attribute no event handler restores, or lost
    content children.  Works from an explicit stack of pairs, each with its
    place as ``dom.walk`` links them; a problem names the pair's path as
    ``/0/3``, built only when the problem is appended."""
    stack = [(before, after, None)]
    while stack:
        before, after, at = stack.pop()
        if before.node_type != after.node_type:
            problems.append(f"{_path_text(at)}: node type changed")
            continue
        if before.node_type != ELEMENT:
            continue
        if before.tag != after.tag:
            problems.append(f"{_path_text(at)}: tag {before.tag} became {after.tag}")
            continue
        before_attrs, after_attrs = before.attrs, after.attrs
        entry = MODIFIABLE_ATTRS.get(before.tag)
        for name, value in before_attrs.items():
            if name in after_attrs:
                continue
            if entry is None or name not in entry[0]:
                problems.append(
                    f"{_path_text(at)}: attribute {name!r} removed from <{before.tag}>")
                continue
            handler = after_attrs.get(entry[1], "")
            restored = parse_handler_assignments(handler)
            if restored.get(name) != value:
                problems.append(
                    f"{_path_text(at)}: removed {name!r} has no event handler restoring "
                    f"{name}={value!r}")
        if len(after.children) < len(before.children):
            problems.append(
                f"{_path_text(at)}: content children removed under <{before.tag}>")
        stack.extend(reversed([(b, a, (at, i)) for i, (b, a)
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
        for _, el, _ in walk(tree):
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


def _reads_back(el: DomNode) -> bool:
    """Whether ``el`` parses back from the HTML ``serialize`` writes for it
    as the same element (the parser reads every element alike, bar the raw
    text of script and style, so no body is needed around it)."""
    page = DomTree(DomNode.element("html", children=[el]))
    try:
        return isomorphic(page.root, parse_html(serialize(page)).root)
    except ParseError:
        return False


def load_pool(path) -> list[ElementSpec]:
    """Read a JSON-lines pool; a line that is not an element spec (a string
    ``tag``, string attribute values, a string or null ``text``) raises
    :class:`SchemaError`, as does a spec whose added element, written by
    ``serialize`` and read back by ``parse_html``, is not the element the
    attack scored: a tag or attribute name the parser rewrites (``SCRIPT``,
    ``BODY``, an empty tag), script text holding ``</script>``, or text on
    a void tag."""
    pool = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                spec = ElementSpec.from_dict(decode_json(line, "pool line"))
            except (AttributeError, KeyError, TypeError) as exc:
                raise SchemaError(f"pool line {clip(repr(line))} is not an element spec: "
                                  f"{type(exc).__name__}: {exc}") from exc
            strings = [spec.tag, *(value for _, value in spec.attrs)]
            if not all(isinstance(s, str) for s in strings) \
                    or not isinstance(spec.text, (str, type(None))):
                raise SchemaError(f"pool line {clip(repr(line))} is not an element spec: "
                                  "tag, attribute values and text must be strings")
            if not _reads_back(_invisible_element(spec.tag, dict(spec.attrs),
                                                  spec.text)):
                raise SchemaError(f"pool line {clip(repr(line))} is not an element spec: "
                                  "its element does not read back unchanged from "
                                  "the HTML an addition writes")
            pool.append(spec)
    return pool
