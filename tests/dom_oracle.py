"""Reference definitions of parsing and of the page walks.

``parse_html`` here builds the tree on top of ``html_parser_311``, a copy
of CPython 3.11.7's ``html.parser``; ``dom.parse_html`` tokenizes the page
itself by the rules of that module, and ``tests/test_dom.py`` checks that
both give the same trees and raise on the same inputs, with the same
messages.  The copy keeps the comparison to those rules on any Python,
whatever its own ``html.parser`` does.

The program walks a page from an explicit stack so that pages of any depth
work; the walks here are the recursive definitions it replaced, one Python
frame per nesting level.  ``tests/test_dom.py`` checks that both give the
same paths, nodes, bytes, projections and verdicts.
"""

from html import escape

from phishevade.dom import (
    APPEARANCE_ATTRS,
    COMMENT,
    ELEMENT,
    NONVISUAL_TAGS,
    RAWTEXT_TAGS,
    TEXT,
    VOID_TAGS,
    DomNode,
    DomTree,
    ParseError,
    _escape_attr,
    attribute_keyed_rules,
    effective_style,
    is_hidden,
    strip_zero_width,
)
from phishevade.mutation import MODIFIABLE_ATTRS, parse_handler_assignments

from html_parser_311 import HTMLParser


class _TreeBuilder(HTMLParser):
    """Tag-soup-tolerant tree builder on top of the 3.11 tokenizer."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.top_level = []
        self.stack = []

    def _append(self, node):
        siblings = self.stack[-1].children if self.stack else self.top_level
        # coalesce adjacent data chunks
        if node.node_type == TEXT and siblings \
                and siblings[-1].node_type == TEXT:
            siblings[-1].value += node.value
            return
        siblings.append(node)

    def _make_element(self, tag, attrs):
        node = DomNode(ELEMENT, tag=tag)
        for name, value in attrs:
            # first occurrence wins, names unique per element
            node.attrs.setdefault(name, value or "")
        return node

    def handle_starttag(self, tag, attrs):
        node = self._make_element(tag, attrs)
        self._append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self._append(self._make_element(tag, attrs))

    def handle_endtag(self, tag):
        # Close up to the innermost matching open tag; stray closers are
        # ignored, intervening unclosed tags are auto-closed.
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if not data or data.isspace():
            return
        self._append(DomNode.text(data))

    def handle_comment(self, data):
        self._append(DomNode.comment(data))


def parse_html(text, url=""):
    """The tree the 3.11 tokenizer gives, by the contract of
    ``dom.parse_html``: UTF-8 bytes, one leading byte-order mark dropped,
    and the ``AssertionError`` html.parser gives up with raised as
    :class:`ParseError`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        text = text[1:]
    builder = _TreeBuilder()
    try:
        builder.feed(text)
        builder.close()
    except AssertionError as exc:   # how html.parser reports a bad declaration
        raise ParseError(f"document does not parse: {exc}") from exc
    tops = builder.top_level
    if len(tops) == 1 and tops[0].node_type == ELEMENT and tops[0].tag == "html":
        root = tops[0]
    else:
        root = DomNode(ELEMENT, tag="html")
        root.children.extend(tops)
    return DomTree(root, url)


def walk_elements(tree):
    def walk(node, path):
        if node.node_type == ELEMENT:
            yield path, node
            for i, child in enumerate(node.children):
                yield from walk(child, path + (i,))

    yield from walk(tree.root, ())


def walk_text_nodes(tree):
    def walk(node, path):
        for i, child in enumerate(node.children):
            if child.node_type == TEXT:
                yield path + (i,), child
            elif child.node_type == ELEMENT and child.tag not in RAWTEXT_TAGS:
                yield from walk(child, path + (i,))

    if tree.root.tag not in RAWTEXT_TAGS:
        yield from walk(tree.root, ())


def _serialize_node(node, out, raw_text=False):
    if node.node_type == TEXT:
        out.append(node.value if raw_text else escape(node.value, quote=False))
        return
    if node.node_type == COMMENT:
        out.append(f"<!--{node.value}-->")
        return
    parts = [node.tag]
    for name, value in node.attrs.items():
        parts.append(f'{name}="{_escape_attr(value)}"')
    out.append("<" + " ".join(parts) + ">")
    if node.tag in VOID_TAGS and not node.children:
        return
    for child in node.children:
        _serialize_node(child, out, node.tag in RAWTEXT_TAGS)
    out.append(f"</{node.tag}>")


def serialize(tree):
    out = []
    _serialize_node(tree.root, out)
    out.append("\n")
    return "".join(out)


def visible_projection(tree):
    entries = []
    sheet = attribute_keyed_rules(tree)

    def walk(node):
        if node.tag in NONVISUAL_TAGS or is_hidden(node):
            return
        text = " ".join(strip_zero_width(node.direct_text()).split())
        attrs = {name: value for name, value in node.attrs.items()
                 if name in APPEARANCE_ATTRS and name != "style"}
        style = effective_style(node, sheet)
        if style is not None:
            attrs["style"] = style
        entries.append((node.tag, text, attrs))
        for child in node.element_children:
            walk(child)

    walk(tree.root)
    return entries


def isomorphic(a, b):
    if a.node_type != b.node_type:
        return False
    if a.node_type == ELEMENT:
        if a.tag != b.tag or len(a.children) != len(b.children) \
                or list(a.attrs.items()) != list(b.attrs.items()):
            return False
        return all(isomorphic(x, y) for x, y in zip(a.children, b.children))
    return a.value == b.value


def check_functional(before, after, path, problems):
    """The problems ``mutation.preservation_check`` reports for removed
    attributes, changed nodes and lost children, in document order."""
    if before.node_type != after.node_type:
        problems.append(f"{path}: node type changed")
        return
    if before.node_type != ELEMENT:
        return
    if before.tag != after.tag:
        problems.append(f"{path}: tag {before.tag} became {after.tag}")
        return
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
    for i, (b, a) in enumerate(zip(before.children, after.children)):
        check_functional(b, a, f"{path}/{i}", problems)
