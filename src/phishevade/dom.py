"""DOM trees for static webpage analysis and mutation.

A page is a tree of :class:`DomNode` values: elements, each with an
insertion-ordered attribute dict and a list of content children (text,
comment and element nodes).  Trees are treated as immutable once built;
mutation code works on the copy each ``mutation.MutationPlan`` owns.
:meth:`DomTree.copy` is the one way to copy a page, and a copy shares
nothing mutable with its source (only the immutable strings).  The copy,
``serialize``, the element and text walks, ``visible_projection`` and
``isomorphic`` all work from an explicit stack instead of recursing, so
pages of any depth work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import escape
from html.parser import HTMLParser

ELEMENT = "element"
TEXT = "text"
COMMENT = "comment"

# Tags with no closing tag; the parser never pushes these on the open stack.
VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# Tags that never contribute to the rendered appearance of the page.
NONVISUAL_TAGS = frozenset({
    "base", "head", "link", "meta", "noscript", "param", "script",
    "source", "style", "template", "title", "track",
})

# Characters that render as nothing; stripped from the visible projection.
ZERO_WIDTH_CHARS = "\u200b\u200c\u200d\ufeff"

# Attributes that influence how a node looks, kept in the projection.
APPEARANCE_ATTRS = frozenset({
    "style", "class", "align", "background", "src", "width", "height", "color",
})


class ParseError(ValueError):
    """Input document could not be decoded or parsed."""


class DomNode:
    """One node of a parsed document.

    ``attrs`` and ``children`` are only populated on element nodes.
    ``attrs`` maps lowercase attribute names to values in source order (a
    name added later goes last); ``children`` holds the content nodes (text,
    comment and element children, in document order).
    """

    __slots__ = ("node_type", "tag", "children", "value", "attrs")

    def __init__(self, node_type: str, tag: str = "", value: str = "",
                 children: list[DomNode] | None = None):
        self.node_type = node_type
        self.tag = tag
        self.value = value
        self.attrs: dict[str, str] = {}
        self.children: list[DomNode] = children if children is not None else []

    @classmethod
    def element(cls, tag: str, attrs: dict[str, str] | None = None,
                children: list[DomNode] | None = None) -> DomNode:
        node = cls(ELEMENT, tag=tag.lower())
        for name, value in (attrs or {}).items():
            node.set_attr(name, value)
        node.children.extend(children or [])
        return node

    @classmethod
    def text(cls, value: str) -> DomNode:
        return cls(TEXT, value=value)

    @classmethod
    def comment(cls, value: str) -> DomNode:
        return cls(COMMENT, value=value)

    def __repr__(self) -> str:
        if self.node_type == ELEMENT:
            return f"<{self.tag}>"
        return f"{self.node_type}:{self.value!r}"

    # -- element accessors ------------------------------------------------

    @property
    def element_children(self) -> list[DomNode]:
        return [c for c in self.children if c.node_type == ELEMENT]

    def get_attr(self, name: str) -> str | None:
        return self.attrs.get(name)

    def set_attr(self, name: str, value: str) -> None:
        """Set an attribute: a replaced one keeps its position, a new one
        goes last."""
        self.attrs[name.lower()] = value

    def remove_attr(self, name: str) -> None:
        self.attrs.pop(name, None)

    def direct_text(self) -> str:
        """Concatenated values of this element's direct text children."""
        return "".join(c.value for c in self.children if c.node_type == TEXT)


@dataclass
class DomTree:
    root: DomNode
    source_url: str = ""

    def copy(self) -> DomTree:
        """A structural clone: every node is new and has its own ``attrs``
        dict and ``children`` list; only the strings (tag, value, attribute
        names and values) are shared.  Uses an explicit stack, not
        recursion, so it copies a page of any depth."""
        new = DomNode.__new__
        root = new(DomNode)
        stack = [(self.root, root)]
        pop, push = stack.pop, stack.append
        while stack:
            src, dst = pop()
            dst.node_type = src.node_type
            dst.tag = src.tag
            dst.value = src.value
            dst.attrs = dict(src.attrs)
            children = []
            for child in src.children:
                clone = new(DomNode)
                children.append(clone)
                push((child, clone))
            dst.children = children
        return DomTree(root, self.source_url)


class _TreeBuilder(HTMLParser):
    """Tag-soup-tolerant tree builder on top of the stdlib tokenizer."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.top_level: list[DomNode] = []
        self.stack: list[DomNode] = []

    def _append(self, node: DomNode) -> None:
        siblings = self.stack[-1].children if self.stack else self.top_level
        # coalesce adjacent data chunks so the tree is in normal form and
        # serialize/parse round trips are node-stable
        if node.node_type == TEXT and siblings \
                and siblings[-1].node_type == TEXT:
            siblings[-1].value += node.value
            return
        siblings.append(node)

    def _make_element(self, tag: str, attrs) -> DomNode:
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


def parse_html(text: str | bytes, url: str = "") -> DomTree:
    """Parse an HTML document into a :class:`DomTree`.

    Unclosed tags are auto-closed, unknown tags are kept as elements and an
    empty document yields a bare ``html`` root.  Bytes input must be UTF-8,
    and markup the stdlib tokenizer gives up on (``<![ x``) raises
    :class:`ParseError`.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not valid UTF-8: {exc}") from exc
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


def load_page(path, url: str = "") -> DomTree:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_html(data, url)


def _escape_attr(value: str) -> str:
    # values are emitted double-quoted; single quotes stay literal so event
    # handler strings like this.type='submit' survive verbatim
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


# Content of these elements is raw text: the tokenizer never decodes
# character references inside them, so escaping on output would not survive
# a round trip.
RAWTEXT_TAGS = frozenset({"script", "style"})


def serialize(tree: DomTree) -> str:
    """Deterministic HTML text for a tree; attribute order is preserved.
    Uses a stack of child iterators, not recursion, so a page of any depth
    serializes."""
    out: list[str] = []
    append = out.append
    # frames: (children left to write, inside raw text, closing tag)
    stack = [(iter((tree.root,)), False, "")]
    while stack:
        children, raw_text, closing = stack[-1]
        for node in children:
            node_type = node.node_type
            if node_type == TEXT:
                append(node.value if raw_text else escape(node.value, False))
            elif node_type == COMMENT:
                append(f"<!--{node.value}-->")
            else:
                tag = node.tag
                if node.attrs:
                    append("<" + tag + "".join(
                        [f' {name}="{_escape_attr(value)}"'
                         for name, value in node.attrs.items()]) + ">")
                else:
                    append(f"<{tag}>")
                if node.children or tag not in VOID_TAGS:
                    stack.append((iter(node.children), tag in RAWTEXT_TAGS,
                                  f"</{tag}>"))
                    break
        else:
            stack.pop()
            append(closing)
    append("\n")
    return "".join(out)


def bfs_layers(tree: DomTree) -> list[list[DomNode]]:
    """Element nodes grouped by depth: layer 1 is ``[root]``, layer i+1 the
    concatenated element children of layer i in document order."""
    layers = []
    current = [tree.root]
    while current:
        layers.append(current)
        nxt = []
        for node in current:
            nxt.extend(node.element_children)
        current = nxt
    return layers


def _style_declarations(style: str) -> dict[str, str]:
    decls = {}
    for chunk in style.split(";"):
        if ":" not in chunk:
            continue
        prop, _, value = chunk.partition(":")
        decls[prop.strip().lower()] = value.strip().lower()
    return decls


def _is_zero_length(value: str) -> bool:
    value = value.strip().rstrip("%")
    for unit in ("px", "pt", "em", "rem", "vh", "vw"):
        if value.endswith(unit):
            value = value[: -len(unit)]
            break
    try:
        return float(value) == 0.0
    except ValueError:
        return False


def is_hidden(node: DomNode) -> bool:
    """Static visibility test on the inline style of a single element."""
    style = node.get_attr("style")
    if not style:
        return False
    decls = _style_declarations(style)
    if decls.get("display") == "none":
        return True
    if decls.get("visibility") == "hidden":
        return True
    width, height = decls.get("width"), decls.get("height")
    if width is not None and height is not None:
        return _is_zero_length(width) and _is_zero_length(height)
    return False


def strip_zero_width(text: str) -> str:
    for ch in ZERO_WIDTH_CHARS:
        if ch in text:
            text = text.replace(ch, "")
    return text


# Attribute-keyed stylesheet rules: selectors of the form tag[attr=value]
# or [attr=value].  This is the only selector family the mutation machinery
# rewrites, so resolving it keeps the projection stable when a stylesheet
# rule is traded for an equivalent inline style.
_CSS_COMMENT = re.compile(r"/\*.*?\*/", re.S)
_SELECTOR_WITH_ATTR = re.compile(
    r"^\s*([a-zA-Z][\w-]*)?\s*\[\s*([\w-]+)\s*=\s*"
    r"(?:\"([^\"]*)\"|'([^']*)'|([^\]\s]+))\s*\]\s*$")


def attribute_keyed_rules(tree: DomTree) -> list[tuple[str | None, str, str, dict[str, str]]]:
    """``(tag_or_None, attr, value, declarations)`` for every attribute-keyed
    selector in the document's ``<style>`` blocks, in document order."""
    chunks = []
    for _, el in walk_elements(tree):
        if el.tag == "style":
            chunks.append(el.direct_text())
    css = _CSS_COMMENT.sub("", "\n".join(chunks))
    out = []
    for block in css.split("}"):
        if "{" not in block:
            continue
        selectors, _, body = block.partition("{")
        decls = _style_declarations(body)
        if not decls:
            continue
        for selector in selectors.split(","):
            m = _SELECTOR_WITH_ATTR.match(selector)
            if not m:
                continue
            sel_tag = m.group(1).lower() if m.group(1) else None
            sel_value = next(g for g in m.groups()[2:] if g is not None)
            out.append((sel_tag, m.group(2).lower(), sel_value, decls))
    return out


def effective_style(node: DomNode, sheet) -> str | None:
    """Merge matching attribute-keyed stylesheet declarations with the
    element's inline style (inline wins); normalized, sorted by property."""
    decls: dict[str, str] = {}
    for sel_tag, attr, value, rule_decls in sheet:
        if sel_tag is not None and sel_tag != node.tag:
            continue
        if node.get_attr(attr) == value:
            decls.update(rule_decls)
    inline = node.get_attr("style")
    if inline:
        decls.update(_style_declarations(inline))
    if not decls:
        return None
    return "".join(f"{k}:{decls[k]};" for k in sorted(decls))


ProjectionEntry = tuple[str, str, dict[str, str]]


def visible_projection(tree: DomTree) -> list[ProjectionEntry]:
    """Static stand-in for the rendered appearance of the page.

    Each visible element contributes ``(tag, effective_text, appearance
    attributes)`` in document order.  Subtrees hidden by inline style
    (``display:none``, ``visibility:hidden``, zero width and height) and
    non-visual tags (head, script, style, ...) are excluded; effective text
    is zero-width-stripped and whitespace-collapsed; the ``style`` entry is
    the effective style after resolving attribute-keyed stylesheet rules.
    """
    entries: list[ProjectionEntry] = []
    sheet = attribute_keyed_rules(tree)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.tag in NONVISUAL_TAGS or is_hidden(node):
            continue
        text = " ".join(strip_zero_width(node.direct_text()).split())
        attrs = {name: value for name, value in node.attrs.items()
                 if name in APPEARANCE_ATTRS and name != "style"}
        style = effective_style(node, sheet)
        if style is not None:
            attrs["style"] = style
        entries.append((node.tag, text, attrs))
        stack.extend(reversed(node.element_children))
    return entries


def walk_elements(tree: DomTree):
    """Yield ``(path, element)`` for every element in document order.

    Iterative: a stack of child iterators stands in for recursion, so a
    page of any depth walks, and a child list is read as the walk reaches
    it, as a recursive walk would."""
    root = tree.root
    if root.node_type != ELEMENT:
        return
    yield (), root
    stack = [((), enumerate(root.children))]
    while stack:
        path, children = stack[-1]
        for i, child in children:
            if child.node_type == ELEMENT:
                child_path = path + (i,)
                yield child_path, child
                stack.append((child_path, enumerate(child.children)))
                break
        else:
            stack.pop()


def walk_text_nodes(tree: DomTree):
    """Yield ``(path, text_node)`` in document order, skipping the code
    inside script and style (``RAWTEXT_TAGS``) elements.  Iterative, like
    :func:`walk_elements`."""
    root = tree.root
    if root.tag in RAWTEXT_TAGS:
        return
    stack = [((), enumerate(root.children))]
    while stack:
        path, children = stack[-1]
        for i, child in children:
            if child.node_type == TEXT:
                yield path + (i,), child
            elif child.node_type == ELEMENT and child.tag not in RAWTEXT_TAGS:
                stack.append((path + (i,), enumerate(child.children)))
                break
        else:
            stack.pop()


def isomorphic(a: DomNode, b: DomNode) -> bool:
    """Structural equality: same type, tag, attributes in the same order,
    value, and children.  Compares node pairs from an explicit stack."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a.node_type != b.node_type:
            return False
        if a.node_type == ELEMENT:
            if a.tag != b.tag or len(a.children) != len(b.children) \
                    or list(a.attrs.items()) != list(b.attrs.items()):
                return False
            stack.extend(zip(a.children, b.children))
        elif a.value != b.value:
            return False
    return True
