"""DOM trees for static webpage analysis and mutation.

:func:`parse_html` tokenizes a page itself, in one loop over its ``<``
positions that builds the nodes as it reads.  It follows the rules of
CPython 3.11's ``html.parser``, with that module's own patterns, whatever
Python runs it, so a page gives the tree that a builder on that tokenizer
gives: the same tags, attribute values, comments, declarations and raw
text, and the same handling of markup cut off at the end of the input.
One leading byte-order mark is dropped, as a browser drops it.

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
from html import escape, unescape

ELEMENT = "element"
TEXT = "text"
COMMENT = "comment"

# Tags with no closing tag; the parser never pushes these on the open stack.
VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# Content of these elements is raw text: the tokenizer never decodes
# character references inside them, so escaping on output would not survive
# a round trip.
RAWTEXT_TAGS = frozenset({"script", "style"})

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


# -- parsing ------------------------------------------------------------------
#
# The patterns are html.parser's own (CPython 3.11,
# ``HTMLParser(convert_charrefs=True)`` fed a whole document, then closed),
# except that ``_ATTR`` gives each form of attribute value its own group.

# html.parser: where a start tag ends, its name, and one of its attributes
_START_TAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_START_TAG_CUT = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ=/")
_TAG_NAME = re.compile(r'([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*')
_ATTR = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(?:\s*=+\s*'
    r'(?:\'([^\']*)\'|"([^"]*)"|(?![\'"])([^>\s]*)))?(?:\s|/(?!>))*')
# html.parser: an end tag, and the closer of each raw-text element
_END_TAG = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')
_RAW_TEXT_END = {tag: re.compile(r'</\s*%s\s*>' % tag, re.I)
                 for tag in RAWTEXT_TAGS}
# html.parser: comments and marked sections
_COMMENT_END = re.compile(r'--\s*>')
_DECL_NAME = re.compile(r'[a-zA-Z][-_.a-zA-Z0-9]*\s*')
_MARKED_SECTION_END = re.compile(r']\s*]\s*>')
_MS_MARKED_SECTION_END = re.compile(r']\s*>')

# What the tokenizer reads at a "<": an element start (one that closes
# itself with "/>" never opens), an end tag, text, a comment, or markup the
# tree does not keep (a doctype, a processing instruction, a marked section).
_START, _START_END, _END, _DATA, _COMMENT, _SKIP = (
    "start", "start-end", "end", "data", "comment", "skip")


class _Scan:
    """The page's searches for the end of markup.  A search that finds
    nothing from one position finds nothing from any later one, so each
    pattern remembers where its search failed, and a ``>`` is looked for
    only before the page's last one: unterminated comments and marked
    sections cost one scan of the page, not one per opener."""

    __slots__ = ("text", "_last_gt", "_failed")

    def __init__(self, text: str):
        self.text = text
        self._last_gt = text.rfind(">")
        self._failed: dict[re.Pattern, int] = {}    # pattern -> where its search failed

    def gt(self, i: int) -> int:
        """``text.find(">", i)``."""
        return self.text.find(">", i) if i <= self._last_gt else -1

    def search(self, pattern: re.Pattern, i: int):
        """``pattern.search(text, i)``."""
        if i >= self._failed.get(pattern, len(self.text) + 1):
            return None
        m = pattern.search(self.text, i)
        if m is None:
            self._failed[pattern] = i
        return m


def _cut_off(scan: _Scan, i: int):
    """Markup at ``i`` that the end of the input cuts off: text up to the
    next ``>`` (or ``<``)."""
    text = scan.text
    end = scan.gt(i + 1) + 1
    if not end:
        end = text.find("<", i + 1)
        if end < 0:
            end = i + 1
    return end, _DATA, unescape(text[i:end]), None


def _start_tag(scan: _Scan, i: int, j: int):
    """The start tag at ``i`` whose ``_START_TAG_END`` match ends at ``j``:
    quoted, unquoted and bare values, character references decoded, the
    first of duplicate attributes kept.  A tag that does not end in ``>``
    or ``/>`` is text."""
    text = scan.text
    following = text[j:j + 1]
    if following == ">":
        end = j + 1
    elif following == "/" and text.startswith("/>", j):
        end = j + 2
    elif not following or following in _START_TAG_CUT:
        return _cut_off(scan, i)    # html.parser waits for more input
    else:
        end = j     # bogus input: the tag ends before it
    m = _TAG_NAME.match(text, i + 1)
    tag = m.group(1).lower()
    k = m.end()
    attrs: dict[str, str] = {}
    while k < end:
        m = _ATTR.match(text, k)
        if m is None:
            break
        name, single, double, bare = m.groups("")
        value = single or double or bare
        attrs.setdefault(name.lower(), unescape(value))
        k = m.end()
    closer = text[k:end].strip()
    if closer == ">":
        return end, _START, tag, attrs
    if closer == "/>":
        return end, _START_END, tag, attrs
    return end, _DATA, text[i:end], None


def _marked_section_end(scan: _Scan, i: int) -> int:
    """End of the marked section ``<![name ...`` at ``i``, or -1 when it is
    cut off.  An unknown or missing name raises :class:`ParseError`, as
    html.parser gives up on it."""
    text = scan.text
    j = i + 3
    m = _DECL_NAME.match(text, j)
    if m is None:
        if j == len(text):
            return -1
        raise ParseError(
            f"document does not parse: expected name token at {text[i:i + 20]!r}")
    if m.end() == len(text):
        return -1
    name = m.group().strip().lower()
    if name in ("temp", "cdata", "ignore", "include", "rcdata"):
        m = scan.search(_MARKED_SECTION_END, j)
    elif name in ("if", "else", "endif"):
        m = scan.search(_MS_MARKED_SECTION_END, j)
    else:
        raise ParseError("document does not parse: unknown status keyword "
                         f"{text[j:m.end()]!r} in marked section")
    return -1 if m is None else m.end()


def _markup(scan: _Scan, i: int):
    """``(end, kind, value, attrs)`` for the markup at the ``<`` at ``i``,
    outside raw text, that is neither a start tag nor read by ``_END_TAG``.
    ``value`` is the tag name, the text or the comment."""
    text = scan.text
    if text.startswith("</", i):
        gt = scan.gt(i + 2)
        if gt >= 0:
            m = _TAG_NAME.match(text, i + 2)
            if m is not None:
                # anything between the name and the first ">" is ignored
                return text.find(">", m.end()) + 1, _END, m.group(1).lower(), None
            if text.startswith("</>", i):
                return i + 3, _SKIP, "", None
            return gt + 1, _COMMENT, text[i + 2:gt], None
    elif text.startswith("<!--", i):
        m = scan.search(_COMMENT_END, i + 4)
        if m is not None:
            return m.end(), _COMMENT, text[i + 4:m.start()], None
    elif text.startswith("<?", i):
        gt = scan.gt(i + 2)
        if gt >= 0:
            return gt + 1, _SKIP, "", None
    elif text.startswith("<![", i):
        end = _marked_section_end(scan, i)
        if end >= 0:
            return end, _SKIP, "", None
    elif text.startswith("<!", i):
        if text[i:i + 9].lower() == "<!doctype":
            gt = scan.gt(i + 9)
            if gt >= 0:
                return gt + 1, _SKIP, "", None
        else:
            gt = scan.gt(i + 2)
            if gt >= 0:
                return gt + 1, _COMMENT, text[i + 2:gt], None
    else:
        return i + 1, _DATA, "<", None
    return _cut_off(scan, i)


def _build(text: str, top: DomNode) -> None:
    """Append the nodes of ``text`` to ``top``.

    Unclosed tags are auto-closed, an end tag closes up to the innermost
    open element of its name and a stray one is dropped.  Adjacent data
    chunks make one text node; a chunk of whitespace alone is dropped.  The
    text of an unterminated script or style element is dropped."""
    stack = [top]
    children = top.children
    open_count: dict[str, int] = {}   # tag -> elements of that tag on the stack
    run: list[str] = []               # the data chunks of the next text node
    scan = _Scan(text)
    find = text.find
    start_tag_end = _START_TAG_END.match
    end_tag = _END_TAG.match
    n = len(text)
    pos = 0
    while pos < n:
        lt = find("<", pos)
        if lt != pos:
            data = text[pos:lt] if lt >= 0 else text[pos:]
            if "&" in data:
                data = unescape(data)
            if data and not data.isspace():
                run.append(data)
            if lt < 0:
                break
        m = start_tag_end(text, lt)
        if m is not None:
            pos, kind, tag, attrs = _start_tag(scan, lt, m.end())
        else:
            m = end_tag(text, lt)
            if m is not None:
                kind = _END
                tag = m.group(1).lower()
                pos = m.end()
            else:
                pos, kind, tag, attrs = _markup(scan, lt)
        # for data and a comment, ``tag`` is the text or the comment read
        if kind is _DATA:
            if tag and not tag.isspace():
                run.append(tag)
            continue
        if kind is _SKIP or kind is _END and not open_count.get(tag):
            continue    # nothing the tree keeps, or a stray end tag
        if run:
            children.append(DomNode(TEXT, "", "".join(run)))
            run = []
        if kind is _END:
            node = stack.pop()
            while node.tag != tag:
                open_count[node.tag] -= 1
                node = stack.pop()
            open_count[tag] -= 1
            children = stack[-1].children
            continue
        if kind is _COMMENT:
            children.append(DomNode(COMMENT, "", tag))
            continue
        node = DomNode(ELEMENT, tag)
        node.attrs = attrs
        children.append(node)
        if kind is _START_END or tag in VOID_TAGS:
            continue
        stack.append(node)
        children = node.children
        open_count[tag] = open_count.get(tag, 0) + 1
        if tag not in RAWTEXT_TAGS:
            continue
        # raw text runs to the closer; "&" and "<" are plain characters
        closer = _RAW_TEXT_END[tag].search
        while True:
            m = closer(text, pos)
            if m is None:
                pos = n
                break
            lt, end = m.span()
            if lt != pos:
                data = text[pos:lt]
                if not data.isspace():
                    run.append(data)
            pos = end
            m = end_tag(text, lt)
            if m is not None and m.group(1).lower() == tag:
                if run:
                    children.append(DomNode(TEXT, "", "".join(run)))
                    run = []
                stack.pop()
                open_count[tag] -= 1
                children = stack[-1].children
                break
            # a closer only re.I matches, such as "</\u017fcript>"
            run.append(text[lt:end])
    if run:
        children.append(DomNode(TEXT, "", "".join(run)))


def parse_html(text: str | bytes, url: str = "") -> DomTree:
    """Parse an HTML document into a :class:`DomTree`.

    Unclosed tags are auto-closed, unknown tags are kept as elements and an
    empty document yields a bare ``html`` root.  Bytes input must be UTF-8.
    One leading byte-order mark is dropped, as a browser drops it.  A marked
    section with an unknown or missing name (``<![ x``) raises
    :class:`ParseError`.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        text = text[1:]
    top = DomNode(ELEMENT, "html")
    _build(text, top)
    tops = top.children
    if len(tops) == 1 and tops[0].node_type == ELEMENT and tops[0].tag == "html":
        top = tops[0]
    return DomTree(top, url)


def load_page(path, url: str = "") -> DomTree:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_html(data, url)


def _escape_attr(value: str) -> str:
    # values are emitted double-quoted; single quotes stay literal so event
    # handler strings like this.type='submit' survive verbatim
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


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
