"""Event-driven (SAX-style) single-pass XML scanning.

This module is the ingest fast path: :class:`XmlScanner` walks the text
once and emits ``start``/``text``/``end`` events to a handler, so consumers
can build whatever they need in a single pass — a full node tree
(:class:`TreeBuilder`, behind :func:`repro.xmlmodel.parser.parse_document`)
or Stage-1 witnesses directly (:mod:`repro.xpath.streaming`) without ever
materializing :class:`~repro.xmlmodel.node.XmlNode` objects.

Given a :func:`leaf_run_pattern`, a run of leaves whose tags the consumer
never reads reaches it as one ``leaves`` call; :func:`validate_text` is the
same scan with every leaf run inert and every event dropped.

The scanner accepts exactly the XML subset of the original recursive
parser (:class:`repro.xmlmodel.parser._Parser`, kept as the reference
implementation for differential tests): elements, attributes, character
data, CDATA, comments, a prolog/DOCTYPE before the root, decimal and hex
character references, the five predefined entities and the ``<!ENTITY name
"literal">`` declarations of a DOCTYPE internal subset (undeclared names
stay verbatim).  Error messages
and reported positions are identical — property tests assert parity on
malformed inputs.
"""

from __future__ import annotations

import functools
import re
from types import SimpleNamespace

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode

_TAG_RE = re.compile(r"[A-Za-z_][\w.\-:]*")
_ATTR_RE = re.compile(r"\s*([A-Za-z_][\w.\-:]*)\s*=\s*(\"[^\"]*\"|'[^']*')")
#: A run of complete, attribute-free leaf elements (``<tag>text</tag>``),
#: the dominant shape of element-dense documents.  The scanner consumes a
#: whole run in one C-level match; the per-iteration backreference pins
#: each end tag to its own start tag, and the possessive quantifiers keep
#: a failed continuation from re-scanning the run.  Anything the pattern
#: does not cover (attributes, children, markup in text) falls back to the
#: general loop at the exact position the run ended.
_LEAF_RUN = r"(?:\s*<{}([A-Za-z_][\w.\-:]*+)>[^<]*</\1>)++"
_LEAF_RUN_RE = re.compile(_LEAF_RUN.format(""))
#: Over a matched run that starts at a ``<``, ``findall`` yields each
#: leaf's raw text, alternating with the whitespace before the next leaf.
_LEAF_TEXT_RE = re.compile(r">([^<]*)<")
#: A DOCTYPE with an optional internal subset (quoted literals and comments
#: may hold ``]`` or ``>``); group 1 is the subset.
_DOCTYPE_RE = re.compile(
    r"<!DOCTYPE[^\[>]*+"
    r"(?:\[((?:<!--.*?-->|\"[^\"]*\"|'[^']*'|[^\]\"'])*+)\]\s*)?>",
    re.DOTALL,
)
_ENTITY_DECL_RE = re.compile(r"<!ENTITY\s+([A-Za-z_][\w.\-:]*)\s+([\"'])(.*?)\2\s*>", re.S)
#: Entity and character references are decoded in a single pass:
#: ``&amp;quot;`` is one ``&amp;`` followed by literal ``quot;`` and must
#: decode to ``&quot;``, never to ``"`` (the sequential str.replace
#: implementation double-decoded).  Group 1 is a decimal code point, group 2
#: a hex one, group 3 an entity name.
_ENTITY_RE = re.compile(r"&(?:#([0-9]+)|#x([0-9A-Fa-f]+)|([A-Za-z_][\w.\-:]*));")
_ENTITY_CHARS = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


class XmlParseError(ValueError):
    """Raised when the input text is not well-formed (for the supported subset)."""


def _is_xml_char(code: int) -> bool:
    """Whether ``code`` is in XML 1.0's ``Char`` production (section 2.2)."""
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def _unescape(text: str, entities: dict[str, str] = _ENTITY_CHARS) -> str:
    """Decode character references and the entities ``entities`` names.

    Any other entity reference stays verbatim; a character reference to a
    code point XML does not allow raises :class:`XmlParseError`.
    """
    if "&" not in text:
        return text

    def decode(m: "re.Match[str]") -> str:
        if m.group(3) is not None:
            return entities.get(m.group(3), m.group(0))
        code = int(m.group(1)) if m.group(1) is not None else int(m.group(2), 16)
        if not _is_xml_char(code):
            raise XmlParseError(f"character reference {m.group(0)} is not an XML character")
        return chr(code)

    return _ENTITY_RE.sub(decode, text)


def skip_doctype(text: str, pos: int) -> tuple[int, dict[str, str]] | None:
    """``(end, entities)`` of the DOCTYPE at ``pos``; ``None`` if unterminated.

    ``entities`` adds each ``<!ENTITY name "literal">`` of the internal
    subset, as written, to the predefined five.
    """
    m = _DOCTYPE_RE.match(text, pos)
    if not m:
        return None
    declared = {name: value for name, _, value in _ENTITY_DECL_RE.findall(m.group(1) or "")}
    return m.end(), {**declared, **_ENTITY_CHARS} if declared else _ENTITY_CHARS


@functools.lru_cache(maxsize=256)
def leaf_run_pattern(named: frozenset[str]) -> "re.Pattern[str]":
    """The leaf-run pattern for a consumer that reads the tags in ``named``.

    A run stops before any leaf whose tag is in ``named``; cached, so a
    consumer rebuilt with the same tag set gets the same compiled pattern.
    """
    if not named:
        return _LEAF_RUN_RE
    names = "|".join(sorted(re.escape(tag) for tag in named))
    return re.compile(_LEAF_RUN.format(f"(?!(?:{names})>)"))


class XmlScanner:
    """A cursor over XML text emitting parse events in document order.

    The handler duck type::

        handler.start(tag, attributes)   # element start (attributes: dict)
        handler.text(data)               # one unescaped character-data part
        handler.end()                    # element end (matches the last open start)
        handler.leaves(text, start, end, entities)  # text[start:end]: a leaf run

    A self-closing element emits ``start`` immediately followed by ``end``.
    Comments, processing instructions and DOCTYPE are skipped silently.
    ``leaves`` comes only from a scan given a leaf-run pattern, at a child
    start; ``entities`` is the document's entity table.
    """

    __slots__ = ("text", "pos", "entities")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.entities = _ENTITY_CHARS

    def error(self, message: str) -> XmlParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        return XmlParseError(f"{message} (near position {self.pos}, line {line})")

    def skip_misc(self) -> None:
        """Skip whitespace, comments, processing instructions and the prolog."""
        while self.pos < len(self.text):
            if self.text[self.pos].isspace():
                self.pos += 1
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!DOCTYPE", self.pos):
                doctype = skip_doctype(self.text, self.pos)
                if doctype is None:
                    raise self.error("unterminated DOCTYPE")
                self.pos, self.entities = doctype
            else:
                return

    def scan(self, handler, leaf_run: "re.Pattern[str] | None" = None) -> None:
        """Scan one element (with its subtree) starting at the cursor.

        With a ``leaf_run`` pattern, every run of leaves it matches at a
        child start goes to ``handler.leaves`` in one call.
        The loop body keeps the cursor in a local and dispatches on the
        character *after* a ``<`` (name start / ``/`` / ``!``): this is the
        per-event hot path of tree building and text scanning alike, so it
        avoids attribute round trips and prefix probes that a profile shows
        dominating.
        ``self.pos`` is synced back before every raise so error positions
        match the reference parser exactly.
        """
        text = self.text
        length = len(text)
        pos = self.pos
        entities = self.entities
        emit_start = handler.start
        emit_text = handler.text
        emit_end = handler.end
        leaf_match = None if leaf_run is None else leaf_run.match
        emit_leaves = None if leaf_run is None else handler.leaves
        tag_match = _TAG_RE.match
        attr_match = _ATTR_RE.match
        stack: list[str] = []
        while True:
            # One start tag at the cursor.
            if pos >= length or text[pos] != "<":
                self.pos = pos
                raise self.error("expected element start tag")
            m = tag_match(text, pos + 1)
            if not m:
                self.pos = pos + 1
                raise self.error("expected element name")
            tag = m.group(0)
            pos = m.end()

            attributes: dict[str, str] = {}
            # The first attribute always follows whitespace (a name char
            # would still be part of the tag), so attr-less elements — the
            # common case — skip the regex probe entirely.
            if pos < length and text[pos] in " \t\r\n":
                while True:
                    m = attr_match(text, pos)
                    if not m:
                        break
                    attributes[m.group(1)] = _unescape(m.group(2)[1:-1], entities)
                    pos = m.end()

            while pos < length and text[pos].isspace():
                pos += 1
            head = text[pos] if pos < length else ""
            if head == ">":
                pos += 1
                emit_start(tag, attributes)
                stack.append(tag)
            elif head == "/" and text.startswith("/>", pos):
                pos += 2
                emit_start(tag, attributes)
                emit_end()
                if not stack:
                    self.pos = pos
                    return
            else:
                self.pos = pos
                raise self.error(f"malformed start tag for <{tag}>")

            # Content of the innermost open element, up to either its end
            # tag (possibly closing ancestors too) or a child start tag.
            while stack:
                if pos >= length:
                    self.pos = pos
                    raise self.error(f"unexpected end of input inside <{stack[-1]}>")
                if text[pos] != "<":
                    nxt = text.find("<", pos)
                    if nxt < 0:
                        self.pos = pos
                        raise self.error(
                            f"unexpected end of input inside <{stack[-1]}>"
                        )
                    emit_text(_unescape(text[pos:nxt], entities))
                    pos = nxt
                    continue
                head = text[pos + 1] if pos + 1 < length else ""
                if head == "/":
                    open_tag = stack[-1]
                    end = pos + 2 + len(open_tag)
                    if text.startswith(open_tag, pos + 2) and text.startswith(
                        ">", end
                    ):
                        pos = end + 1  # the overwhelmingly common exact match
                    else:
                        end = text.find(">", pos)
                        if end < 0:
                            self.pos = pos
                            raise self.error(
                                f"unterminated end tag for <{open_tag}>"
                            )
                        closing = text[pos + 2 : end].strip()
                        if closing != open_tag:
                            self.pos = pos
                            raise self.error(
                                f"mismatched end tag </{closing}> for <{open_tag}>"
                            )
                        pos = end + 1
                    stack.pop()
                    emit_end()
                elif head != "!":
                    if leaf_match is not None:
                        m = leaf_match(text, pos)
                        if m:
                            end = m.end()
                            if text.find("&#", pos, end) >= 0:
                                # a run's text may go unread, not unchecked
                                _unescape(text[pos:end])
                            emit_leaves(text, pos, end, entities)
                            pos = end
                            continue
                    break  # a child element; the outer loop parses its start tag
                elif text.startswith("<!--", pos):
                    end = text.find("-->", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated comment")
                    pos = end + 3
                elif text.startswith("<![CDATA[", pos):
                    end = text.find("]]>", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated CDATA section")
                    emit_text(text[pos + 9 : end])
                    pos = end + 3
                else:
                    break  # "<!" with no known form: fails as a start tag
            if not stack:
                self.pos = pos
                return


def _drop(*_args) -> None:
    pass


#: The handler of a validation-only scan: every event is dropped.
_DISCARD = SimpleNamespace(start=_drop, text=_drop, end=_drop, leaves=_drop)


def _scan_document(text: str, handler, leaf_run) -> None:
    scanner = XmlScanner(text)
    scanner.skip_misc()
    scanner.scan(handler, leaf_run)
    scanner.skip_misc()
    if scanner.pos != len(text):
        raise scanner.error("trailing content after the root element")


def scan_text(text: str, handler, leaf_run: "re.Pattern[str] | None" = None) -> None:
    """Scan a whole document: prolog, one root element, trailing misc."""
    _scan_document(text, handler, leaf_run)


def validate_text(text: str) -> None:
    """Validate a whole document without building anything.

    The scan of :func:`scan_text` with nothing live (not a call of it, so
    the two never nest): raises the same :class:`XmlParseError`.
    """
    _scan_document(text, _DISCARD, _LEAF_RUN_RE)


class TreeBuilder:
    """Build an :class:`XmlNode` tree from scan events in a single pass.

    Pre-order ids, post-order ids, depths and parent links are assigned as
    the events arrive (pre id = start-event count, post id = end-event
    count), so the finished tree needs no ``_assign_ids`` walk.
    """

    __slots__ = ("root", "nodes", "_stack", "_parts", "_post")

    def __init__(self):
        self.root: XmlNode | None = None
        self.nodes: list[XmlNode] = []
        self._stack: list[XmlNode] = []
        self._parts: list[list[str]] = []
        self._post = 0

    def start(self, tag: str, attributes: dict[str, str]) -> None:
        node = XmlNode(tag, attributes=attributes)
        nodes = self.nodes
        node.node_id = len(nodes)
        stack = self._stack
        if stack:
            parent = stack[-1]
            node.parent = parent
            node.depth = parent.depth + 1
            parent.children.append(node)
        else:
            self.root = node
        nodes.append(node)
        stack.append(node)
        self._parts.append([])

    def text(self, data: str) -> None:
        self._parts[-1].append(data)

    def end(self) -> None:
        node = self._stack.pop()
        node.text = "".join(self._parts.pop()).strip() or None
        node.post_id = self._post
        self._post += 1


def parse_node_streaming(text: str) -> XmlNode:
    """Parse XML text into a fully-indexed root :class:`XmlNode`."""
    builder = TreeBuilder()
    scan_text(text, builder)
    return builder.root


def parse_document_streaming(
    text: str,
    docid: str | None = None,
    timestamp: float = 0.0,
    stream: str = "S",
) -> XmlDocument:
    """Parse XML text into an :class:`XmlDocument` in a single pass."""
    builder = TreeBuilder()
    scan_text(text, builder)
    return XmlDocument.from_indexed(
        builder.root, builder.nodes, docid=docid, timestamp=timestamp, stream=stream
    )
