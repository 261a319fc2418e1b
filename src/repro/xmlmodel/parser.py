"""A small, dependency-free XML parser.

The broker accepts documents as text; this parser covers the XML subset the
paper's workloads use: elements, attributes, character data, comments,
processing instructions/prolog, and entity references for the five
predefined entities and for the ``<!ENTITY name "literal">`` declarations
of a DOCTYPE internal subset.  It does not support namespaces, other DTD
declarations or CDATA mixed content subtleties beyond simple
concatenation.

:func:`parse_node` and :func:`parse_document` run on the single-pass
event scanner of :mod:`repro.xmlmodel.stream` (one text walk, ids assigned
while building).  The original recursive-descent :class:`_Parser` is kept
as the reference implementation: the property tests parse every generated
document through both and assert identical trees — and identical
:class:`XmlParseError` messages and positions on malformed input.
"""

from __future__ import annotations

from typing import Optional

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.stream import (
    _ATTR_RE,
    _ENTITY_CHARS,
    _TAG_RE,
    _unescape,
    XmlParseError,
    parse_document_streaming,
    parse_node_streaming,
    skip_doctype,
)

__all__ = ["XmlParseError", "parse_document", "parse_node"]


class _Parser:
    """Reference recursive-descent parser (differential-test oracle only)."""

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

    def parse_element(self) -> XmlNode:
        if self.pos >= len(self.text) or self.text[self.pos] != "<":
            raise self.error("expected element start tag")
        self.pos += 1
        m = _TAG_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected element name")
        tag = m.group(0)
        self.pos = m.end()

        attributes: dict[str, str] = {}
        while True:
            m = _ATTR_RE.match(self.text, self.pos)
            if not m:
                break
            attributes[m.group(1)] = _unescape(m.group(2)[1:-1], self.entities)
            self.pos = m.end()

        # Self-closing?
        rest = self.text[self.pos:]
        stripped = rest.lstrip()
        self.pos += len(rest) - len(stripped)
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return XmlNode(tag, attributes=attributes)
        if not self.text.startswith(">", self.pos):
            raise self.error(f"malformed start tag for <{tag}>")
        self.pos += 1

        node = XmlNode(tag, attributes=attributes)
        text_parts: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error(f"unexpected end of input inside <{tag}>")
            if self.text.startswith("</", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error(f"unterminated end tag for <{tag}>")
                closing = self.text[self.pos + 2 : end].strip()
                if closing != tag:
                    raise self.error(f"mismatched end tag </{closing}> for <{tag}>")
                self.pos = end + 1
                break
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise self.error("unterminated CDATA section")
                text_parts.append(self.text[self.pos + 9 : end])
                self.pos = end + 3
            elif self.text.startswith("<", self.pos):
                node.append(self.parse_element())
            else:
                nxt = self.text.find("<", self.pos)
                if nxt < 0:
                    raise self.error(f"unexpected end of input inside <{tag}>")
                text_parts.append(_unescape(self.text[self.pos : nxt], self.entities))
                self.pos = nxt
        text = "".join(text_parts).strip()
        node.text = text if text else None
        return node


def _parse_node_reference(text: str) -> XmlNode:
    """Reference single-element parse (tests compare against the scanner)."""
    parser = _Parser(text)
    parser.skip_misc()
    node = parser.parse_element()
    parser.skip_misc()
    if parser.pos != len(parser.text):
        raise parser.error("trailing content after the root element")
    return node


def parse_node(text: str) -> XmlNode:
    """Parse XML text and return the root :class:`XmlNode` (no document wrapper)."""
    return parse_node_streaming(text)


def parse_document(
    text: str,
    docid: Optional[str] = None,
    timestamp: float = 0.0,
    stream: str = "S",
) -> XmlDocument:
    """Parse XML text into an :class:`~repro.xmlmodel.document.XmlDocument`."""
    return parse_document_streaming(text, docid=docid, timestamp=timestamp, stream=stream)
