"""Recursive-descent parser for the paper's MDX subset.

Grammar (informal)::

    expression := axis_clause+ 'CONTEXT' ident filter?
    axis_clause := axis_expr 'on' axis_name
    axis_expr  := set | nest | member_path | tuple
    nest       := 'NEST' '(' nest_arg (',' nest_arg)* ')'
    nest_arg   := set | tuple | member_path
    set        := '{' set_elem (',' set_elem)* '}'
    set_elem   := member_path | tuple
    tuple      := '(' member_path (',' member_path)* ')'
    member_path := segment ('.' segment)*
    filter     := 'FILTER' '(' member_path (',' member_path)* ')'

Axis clauses may appear in any order; each axis name may be used once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast import (
    AXIS_NAMES,
    AxisClause,
    AxisExpr,
    MdxExpression,
    MemberPath,
    NestExpr,
    SetElement,
    SetExpr,
    TupleExpr,
)
from .lexer import MdxSyntaxError, TokenType, lex


_IDENT, _EOF = TokenType.IDENT, TokenType.EOF
_LBRACE, _RBRACE = TokenType.LBRACE, TokenType.RBRACE
_LPAREN, _RPAREN = TokenType.LPAREN, TokenType.RPAREN
_COMMA, _DOT = TokenType.COMMA, TokenType.DOT


class _Parser:
    """Walks the lexer's ``(type, value, position, keyword)`` tuples by
    index: ``self.tokens[self.pos]`` is the token under the cursor, and the
    cursor never moves past the closing EOF."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = lex(text)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def fail(self, message: str, position: Optional[int] = None):
        """Raise ``message`` at ``position`` (the current token's)."""
        if position is None:
            position = self.tokens[self.pos][2]
        raise MdxSyntaxError(message, self.text, position)

    def expect(self, token_type: TokenType, what: str) -> str:
        """Consume a token of the given type and return its value, or
        raise with context."""
        token = self.tokens[self.pos]
        if token[0] is not token_type:
            self.fail(f"expected {what}, found {token[1]!r}")
        if token_type is not _EOF:
            self.pos += 1
        return token[1]

    def expect_keyword(self, keyword: str) -> None:
        """Consume the given keyword or raise with context."""
        token = self.tokens[self.pos]
        if token[3] != keyword:
            self.fail(f"expected {keyword}, found {token[1]!r}")
        self.pos += 1

    def comma(self) -> bool:
        """Consume a comma if one is under the cursor."""
        if self.tokens[self.pos][0] is _COMMA:
            self.pos += 1
            return True
        return False

    # -- grammar --------------------------------------------------------------

    def parse(self) -> MdxExpression:
        """Parse the textual form into an instance."""
        tokens = self.tokens
        axes: List[AxisClause] = []
        while tokens[self.pos][3] != "CONTEXT":
            if tokens[self.pos][0] is _EOF:
                self.fail("expected CONTEXT clause before end of input")
            axes.append(self.parse_axis_clause())
        self.pos += 1
        cube = self.expect(_IDENT, "cube name")
        slicer: Tuple[MemberPath, ...] = ()
        if tokens[self.pos][3] == "FILTER":
            self.pos += 1
            self.expect(_LPAREN, "'(' after FILTER")
            slicer = tuple(self.parse_paths())
            self.expect(_RPAREN, "')' closing FILTER")
        if tokens[self.pos][0] is not _EOF:
            self.fail(f"unexpected trailing input {tokens[self.pos][1]!r}")
        if not axes:
            self.fail("an MDX expression needs at least one axis", 0)
        seen = set()
        for clause in axes:
            if clause.axis in seen:
                self.fail(f"axis {clause.axis} used twice", 0)
            seen.add(clause.axis)
        return MdxExpression(axes=tuple(axes), cube=cube, slicer=slicer)

    def parse_axis_clause(self) -> AxisClause:
        """axis_expr 'on' axis_name."""
        expr = self.parse_axis_expr()
        self.expect_keyword("ON")
        _type, value, position, axis = self.tokens[self.pos]
        if _type is not _EOF:
            self.pos += 1
        if axis not in AXIS_NAMES:
            self.fail(f"unknown axis {value!r}", position)
        return AxisClause(expr=expr, axis=axis)

    def parse_axis_expr(self) -> AxisExpr:
        """set | nest | tuple | member_path."""
        token_type, _value, _position, keyword = self.tokens[self.pos]
        if keyword == "NEST":
            return self.parse_nest()
        if token_type is _LBRACE:
            return self.parse_set()
        if token_type is _LPAREN:
            return self.parse_tuple()
        return self.parse_member_path()

    def parse_nest(self) -> NestExpr:
        """NEST '(' nest_arg (',' nest_arg)* ')'."""
        self.pos += 1
        self.expect(_LPAREN, "'(' after NEST")
        args: List = [self.parse_nest_arg()]
        while self.comma():
            args.append(self.parse_nest_arg())
        self.expect(_RPAREN, "')' closing NEST")
        return NestExpr(args=tuple(args))

    def parse_nest_arg(self):
        """A NEST argument; parenthesized lists act as sets."""
        token_type = self.tokens[self.pos][0]
        if token_type is _LBRACE:
            return self.parse_set()
        if token_type is _LPAREN:
            # The paper writes NEST's arguments with parentheses acting as
            # sets — NEST({Venkatrao, Netz}, (USA_North.CHILDREN, USA_South,
            # Japan)) — so a parenthesized NEST argument is a set; tuples
            # inside a NEST argument are written within braces: {(a, b)}.
            return SetExpr(elements=self.parse_tuple().items)
        return self.parse_member_path()

    def parse_set(self) -> SetExpr:
        """'{' set_elem (',' set_elem)* '}', a set_elem being a member path
        or a parenthesized tuple."""
        self.expect(_LBRACE, "'{'")
        elements: List[SetElement] = []
        while True:
            if self.tokens[self.pos][0] is _LPAREN:
                elements.append(self.parse_tuple())
            else:
                elements.append(self.parse_member_path())
            if not self.comma():
                break
        self.expect(_RBRACE, "'}'")
        return SetExpr(elements=tuple(elements))

    def parse_tuple(self) -> TupleExpr:
        """'(' member_path (',' member_path)* ')'."""
        self.expect(_LPAREN, "'('")
        items = tuple(self.parse_paths())
        self.expect(_RPAREN, "')'")
        return TupleExpr(items=items)

    def parse_paths(self) -> List[MemberPath]:
        """member_path (',' member_path)*."""
        paths = [self.parse_member_path()]
        while self.comma():
            paths.append(self.parse_member_path())
        return paths

    def parse_member_path(self) -> MemberPath:
        """Dotted member reference."""
        segments = [self.expect(_IDENT, "member reference")]
        tokens = self.tokens
        while tokens[self.pos][0] is _DOT:
            self.pos += 1
            segments.append(self.expect(_IDENT, "path segment"))
        return MemberPath(segments=tuple(segments))


def parse_mdx(text: str) -> MdxExpression:
    """Parse one MDX expression."""
    return _Parser(text).parse()
