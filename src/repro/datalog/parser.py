"""Parser for the textual DATALOG / IDLOG / DATALOG^C syntax.

The surface syntax used throughout this repository mirrors the paper's::

    select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
    all_depts(Dept)      :- emp[2](Name, Dept, 0).
    select_emp(Name)     :- emp(Name, Dept), choice((Dept), (Name)).
    man(X)               :- sex_guess[1](X, male, 1).
    p2(X, N)             :- q(X, N), +(L, M, N).
    sum(M)               :- q(N, L), M = N + L.
    odd(N)               :- num(N), mod(N, 2, 1).
    lone(X)              :- node(X), not linked(X).
    emp(ann, toys).

Conventions:

* Variables start with an uppercase letter or ``_``; u-constants are
  lowercase identifiers or quoted strings; i-constants are digit sequences.
* ``p[1,2](...)`` is the ID-version of ``p`` grouped by argument positions
  1 and 2 (1-based); ``p[](...)`` is the ungrouped ``p[∅]``.
* Arithmetic predicates may be written prefix (``+(N, L, M)``) or via the
  infix sugar ``M = N + L``; comparisons are infix (``N < 2``, ``X != Y``).
* ``not`` negates a literal; ``%`` starts a comment running to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import ParseError
from .ast import Atom, ChoiceAtom, Clause, Literal, Program
from .terms import Const, Term, Var

_PUNCT = (":-", "<=", ">=", "!=", "(", ")", "[", "]", ",", ".",
          "<", ">", "=", "+", "-", "*", "/", "|")
_COMPARISONS = frozenset({"<", "<=", ">", ">=", "=", "!="})


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'ident', 'var', 'number', 'string', 'punct', 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> Iterator[_Token]:
    """Yield tokens for ``text``, ending with a single ``eof`` token."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield _Token("number", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() or word[0] == "_" else "ident"
            yield _Token(kind, word, line, start_col)
            col += j - i
            i = j
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            chars = []
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    chars.append(text[j + 1])
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, start_col)
            yield _Token("string", "".join(chars), line, start_col)
            col += j + 1 - i
            i = j + 1
            continue
        matched = None
        for punct in _PUNCT:
            if text.startswith(punct, i):
                matched = punct
                break
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        yield _Token("punct", matched, line, start_col)
        col += len(matched)
        i += len(matched)
    yield _Token("eof", "", line, col)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self._tokens = list(tokenize(text))
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, got {tok.text or tok.kind!r}",
                tok.line, tok.column)
        return tok

    def _at_punct(self, text: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok.kind == "punct" and tok.text == text

    # -- grammar ----------------------------------------------------------

    def program(self, name: str = "program") -> Program:
        clauses = []
        while self._peek().kind != "eof":
            clauses.append(self.clause())
        return Program(tuple(clauses), name=name)

    def clause(self) -> Clause:
        head = self._atom()
        body: tuple[Literal, ...] = ()
        if self._at_punct(":-"):
            self._next()
            body = tuple(self._body_literals())
        self._expect("punct", ".")
        return Clause(head, body)

    def _body_literals(self) -> Iterator[Literal]:
        while True:
            yield self._literal()
            if self._at_punct(","):
                self._next()
            else:
                return

    def _literal(self) -> Literal:
        if self._peek().kind == "ident" and self._peek().text == "not":
            self._next()
            return Literal(self._body_atom(), positive=False)
        return Literal(self._body_atom(), positive=True)

    @staticmethod
    def _choice_count(name: str) -> Optional[int]:
        """``choice`` -> 1, ``choice2`` -> 2, ...; None for other names."""
        if not name.startswith("choice"):
            return None
        suffix = name[len("choice"):]
        if not suffix:
            return 1
        if suffix.isdigit() and int(suffix) >= 1:
            return int(suffix)
        return None

    def _body_atom(self):
        tok = self._peek()
        if tok.kind == "ident" and self._choice_count(tok.text) is not None \
                and self._at_punct("(", 1) and self._at_punct("(", 2):
            return self._choice_atom()
        starts_atom = (
            (tok.kind == "ident" and (self._at_punct("(", 1) or self._at_punct("[", 1)))
            or (tok.kind == "punct" and tok.text in ("+", "-", "*", "/")
                and self._at_punct("(", 1)))
        if starts_atom:
            return self._atom()
        return self._comparison_or_arith()

    def _choice_atom(self) -> ChoiceAtom:
        tok = self._expect("ident")
        count = self._choice_count(tok.text)
        if count is None:
            raise ParseError(f"expected a choice operator, got {tok.text!r}",
                             tok.line, tok.column)
        self._expect("punct", "(")
        self._expect("punct", "(")
        domain = tuple(self._var_list())
        self._expect("punct", ")")
        self._expect("punct", ",")
        self._expect("punct", "(")
        range_ = tuple(self._var_list())
        self._expect("punct", ")")
        self._expect("punct", ")")
        return ChoiceAtom(domain, range_, count)

    def _var_list(self) -> Iterator[Var]:
        if self._at_punct(")"):
            return
        while True:
            tok = self._expect("var")
            yield Var(tok.text)
            if self._at_punct(","):
                self._next()
            else:
                return

    def _atom(self) -> Atom:
        tok = self._next()
        if tok.kind == "ident" or (tok.kind == "punct"
                                   and tok.text in ("+", "-", "*", "/")):
            name = tok.text
        else:
            raise ParseError(
                f"expected a predicate name, got {tok.text or tok.kind!r}",
                tok.line, tok.column)
        group: Optional[frozenset[int]] = None
        if self._at_punct("["):
            self._next()
            positions = []
            while not self._at_punct("]"):
                num = self._expect("number")
                positions.append(int(num.text))
                if self._at_punct(","):
                    self._next()
            self._expect("punct", "]")
            group = frozenset(positions)
        self._expect("punct", "(")
        args: list[Term] = []
        if not self._at_punct(")"):
            while True:
                args.append(self._term())
                if self._at_punct(","):
                    self._next()
                else:
                    break
        self._expect("punct", ")")
        return Atom(name, tuple(args), group)

    def _term(self) -> Term:
        tok = self._next()
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "number":
            return Const(int(tok.text))
        if tok.kind in ("ident", "string"):
            return Const(tok.text)
        raise ParseError(
            f"expected a term, got {tok.text or tok.kind!r}",
            tok.line, tok.column)

    def _comparison_or_arith(self) -> Atom:
        left = self._term()
        op_tok = self._next()
        if op_tok.kind != "punct" or op_tok.text not in _COMPARISONS:
            raise ParseError(
                f"expected a comparison operator, got "
                f"{op_tok.text or op_tok.kind!r}", op_tok.line, op_tok.column)
        right = self._term()
        if op_tok.text == "=" and (self._at_arith_op()):
            arith = self._next().text
            operand = self._term()
            # M = N + L  desugars to  +(N, L, M)
            return Atom(arith, (right, operand, left))
        return Atom(op_tok.text, (left, right))

    def _at_arith_op(self) -> bool:
        tok = self._peek()
        if tok.kind == "punct" and tok.text in ("+", "-", "*", "/"):
            return True
        return tok.kind == "ident" and tok.text == "mod"


HeadBodyClause = tuple[tuple[Literal, ...], tuple[Literal, ...]]
"""A generalized clause: (head literals, body literals)."""


def parse_head_body_clauses(text: str,
                            head_separator: str = ",",
                            ) -> list[HeadBodyClause]:
    """Parse clauses whose heads are literal *lists*, not single atoms.

    Used by language front ends richer than Datalog: DL heads are
    conjunctions (``,``-separated, possibly with invented values),
    N-DATALOG heads may contain negative literals (deletions), and
    DATALOG^∨ heads are disjunctions (``|``-separated).  The caller chooses
    the separator; bodies use the ordinary literal syntax.

    Returns:
        One (heads, body) pair per clause; ``body`` is empty for facts.
    """
    parser = _Parser(text)
    clauses: list[HeadBodyClause] = []
    while parser._peek().kind != "eof":
        heads = [parser._literal()]
        while parser._at_punct(head_separator):
            parser._next()
            heads.append(parser._literal())
        body: tuple[Literal, ...] = ()
        if parser._at_punct(":-"):
            parser._next()
            body = tuple(parser._body_literals())
        parser._expect("punct", ".")
        clauses.append((tuple(heads), body))
    return clauses


def parse_program(text: str, name: str = "program") -> Program:
    """Parse a full program from source text.

    Raises:
        ParseError: on any lexical or syntactic error, with location info.
    """
    return _Parser(text).program(name)


def parse_clause(text: str) -> Clause:
    """Parse a single clause (must consume the entire input)."""
    parser = _Parser(text)
    clause = parser.clause()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise ParseError("trailing input after clause",
                         trailing.line, trailing.column)
    return clause


def parse_atom(text: str) -> Atom:
    """Parse a single atom (must consume the entire input)."""
    parser = _Parser(text)
    atom = parser._atom()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise ParseError("trailing input after atom",
                         trailing.line, trailing.column)
    return atom
