"""Text syntax for parameters and the catalog file format.

Expression grammar (whitespace-insensitive)::

    param    := "0" | segment ("(+)" segment)*
    segment  := "St(" INT "," IDENT ")" twist?  |  IDENT twist?
    twist    := "*" "nu" "^" RATIONAL
    RATIONAL := ["+"|"-"] INT ("/" INT)?

A bare identifier means ``St(1, <ident>)``; ``0`` denotes the empty
parameter, which is also how it prints.  Twists are exact rationals; there
is no decimal syntax, so a float can never sneak in through text.  All
parse errors carry a 1-based line/column span pointing into the input.

Catalog files are INI-style sections, one per label::

    [cuspidal.q8]
    dim = 2               # ASCII digits only
    type = symplectic     # or orthogonal | none
    model = q8            # optional built-in model id
    dual = ...            # required iff type = none
    unitary = true        # optional, default true

Loading validates the whole catalog: duals must be mutually declared, and
a declared type must match the Frobenius-Schur indicator of its model.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CatalogError, ConsistencyError, ParseError, quoted
from .group_models import Catalog, CatalogEntry, builtin_models
from .param_core import CuspidalLabel, Segment, SelfDualityType, WDParameter

__all__ = ["parse_param", "print_param", "print_segment", "load_catalog"]


# ---------------------------------------------------------------------------
# lexer


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    @property
    def length(self) -> int:
        return max(1, len(self.text))


_PUNCT = set("(),*^/+-")
# ASCII only: str.isdigit also holds for superscripts, which int() refuses
_DIGITS = set("0123456789")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        if ch == "(" and text.startswith("(+)", i):
            tokens.append(_Token("(+)", "(+)", line, col))
            i += 3
            col += 3
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, 1)
    # end-of-input marker, clamped onto the last column so error spans
    # always point inside the text
    tokens.append(_Token("EOF", "", line, max(1, col - 1)))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token], catalog: Catalog):
        self.tokens = tokens
        self.pos = 0
        self.catalog = catalog

    def peek(self) -> _Token:
        return self.tokens[self.pos]  # advance() never moves past EOF

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, tok.line, tok.col, tok.length)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = quoted(tok.text) if tok.text else "end of input"
            raise self.fail(f"expected {what}, got {got}", tok)
        return self.advance()

    def integer(self, what: str) -> tuple[_Token, int]:
        tok = self.expect("INT", what)
        try:
            return tok, int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise self.fail(f"{what} of {len(tok.text)} digits is too long",
                            tok) from None

    def param(self) -> tuple[Segment, ...]:
        if len(self.tokens) == 2 and self.tokens[0].text == "0":
            return ()
        segments = [self.segment()]
        while self.peek().kind == "(+)":
            self.advance()
            segments.append(self.segment())
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.fail(f"unexpected trailing input {quoted(tok.text)}",
                            tok)
        return tuple(segments)

    def segment(self) -> Segment:
        tok = self.peek()
        if tok.kind != "IDENT":
            got = quoted(tok.text) if tok.text else "end of input"
            raise self.fail(f"expected a segment, got {got}", tok)
        if tok.text == "St":
            self.advance()
            self.expect("(", "'('")
            k_tok, k = self.integer("a block length")
            if k < 1:
                raise self.fail("block length must be at least 1", k_tok)
            self.expect(",", "','")
            name_tok = self.expect("IDENT", "a cuspidal label")
            self.expect(")", "')'")
        else:
            name_tok = self.advance()
            k = 1
        if self.peek().kind != "*":
            return Segment(self.lookup(name_tok), k)
        twist = self.twist()  # a malformed twist is reported first
        return Segment(self.lookup(name_tok), k, twist)

    def lookup(self, tok: _Token) -> CuspidalLabel:
        try:
            return self.catalog.label(tok.text)
        except CatalogError:
            raise CatalogError(
                f"{tok.line}:{tok.col}: unknown cuspidal label "
                f"{quoted(tok.text)}") from None

    def twist(self) -> Fraction:
        self.advance()  # '*'
        nu_tok = self.expect("IDENT", "'nu'")
        if nu_tok.text != "nu":
            raise self.fail(f"expected 'nu', got {quoted(nu_tok.text)}",
                            nu_tok)
        self.expect("^", "'^'")
        return self.rational()

    def rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.advance()
            if tok.kind == "-":
                sign = -1
        numerator = sign * self.integer("an integer")[1]
        if self.peek().kind != "/":
            return Fraction(numerator)
        self.advance()
        den_tok, den = self.integer("a denominator")
        if den == 0:
            raise self.fail("zero denominator", den_tok)
        return Fraction(numerator, den)


def parse_param(text: str, catalog: Catalog) -> WDParameter:
    """Parse an expression like ``St(3,q8) (+) chi3 * nu^1/2``.

    Raises :class:`ParseError` with a span for syntax problems and
    :class:`CatalogError` for identifiers the catalog does not know.
    """
    return WDParameter(_Parser(_lex(text), catalog).param())


def print_param(p: WDParameter) -> str:
    """Canonical text for a parameter; inverse of :func:`parse_param`."""
    if not p.segments:
        return "0"
    return " (+) ".join(map(print_segment, p.segments))


def print_segment(s: Segment) -> str:
    """Canonical text for one segment, as :func:`print_param` writes it."""
    base = s.cuspidal.name if s.k == 1 else f"St({s.k},{s.cuspidal.name})"
    if s.twist:
        base += f" * nu^{s.twist}"
    return base


# ---------------------------------------------------------------------------
# catalog files


_SECTION_PREFIX = "cuspidal."
_KNOWN_KEYS = {"dim", "type", "dual", "model", "unitary"}


def _section_line(text: str, section: str) -> int:
    needle = f"[{section}]"
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith(needle):
            return i
    return 1


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _parse_bool(value: str, where: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConsistencyError(f"{where}: expected a boolean, got {quoted(value)}")


def load_catalog(text: str) -> Catalog:
    """Load and fully validate a catalog from its text form.

    Model ids resolve in the built-in registry.  Raises :class:`ParseError`
    for malformed text and :class:`ConsistencyError` for semantic problems
    (bad duals, indicator mismatches, unknown model ids).
    """
    import configparser  # here, not at the top: a cold start need not load it

    registry = builtin_models()
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None and getattr(exc, "errors", None):
            lineno = exc.errors[0][0]
        first = str(exc).splitlines()[0]
        for value in (getattr(exc, a, None) for a in ("section", "option")):
            if value:  # the name of a duplicate section or key
                first = first.replace(repr(value), quoted(value))
        raise ParseError(f"catalog: {first}", lineno or 1, 1) from None

    entries: dict[str, CatalogEntry] = {}
    for section in parser.sections():
        where = quoted(section, "[{}]")
        if not section.startswith(_SECTION_PREFIX):
            raise ParseError(
                f"catalog: unknown section {where}; expected "
                f"[cuspidal.<name>]", _section_line(text, section), 1)
        name = section[len(_SECTION_PREFIX):]
        keys = {k: _strip_quotes(v) for k, v in parser.items(section)}
        unknown = sorted(set(keys) - _KNOWN_KEYS)
        if unknown:
            listed = ", ".join(map(quoted, unknown))
            raise ConsistencyError(f"{where}: unknown keys [{listed}]")
        for required in ("dim", "type"):
            if required not in keys:
                raise ConsistencyError(f"{where}: missing key {required!r}")
        try:  # ASCII digits, as in expressions: int() also takes "+2", "1_0"
            if not (keys["dim"].isascii() and keys["dim"].isdigit()):
                raise ValueError
            dim = int(keys["dim"])  # refuses more digits than it converts
        except ValueError:  # not ASCII digits, or more than int() takes
            raise ConsistencyError(f"{where}: dim must be an integer, got "
                                   f"{quoted(keys['dim'])}") from None
        try:
            sd_type = SelfDualityType(keys["type"])
        except ValueError:
            raise ConsistencyError(
                f"{where}: type must be one of orthogonal, symplectic, "
                f"none; got {quoted(keys['type'])}") from None
        unitary = _parse_bool(keys.get("unitary", "true"), where)
        model_id = keys.get("model")
        label = CuspidalLabel(name, dim, sd_type,
                              dual_name=keys.get("dual", ""),
                              unitary=unitary, model=model_id)
        model = None
        if model_id is not None:
            model = registry.get(model_id)
            if model is None:
                raise ConsistencyError(
                    f"{where}: unknown model id {quoted(model_id)}; "
                    f"available: {sorted(registry)}")
        entries[name] = CatalogEntry(label, model)

    catalog = Catalog(entries)
    catalog.validate()
    return catalog
