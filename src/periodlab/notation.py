"""Text syntax for parameters and the catalog file format.

Expression grammar (whitespace-insensitive)::

    param    := "0" | segment ("(+)" segment)*
    segment  := "St(" INT "," IDENT ")" twist?  |  IDENT twist?
    twist    := "*" "nu" "^" RATIONAL
    RATIONAL := ["+"|"-"] INT ("/" INT)?

A bare identifier means ``St(1, <ident>)``; ``0`` denotes the empty
parameter, which is also how it prints.  Twists are exact rationals; there
is no decimal syntax, so a float can never sneak in through text.  INT is
ASCII digits; IDENT is a run of ``str.isalnum`` characters and ``_`` that
starts with a letter or ``_``.

Lexing is one ``re.findall`` pass that yields each token with the
whitespace before it, then one loop that assigns every token its kind, so
a bad character anywhere is reported first.  The parser walks the kinds by
index.  All parse errors carry a 1-based line/column span pointing into
the input; a token's position is computed from the text only then.

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

import re
from fractions import Fraction

from .errors import CatalogError, ConsistencyError, ParseError, quoted
from .group_models import Catalog, CatalogEntry, builtin_models
from .param_core import CuspidalLabel, Segment, SelfDualityType, WDParameter

__all__ = ["parse_param", "print_param", "print_segment", "load_catalog"]


# ---------------------------------------------------------------------------
# lexer and parser

# whitespace, then one token: "(+)", ASCII digits (str.isdigit also holds
# for superscripts, which int() refuses), a word, any other character, or
# the end of the text.  \w is str.isalnum() or "_" on every code point.
_TOKEN = re.compile(r"([ \t\r\n]*)(\(\+\)|[0-9]+|\w+|.|\Z)", re.DOTALL)
_KINDS = {t: t for t in ("(+)", *"(),*^/+-")}


class _Parser:
    """Recursive descent over the token kinds, by index."""

    def __init__(self, text: str, catalog: Catalog):
        self.text = text
        self.catalog = catalog
        self.pos = 0
        # (whitespace, token) pairs; findall adds ("", "") after trailing
        # whitespace, so the first empty token is the end of input
        self.pieces = pieces = _TOKEN.findall(text)
        self.kinds = kinds = []
        for i, (_, tok) in enumerate(pieces):
            kind = _KINDS.get(tok)
            if kind is not None:
                kinds.append(kind)
            elif not tok:
                kinds.append("EOF")
                break
            elif "0" <= tok[0] <= "9":
                kinds.append("INT")
            elif tok[0].isalpha() or tok[0] == "_":
                kinds.append("IDENT")
            else:  # checked before parsing, so it is reported first
                raise ParseError(f"unexpected character {tok[0]!r}",
                                 *self.where(i))

    def where(self, i: int) -> tuple[int, int]:
        """1-based line and column of token ``i``; the end of input is
        clamped onto the last column, so a span points inside the text."""
        pieces = self.pieces
        start = len(pieces[i][0]) + sum(len(s) + len(t) for s, t in pieces[:i])
        col = start - self.text.rfind("\n", 0, start)
        if not pieces[i][1]:
            col = max(1, col - 1)
        return self.text.count("\n", 0, start) + 1, col

    def fail(self, message: str, i: int) -> ParseError:
        return ParseError(message, *self.where(i), len(self.pieces[i][1]))

    def got(self, i: int) -> str:
        tok = self.pieces[i][1]
        return quoted(tok) if tok else "end of input"

    def expect(self, kind: str, what: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.fail(f"expected {what}, got {self.got(i)}", i)
        self.pos = i + 1
        return i

    def integer(self, what: str) -> tuple[int, int]:
        i = self.expect("INT", what)
        digits = self.pieces[i][1]
        try:
            return i, int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise self.fail(f"{what} of {len(digits)} digits is too long",
                            i) from None

    def param(self) -> tuple[Segment, ...]:
        if len(self.kinds) == 2 and self.pieces[0][1] == "0":
            return ()
        segments = [self.segment()]
        while self.kinds[self.pos] == "(+)":
            self.pos += 1
            segments.append(self.segment())
        i = self.pos
        if self.kinds[i] != "EOF":
            raise self.fail(
                f"unexpected trailing input {quoted(self.pieces[i][1])}", i)
        return tuple(segments)

    def segment(self) -> Segment:
        i = self.pos
        if self.kinds[i] != "IDENT":
            raise self.fail(f"expected a segment, got {self.got(i)}", i)
        self.pos = i + 1
        if self.pieces[i][1] == "St":
            self.expect("(", "'('")
            k_at, k = self.integer("a block length")
            if k < 1:
                raise self.fail("block length must be at least 1", k_at)
            self.expect(",", "','")
            i = self.expect("IDENT", "a cuspidal label")
            self.expect(")", "')'")
        else:
            k = 1
        if self.kinds[self.pos] != "*":
            return Segment(self.lookup(i), k)
        twist = self.twist()  # a malformed twist is reported first
        return Segment(self.lookup(i), k, twist)

    def lookup(self, i: int) -> CuspidalLabel:
        name = self.pieces[i][1]
        try:
            return self.catalog.label(name)
        except CatalogError:
            line, col = self.where(i)
            raise CatalogError(f"{line}:{col}: unknown cuspidal label "
                               f"{quoted(name)}") from None

    def twist(self) -> Fraction:
        self.pos += 1  # '*'
        i = self.expect("IDENT", "'nu'")
        if self.pieces[i][1] != "nu":
            raise self.fail(f"expected 'nu', got {self.got(i)}", i)
        self.expect("^", "'^'")
        return self.rational()

    def rational(self) -> Fraction:
        sign = 1
        kind = self.kinds[self.pos]
        if kind == "+" or kind == "-":
            self.pos += 1
            if kind == "-":
                sign = -1
        numerator = sign * self.integer("an integer")[1]
        if self.kinds[self.pos] != "/":
            return Fraction(numerator)
        self.pos += 1
        den_at, den = self.integer("a denominator")
        if den == 0:
            raise self.fail("zero denominator", den_at)
        return Fraction(numerator, den)


def parse_param(text: str, catalog: Catalog) -> WDParameter:
    """Parse an expression like ``St(3,q8) (+) chi3 * nu^1/2``.

    Raises :class:`ParseError` with a span for syntax problems and
    :class:`CatalogError` for identifiers the catalog does not know.
    """
    return WDParameter(_Parser(text, catalog).param())


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
