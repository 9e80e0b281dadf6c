"""Parser for compact structure-equation and form notation.

Grammar (whitespace insignificant everywhere):

    equations := ["("] entry ("," entry)* [")"] ;
    entry     := "0" ["^" nat] | sum ;
    sum       := ["-"] term (("+"|"-") term)* ;
    term      := [rational "*"] monomial ;
    monomial  := digit+                     (only for dim <= 9)
               | "[" nat ("," nat)* "]" ;
    rational  := nat ["/" nat] ;

A structure entry is a 2-form, so its monomials carry exactly two
indices; the same sum grammar parses forms of any degree (omega, test
forms), where a digit run of length k or a k-entry bracket denotes a
k-index monomial.  `0^j` expands to j zero entries.  Indices may come
unsorted ("62" means -e^26) and a repeated index makes the term vanish.

Every syntax error carries the 0-based position in the input text.

Dimensions run from 2 to `MAX_DIM`.  The bound is checked on a `0^j`
count before it is expanded, on the inferred or given dimension of a
structure, and on the dimension `parse_form` is asked for, so oversized
text fails with a ParseError before any monomial basis is built.

`parse_form(text, dim, degree=0)` reads a constant instead: an optional
sign and a rational (`5`, `-3/7`), which is how `render_form` writes a
nonzero degree-0 form.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Frozen, Value
from .errors import EntryCountMismatch, IndexOutOfRange, ParseError
from .exterior import MAX_DIM, Form, sort_with_sign

__all__ = [
    "MAX_DIM",
    "parse_structure_equations",
    "parse_form",
    "render_structure",
    "StructureEquations",
]


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ParseError(f"dimension {dim} is below 2")
    if dim > MAX_DIM:
        raise ParseError(f"dimension {dim} exceeds MAX_DIM = {MAX_DIM}")


def _is_digit(ch: str) -> bool:
    """An ASCII digit; str.isdigit also accepts characters int() rejects ("²")."""
    return "0" <= ch <= "9"


def _to_int(text: str, position: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number of {len(text)} digits is too long", position) from None


class StructureEquations(Frozen):
    """Differentials of the coframe: entry k is d e^{k+1}, a 2-form."""

    _fields = ("dim", "differentials", "source_text")

    def __init__(self, dim: int, differentials: tuple[Form, ...], source_text: str = ""):
        if len(differentials) != dim:
            raise ValueError("need one differential per generator")
        for entry in differentials:
            if entry.dim != dim:
                raise ValueError("differential over wrong ambient dimension")
            if not entry.is_zero() and entry.degree != 2:
                raise ValueError("differentials must be 2-forms")
        self.__dict__.update(dim=dim, differentials=differentials, source_text=source_text)


class _RawTerm(Value):
    _fields = ("coeff", "indices", "position", "digit_run")

    def __init__(self, coeff: Fraction, indices: tuple[int, ...], position: int, digit_run: bool):
        self.coeff = coeff
        self.indices = indices
        self.position = position
        self.digit_run = digit_run


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            shown = got if got else "end of input"
            raise ParseError(f"expected '{ch}', found {shown!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def digits(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            shown = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise ParseError(f"expected digits, found {shown!r}", start)
        return self.text[start : self.pos]

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        return _to_int(self.digits(), start)


def _parse_monomial(sc: _Scanner, arity: int | None) -> tuple[tuple[int, ...], int, bool]:
    """One monomial; returns (indices, start position, used digit run)."""
    sc.skip_ws()
    start = sc.pos
    if sc.peek() == "[":
        sc.expect("[")
        indices = [sc.nat()]
        while sc.peek() == ",":
            sc.take()
            indices.append(sc.nat())
        sc.expect("]")
        digit_run = False
    else:
        run = sc.digits()
        indices = [int(ch) for ch in run]
        digit_run = True
    if arity is not None and len(indices) != arity:
        raise ParseError(
            f"monomial has {len(indices)} indices, expected {arity}", start
        )
    return tuple(indices), start, digit_run


def _parse_term(sc: _Scanner, arity: int | None) -> _RawTerm:
    sc.skip_ws()
    start = sc.pos
    coeff = Fraction(1)
    digit_run = False
    if _is_digit(sc.peek()):
        save = sc.pos
        run = sc.digits()
        nxt = sc.peek()
        if nxt == "/" or nxt == "*":
            numerator = _to_int(run, save)
            if nxt == "/":
                sc.take()
                dpos = sc.pos
                denominator = sc.nat()
                if denominator == 0:
                    raise ParseError("zero denominator", dpos)
                coeff = Fraction(numerator, denominator)
            else:
                coeff = Fraction(numerator)
            sc.expect("*")
            indices, _, digit_run = _parse_monomial(sc, arity)
            return _RawTerm(coeff, indices, start, digit_run)
        # plain digit-run monomial; rewind and reparse as such
        sc.pos = save
    indices, _, digit_run = _parse_monomial(sc, arity)
    return _RawTerm(coeff, indices, start, digit_run)


def _parse_sum(sc: _Scanner, arity: int | None) -> list[_RawTerm]:
    terms: list[_RawTerm] = []
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    term = _parse_term(sc, arity)
    term.coeff *= sign
    terms.append(term)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        term = _parse_term(sc, arity)
        if op == "-":
            term.coeff = -term.coeff
        terms.append(term)
    return terms


def _is_zero_entry(sc: _Scanner) -> bool:
    """True when the upcoming entry is a bare '0' (optionally '^nat')."""
    save = sc.pos
    if sc.peek() != "0":
        return False
    sc.take()
    nxt = sc.peek()
    sc.pos = save
    return nxt in ("", ",", ")", "^")


def _terms_to_form(
    terms: list[_RawTerm], dim: int, degree: int | None
) -> Form:
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for term in terms:
        for idx in term.indices:
            if not 1 <= idx <= dim:
                raise IndexOutOfRange(
                    f"index {idx} outside 1..{dim}", term.position
                )
        sign, key = sort_with_sign(term.indices)
        if sign == 0:
            continue
        coeffs[key] = coeffs.get(key, Fraction(0)) + sign * term.coeff
    k = degree if degree is not None else (len(terms[0].indices) if terms else 0)
    if k > dim:
        raise ParseError(f"degree {k} exceeds dimension {dim}", terms[0].position)
    return Form(dim, k, coeffs)


def _check_digit_runs(terms: list[_RawTerm], dim: int) -> None:
    if dim <= 9:
        return
    for term in terms:
        if term.digit_run:
            raise ParseError(
                "digit-run monomials need dim <= 9; use bracket indices [i,j,...]",
                term.position,
            )


def parse_structure_equations(text: str, dim: int | None = None) -> StructureEquations:
    """Parse a structure-equation tuple like "0^3,12,14-23,15+34".

    Entry k is the 2-form d e^{k+1}; when *dim* is omitted it is
    inferred from the entry count after `0^j` run-length expansion.
    Either way it must lie in 2..MAX_DIM.
    """
    if dim is not None:
        _check_dim(dim)
    sc = _Scanner(text)
    wrapped = sc.peek() == "("
    if wrapped:
        sc.take()
    entries: list[list[_RawTerm] | int] = []
    total = 0  # entries so far, counting each 0^j as j
    while True:
        sc.skip_ws()
        start = sc.pos
        if _is_zero_entry(sc):
            sc.expect("0")
            count = 1
            if sc.peek() == "^":
                sc.take()
                count = sc.nat()
            entries.append(count)
            total += count
        else:
            entries.append(_parse_sum(sc, arity=2))
            total += 1
        if total > MAX_DIM:
            raise ParseError(f"more than MAX_DIM = {MAX_DIM} entries", start)
        if sc.peek() == ",":
            sc.take()
            continue
        break
    if wrapped:
        sc.expect(")")
    if not sc.at_end():
        raise ParseError("unexpected trailing input", sc.pos)

    expanded: list[list[_RawTerm] | None] = []
    for entry in entries:
        if isinstance(entry, int):
            expanded.extend([None] * entry)
        else:
            expanded.append(entry)
    count = len(expanded)
    if dim is None:
        dim = count
        _check_dim(dim)
    elif count != dim:
        raise EntryCountMismatch(f"{count} entries for dimension {dim}")

    for entry in expanded:
        if entry is not None:
            _check_digit_runs(entry, dim)
    differentials = tuple(
        Form.zero(dim, 2) if entry is None else _terms_to_form(entry, dim, 2)
        for entry in expanded
    )
    return StructureEquations(dim, differentials, text)


def parse_form(text: str, dim: int, degree: int | None = None) -> Form:
    """Parse a form written in the sum grammar, e.g. "16+35+24".

    All monomials must share one degree; *degree*, when given, is
    enforced against it.  The bare text "0" parses to the zero form.
    With degree=0 the text is a constant, ["-"] rational, such as "5"
    or "-3/7".  *dim* must lie in 2..MAX_DIM.
    """
    _check_dim(dim)
    if degree is not None and not 0 <= degree <= dim:
        raise ParseError(f"degree {degree} outside 0..{dim}")
    sc = _Scanner(text)
    if degree == 0:
        return Form(dim, 0, {(): _parse_constant(sc)})
    if _is_zero_entry(sc):
        sc.expect("0")
        if sc.peek() == "^":
            raise ParseError("run-length zeros are only valid in structure equations", sc.pos)
        if not sc.at_end():
            raise ParseError("unexpected trailing input", sc.pos)
        return Form.zero(dim, degree if degree is not None else 0)
    terms = _parse_sum(sc, arity=None)
    if not sc.at_end():
        raise ParseError("unexpected trailing input", sc.pos)
    _check_digit_runs(terms, dim)
    found = len(terms[0].indices)
    for term in terms:
        if len(term.indices) != found:
            raise ParseError(
                f"mixed monomial degrees {found} and {len(term.indices)}",
                term.position,
            )
    if degree is not None and found != degree:
        raise ParseError(f"form has degree {found}, expected {degree}", terms[0].position)
    return _terms_to_form(terms, dim, degree if degree is not None else found)


def _parse_constant(sc: _Scanner) -> Fraction:
    """["-"] nat ["/" nat], the whole remaining input."""
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    value = Fraction(sc.nat())
    if sc.peek() == "/":
        sc.take()
        dpos = sc.pos
        denominator = sc.nat()
        if denominator == 0:
            raise ParseError("zero denominator", dpos)
        value /= denominator
    if not sc.at_end():
        raise ParseError("unexpected trailing input", sc.pos)
    return sign * value


def render_structure(eqs: StructureEquations) -> str:
    """Canonical structure text: one grammar-conformant entry per generator."""
    return ",".join(entry.render(prefix="") for entry in eqs.differentials)
