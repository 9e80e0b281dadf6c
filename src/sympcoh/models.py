"""Model files and the built-in corpus.

A model file is a flat `key = value` text format:

    # comment
    name = example1
    dim = 6
    structure = 0,0,0,12,14-23,15+34
    omega = 16+35+24
    flag = assert-completely-solvable
    form.re_psi = 136+125+234-456

`structure` uses the structure-equation grammar, `omega` and `form.*`
the form-sum grammar.  `flag` lines may repeat; `dim` and `omega` are
optional (dimension is inferred from the structure entry count, and a
model without omega only gets Lie-algebra-level output).  A `dim` is an
optional `-` and ASCII digits; one that is not positive or lies above
`parsing.MAX_DIM` is rejected on its line.
"""

from __future__ import annotations

import re

from ._value import Frozen
from .errors import InputError, ModelFileError
from .parsing import MAX_DIM

__all__ = [
    "ModelFile",
    "VALID_FLAGS",
    "parse_model_text",
    "load_model",
    "corpus",
    "corpus_names",
    "corpus_model",
]

FLAG_COMPLETELY_SOLVABLE = "assert-completely-solvable"
FLAG_LATTICE = "assert-lattice"
VALID_FLAGS = frozenset({FLAG_COMPLETELY_SOLVABLE, FLAG_LATTICE})


class ModelFile(Frozen):
    """One Lie algebra with an optional invariant symplectic form."""

    _fields = ("name", "structure", "dim", "omega", "flags", "extra_forms")

    def __init__(self, name: str, structure: str, dim: int | None = None,
                 omega: str | None = None, flags: frozenset[str] = frozenset(),
                 extra_forms: tuple[tuple[str, str], ...] = ()):
        bad = flags - VALID_FLAGS
        if bad:
            raise ModelFileError(f"unknown flags: {sorted(bad)}")
        self.__dict__.update(name=name, structure=structure, dim=dim, omega=omega, flags=flags,
                             extra_forms=extra_forms)


def parse_model_text(text: str, default_name: str = "model") -> ModelFile:
    name = default_name
    dim: int | None = None
    structure: str | None = None
    omega: str | None = None
    flags: set[str] = set()
    extra: list[tuple[str, str]] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelFileError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in {"name", "dim", "structure", "omega"}:
            if key in seen:
                raise ModelFileError(f"line {lineno}: duplicate key {key!r}")
            seen.add(key)
        if key == "name":
            name = value
        elif key == "dim":
            # int() alone would also read "0_6" and non-ASCII digits such as "٦".
            if not re.fullmatch("-?[0-9]+", value):
                raise ModelFileError(f"line {lineno}: dim must be an integer")
            dim = int(value)
            if dim <= 0:
                raise ModelFileError(f"line {lineno}: dim must be positive")
            if dim > MAX_DIM:
                raise ModelFileError(f"line {lineno}: dim {dim} exceeds MAX_DIM = {MAX_DIM}")
        elif key == "structure":
            structure = value
        elif key == "omega":
            omega = value
        elif key == "flag":
            if value not in VALID_FLAGS:
                raise ModelFileError(
                    f"line {lineno}: unknown flag {value!r} (valid: {sorted(VALID_FLAGS)})"
                )
            flags.add(value)
        elif key.startswith("form."):
            form_name = key[len("form.") :].strip()
            if not form_name:
                raise ModelFileError(f"line {lineno}: empty form name")
            if any(existing == form_name for existing, _ in extra):
                raise ModelFileError(f"line {lineno}: duplicate form {form_name!r}")
            extra.append((form_name, value))
        else:
            raise ModelFileError(f"line {lineno}: unknown key {key!r}")

    if structure is None:
        raise ModelFileError("missing required key 'structure'")
    return ModelFile(
        name=name,
        structure=structure,
        dim=dim,
        omega=omega,
        flags=frozenset(flags),
        extra_forms=tuple(extra),
    )


def load_model(path) -> ModelFile:
    from pathlib import Path

    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read model file {p}: {exc}") from exc
    try:
        # The "utf-8-sig" reading, with error offsets counted in the file's own bytes.
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"model file {p} is not UTF-8: bad byte at offset {exc.start}") from exc
    return parse_model_text(text, default_name=p.stem)


def corpus() -> tuple[ModelFile, ...]:
    """The built-in worked examples (one torus plus four solvmanifolds)."""
    return (
        ModelFile(
            name="torus6",
            dim=6,
            structure="0^6",
            omega="14+25+36",
        ),
        ModelFile(
            name="example1",
            dim=6,
            structure="0,0,0,12,14-23,15+34",
            omega="16+35+24",
        ),
        ModelFile(
            name="example2",
            dim=6,
            structure="-13,23,0,-56,46,0",
            omega="12+36+45",
            flags=frozenset({FLAG_LATTICE}),
        ),
        ModelFile(
            name="example3",
            dim=6,
            structure="-23,0,0,-46,56,0",
            omega="12+36+45",
            flags=frozenset({FLAG_COMPLETELY_SOLVABLE}),
        ),
        ModelFile(
            name="example4",
            dim=6,
            structure="0,12-45,-13+46,0,15-24,-16+34",
            omega="14+35+62",
            flags=frozenset({FLAG_LATTICE}),
            extra_forms=(("re_psi", "136+125+234-456"),),
        ),
    )


def corpus_names() -> tuple[str, ...]:
    return tuple(model.name for model in corpus())


def corpus_model(name: str) -> ModelFile:
    for model in corpus():
        if model.name == name:
            return model
    raise InputError(
        f"unknown corpus model {name!r} (available: {', '.join(corpus_names())})"
    )
