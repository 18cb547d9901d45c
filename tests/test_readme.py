"""Every constant the README quotes as `NAME = value` has that value in ``modnls``.

A constant is an upper-case name of two or more characters (a leading
underscore allowed); single letters such as `N = 8` are the README's
mathematics.  The README writes powers as ``2^24`` or ``2**24``.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import modnls

PACKAGE = Path(modnls.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
QUOTED = re.compile(r"`(_?[A-Z][A-Z0-9_]+) = ([^`]+)`")


def quoted_constants(text: str) -> list[tuple[str, str]]:
    """The (NAME, value) pairs that ``text`` quotes in backticks, in order."""
    return QUOTED.findall(text)


def evaluate(value: str) -> float:
    """A quoted value: a number, or a power written with ^ or **."""
    base, _, power = value.replace("^", "**").partition("**")
    return float(base) ** int(power) if power else float(base)


def values_in_modnls(name: str) -> list:
    modules = [importlib.import_module(f"modnls.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))]
    return [getattr(m, name) for m in modules if hasattr(m, name)]


CONSTANTS = quoted_constants(README.read_text())


def test_the_readme_quotes_constants():
    assert len(CONSTANTS) >= 10


@pytest.mark.parametrize("name, value", CONSTANTS, ids=[f"{n} = {v}" for n, v in CONSTANTS])
def test_quoted_constant_has_its_value(name, value):
    found = values_in_modnls(name)
    assert found, f"{name} is in no modnls module"
    assert all(v == evaluate(value) for v in found), (name, found)


def test_the_check_reads_both_power_forms():
    text = "`MAX_STEPS = 2^24`, `_PROBE_CHUNK_ELEMENTS = 2**16`, `N = 8` and `TIME_RTOL = 1e-3`"
    assert quoted_constants(text) == [("MAX_STEPS", "2^24"), ("_PROBE_CHUNK_ELEMENTS", "2**16"),
                                      ("TIME_RTOL", "1e-3")]
    assert [evaluate(v) for _, v in quoted_constants(text)] == [2**24, 2**16, 1e-3]
