"""No module under src/hitchinforge names CPython's int <-> str digit
limit: exact integers of any size cross text through exactnum's chunked
conversion alone, so a second mechanism (one that lifts the limit for the
whole interpreter, every thread of an in-process caller included) cannot
return unnoticed."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hitchinforge"
NAMES = ("set_int_max_str_digits", "get_int_max_str_digits")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_the_digit_limit(path):
    text = path.read_text()
    assert [name for name in NAMES if name in text] == []
