"""The mutation table's rows still point at the code and the tests they
name.  The table itself runs outside tier-1: ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.old}")
def test_each_old_text_occurs_exactly_once_in_src_and_each_named_test_exists(mutant):
    assert mutant.new != mutant.old
    assert occurrences(mutant) == 1
    assert mutant.tests
    for node_id in mutant.tests:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", node_id).group(1, 2)
        assert f"\ndef {name}(" in (ROOT / path).read_text(), node_id
