"""The telemetry-name registry, its emission sites and its catalogue
agree.

``repro.obs.names`` declares every metric and span name; the
"Catalogue" section of ``docs/OBSERVABILITY.md`` has one table row per
declared name (and one ``<placeholder>`` row per prefix family); and
every declared name occurs as a string literal somewhere in the
package other than ``names.py``. A name declared without an emission
site, emitted without a row, or documented without a declaration
fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.obs.names import METRIC_PREFIXES, METRICS, SPAN_PREFIXES, SPANS

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
NAMES_MODULE = PACKAGE / "obs" / "names.py"
DOC = REPO / "docs" / "OBSERVABILITY.md"

_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def catalogue_rows(text: str) -> list[str]:
    """The first-cell names of the table rows in *text*'s
    ``## Catalogue`` section, in order."""
    section = text.split("\n## Catalogue\n", 1)[1].split("\n## ", 1)[0]
    return [
        match.group(1)
        for line in section.splitlines()
        if (match := _ROW.match(line))
    ]


def split_rows(rows: list[str]) -> tuple[set[str], set[str]]:
    """(exact names, family prefixes): a ``<placeholder>`` row stands
    for the prefix before it."""
    exact = {row for row in rows if "<" not in row}
    families = {row.split("<", 1)[0] for row in rows if "<" in row}
    return exact, families


def undocumented(text: str) -> set[str]:
    """Declared names and prefix families with no catalogue row."""
    exact, families = split_rows(catalogue_rows(text))
    declared_families = set(METRIC_PREFIXES) | set(SPAN_PREFIXES)
    return ((METRICS | SPANS) - exact) | (declared_families - families)


@pytest.fixture(scope="module")
def text() -> str:
    return DOC.read_text(encoding="utf-8")


def test_every_declared_name_has_one_catalogue_row(text):
    assert sorted(undocumented(text)) == []
    rows = catalogue_rows(text)
    assert len(rows) == len(set(rows)), "a name has two catalogue rows"


def test_every_catalogue_row_is_declared(text):
    exact, families = split_rows(catalogue_rows(text))
    assert sorted(exact - (METRICS | SPANS)) == []
    assert families <= set(METRIC_PREFIXES) | set(SPAN_PREFIXES)


def test_removing_any_row_fails_the_check(text):
    lines = text.splitlines(keepends=True)
    rows = catalogue_rows(text)
    for row in rows:
        line = next(
            line for line in lines if line.startswith(f"| `{row}` |")
        )
        family = {row.split("<", 1)[0]} if "<" in row else {row}
        assert undocumented(text.replace(line, "", 1)) == family, row


def test_every_declared_name_has_an_emission_site():
    literals: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        if path == NAMES_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    assert sorted((METRICS | SPANS) - literals) == []
