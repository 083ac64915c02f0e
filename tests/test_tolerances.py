import re
from pathlib import Path

import qgraph
from qgraph import tolerances as tol


def test_every_manifest_tolerance_is_read_by_code():
    """Each entry of the manifest's tolerance table names a constant that
    package code outside tolerances.py reads, so none is recorded unenforced."""
    src = Path(qgraph.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        if path.name != "tolerances.py":
            read |= set(re.findall(r"\btol\.([A-Z][A-Z0-9_]*)", path.read_text(encoding="utf-8")))
    table = tol.as_dict()
    for key, value in table.items():
        assert getattr(tol, key.upper()) == value
    assert sorted(k.upper() for k in table if k.upper() not in read) == []


# a comparison (<, <=, >, >=; not ->) against a literal such as 1e-12 or 2.5E+3
_LITERAL_COMPARISON = re.compile(
    r"(?<![-=<>])[<>]=?\s*-?\d+(?:\.\d*)?[eE][-+]?\d+|\d(?:\.\d*)?[eE][-+]?\d+\s*[<>]"
)


def test_no_threshold_literal_outside_the_table():
    """No package module outside tolerances.py compares against a
    scientific-notation literal: such a threshold belongs in the table."""
    src = Path(qgraph.__file__).parent
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "tolerances.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _LITERAL_COMPARISON.search(line)
    ]
    assert found == []
