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
