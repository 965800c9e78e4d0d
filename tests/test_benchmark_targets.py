"""The benchmark's tracer patches refsel names in place; each must still exist.

``perfbench/spans.py`` replaces functions at the attribute their caller looks
up. A refactor that drops or moves one of them would otherwise only show as
a crash of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patched_name_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans.Tracer(timing=False)._patch_table()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in table if attr not in vars(owner)]
    assert table
    assert missing == []
