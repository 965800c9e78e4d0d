"""The README's library quick start runs as written and does what it says."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_recovers_the_planted_features():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # The block's comment claims the selection recovers `truth`.
    assert np.array_equal(namespace["result"].selected, namespace["truth"])
