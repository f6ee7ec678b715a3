"""The examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of the README section with this ``##`` heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_library_use_examples_run():
    # the blocks share one namespace, as a reader running them in turn would
    blocks = re.findall(r"```python\n(.*?)```", section("Library use"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].holds and namespace["kernel"].order == 5
