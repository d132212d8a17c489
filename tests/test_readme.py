"""The README's library tour runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def tour_blocks():
    """The python code blocks between '## Library tour' and the next
    second-level heading, as lists of lines."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("\n")
            for block in re.findall(r"```python\n(.*?)```", tour, re.S)]


def test_library_tour_results_are_the_reprs_shown():
    # a line `expr   # result` states repr(expr); the other lines run as
    # statements, in one namespace across the blocks, in order
    namespace = {}
    results = []
    for block in tour_blocks():
        pending = []
        for line in block:
            code, hash_, result = line.partition("#")
            if not hash_:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            results.append(result.strip())
            assert repr(eval(code, namespace)) == result.strip(), line
        exec("\n".join(pending), namespace)
    assert results == ["['b']", "Confirmed(at_step=2)", "Unknown",
                       "(('0',), ('a', '1'))", "(True, None)", "('1',)"]
