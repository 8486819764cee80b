"""The README's library quick start runs, and each value its comments state holds."""

import pathlib
import re

import latcensus as lc

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# call -> (what its comment states, a test of the value it returns)
STATED = {
    "lc.count_primitive_classes(2, 12)": ("24 co-cyclic", lambda v: v == 24),
    "lc.count_by_rank(3, 2, 10**8)": ("74802708362767100537574", lambda v: v == 74802708362767100537574),
    "lc.smith_invariants(lc.HnfBasis([[2, 0], [0, 2]]))": ("chain (2, 2)", lambda v: v.chain == (2, 2)),
    "lc.theta()": ("1.9435964368... +/- <= 1e-12",
                   lambda v: 1.9435964368 <= v.value < 1.9435964369 and v.err <= 1e-12),
    "lc.density_cocyclic_limit()": ("0.8469359... +/- <= 1e-10",
                                    lambda v: 0.8469359 <= v.value < 0.8469360 and v.err <= 1e-10),
    "lc.aut_order(lc.AbelianGroup({2: (2, 1)}))": ("= 8", lambda v: v == 8),
}


def _quick_start() -> list[tuple[str, str]]:
    """(call, comment) for each line of the quick-start block after its import."""
    text = README.read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines[0] == "import latcensus as lc"
    return [tuple(part.strip() for part in line.split("#", 1)) for line in lines[1:]]


def test_readme_quick_start_values_hold():
    calls = _quick_start()
    assert {call for call, _ in calls} >= set(STATED)
    for call, comment in calls:
        value = eval(call, {"lc": lc})
        if call in STATED:
            stated, holds = STATED[call]
            assert stated in comment, (call, comment)
            assert holds(value), (call, value)
