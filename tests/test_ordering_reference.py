"""The one Kahn pass of `solve_order` against the two rescanning passes it
replaced (`helpers.find_cycle_reference`, `helpers.greedy_order_reference`):
the same greedy order above the exact threshold, and the same error, in the
same precedence, when the precedence DAG has a cycle or the backbone cannot
go first."""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sliceforge.errors import InfeasibleError
from sliceforge.hinges import PrecedenceTriple
from sliceforge.ordering import EXACT_THRESHOLD, OrderProblem, solve_order

from helpers import find_cycle_reference, greedy_order_reference, predecessors_reference

SHAPES = ("dag", "random", "cycle", "backbone_preds", "both")
WEIGHTS = ("distinct", "few", "equal")


def _weights(rng: random.Random, ids: list[int], kind: str) -> dict[int, float]:
    if kind == "equal":  # every pick falls to the id tie-break
        return {h: 0.5 for h in ids}
    if kind == "few":  # many ties, broken by id
        return {h: rng.choice((0.0, 0.25, 1.0)) for h in ids}
    return {h: rng.random() for h in ids}


@st.composite
def order_problems(draw):
    """Problems past the exact threshold with up to n/2 triples over
    scattered, unsorted hinge ids. A "dag" respects a random rank with the
    backbone first; "random" triples may hold cycles or put a hinge before
    the backbone; "cycle" adds a two-hinge cycle, "backbone_preds" a hinge
    that must precede the backbone, and "both" makes that hinge one of the
    cycle, so the backbone is never reached either."""
    n = draw(st.integers(EXACT_THRESHOLD + 1, 400))
    shape = draw(st.sampled_from(SHAPES))
    weights = draw(st.sampled_from(WEIGHTS))
    rng = draw(st.randoms(use_true_random=False))
    ids = rng.sample(range(-n, 3 * n), n)
    backbone = rng.choice(ids)
    rank = {h: i for i, h in enumerate([backbone] + rng.sample([h for h in ids if h != backbone], n - 1))}
    triples = []
    for _ in range(rng.randint(0, n // 2)):
        three = rng.sample(ids, 3)
        if shape == "random":
            i, j, k = three
        else:  # the first of the three by rank precedes the other two
            j, i, k = sorted(three, key=rank.get)
        triples.append((i, j, k))
    a, b, c, d = rng.sample([h for h in ids if h != backbone], 4)
    if shape in ("cycle", "both"):
        triples += [(a, b, c), (b, a, d)]  # b precedes a and a precedes b
    if shape in ("backbone_preds", "both"):
        triples.append((backbone, a, c))  # a precedes the backbone
    rng.shuffle(triples)
    event(f"{shape}, {weights} weights")
    return OrderProblem(
        hinge_ids=tuple(ids),
        backbone=backbone,
        triples=tuple(PrecedenceTriple(i, j, k, host_slice=0) for i, j, k in triples),
        w_distance=_weights(rng, ids, weights),
    )


def reference_outcome(problem: OrderProblem) -> tuple[int, ...] | str:
    """The greedy order of the rescanning passes, or the message the solver
    raised from them, cycle before backbone."""
    preds = predecessors_reference(problem)
    cycle = find_cycle_reference(preds)
    if cycle is not None:
        return f"cyclic cut-through precedence among hinges {cycle}"
    if preds[problem.backbone]:
        return (
            f"backbone hinge {problem.backbone} cannot be first: "
            f"hinges {sorted(preds[problem.backbone])} must precede it"
        )
    return tuple(greedy_order_reference(problem, preds))


@settings(max_examples=120, deadline=None)
@given(problem=order_problems())
def test_solve_order_matches_reference(problem):
    want = reference_outcome(problem)
    event(want.split(" ")[0] if isinstance(want, str) else "ordered")
    if isinstance(want, str):
        with pytest.raises(InfeasibleError) as raised:
            solve_order(problem)
        assert str(raised.value) == want
        return
    plan = solve_order(problem)
    assert plan.hinge_order == want
    assert not plan.exact


def test_cycle_reported_before_backbone():
    # 1 and 2 each precede the other and 1 precedes the backbone: the cycle is
    # named, with every hinge waiting on it, the backbone among them
    ids = list(range(EXACT_THRESHOLD + 4))
    triples = (PrecedenceTriple(1, 2, 5, 0), PrecedenceTriple(2, 1, 6, 0), PrecedenceTriple(0, 1, 7, 0))
    p = OrderProblem(tuple(ids), 0, triples, {h: 0.0 for h in ids})
    with pytest.raises(InfeasibleError) as raised:
        solve_order(p)
    assert str(raised.value) == reference_outcome(p)
    assert str(raised.value) == "cyclic cut-through precedence among hinges [0, 1, 2, 5, 6, 7]"
