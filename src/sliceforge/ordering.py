"""Assembly-order optimization.

The order of hinge stitching is a constrained permutation: every hinge gets
a distinct position, the backbone goes first, each cut-through precedes its
neighboring up-down hinges, and the objective minimizes the sum of
center-distance weights times positions, so hinges far from the volume
center are stitched early.

One Kahn (1962) topological pass over the precedence DAG, driven by a heap,
both detects cycles and yields a precedence-respecting greedy order. Up to
EXACT_THRESHOLD hinges a branch and bound over positions, which satisfies
the pairwise order inequalities structurally, returns the exact optimum
instead.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

from .errors import InfeasibleError, ValidationError
from .hinges import Hinge, PrecedenceTriple
from .octree import Slice

EXACT_THRESHOLD = 16


@dataclass(frozen=True)
class OrderProblem:
    hinge_ids: tuple[int, ...]
    backbone: int
    triples: tuple[PrecedenceTriple, ...]
    w_distance: dict[int, float]

    def __post_init__(self):
        ids = set(self.hinge_ids)
        if len(ids) != len(self.hinge_ids):
            raise ValidationError("duplicate hinge ids in order problem")
        if self.backbone not in ids:
            raise ValidationError(f"backbone {self.backbone} not among hinges")
        for t in self.triples:
            for h in (t.i, t.j, t.k):
                if h not in ids:
                    raise ValidationError(f"triple references unknown hinge {h}")
        for h, w in self.w_distance.items():
            if not math.isfinite(w) or w < 0:
                raise ValidationError(f"w_distance[{h}] = {w} must be finite and >= 0")


@dataclass(frozen=True)
class AssemblyPlan:
    hinge_order: tuple[int, ...]  # hinge ids by assembly position
    slice_order: tuple[int, ...]
    objective: float
    exact: bool


def hinge_midpoint_weight(
    hinge: Hinge, slices_by_id: dict[int, Slice], dims: tuple[int, int, int], axes: tuple[int, int, int]
) -> float:
    """Euclidean distance of the segment midpoint to the volume center,
    in coordinates normalized to [-1, 1] per axis."""
    ax_a, ax_b, ax_up = axes
    coords = [0.0, 0.0, 0.0]
    coords[ax_a] = slices_by_id[hinge.slice_a].plane_coord
    coords[ax_b] = slices_by_id[hinge.slice_b].plane_coord
    coords[ax_up] = (hinge.v0 + hinge.v1) / 2.0
    normed = [2.0 * c / dims[i] - 1.0 for i, c in enumerate(coords)]
    return math.sqrt(sum(c * c for c in normed))


def build_order_problem(
    hinges: list[Hinge],
    slices: list[Slice],
    backbone: int,
    triples: list[PrecedenceTriple],
    dims: tuple[int, int, int],
    axes: tuple[int, int, int],
) -> OrderProblem:
    by_id = {s.id: s for s in slices}
    w = {h.id: hinge_midpoint_weight(h, by_id, dims, axes) for h in hinges}
    return OrderProblem(
        hinge_ids=tuple(h.id for h in hinges),
        backbone=backbone,
        triples=tuple(triples),
        w_distance=w,
    )


def _precedence_order(problem: OrderProblem) -> tuple[dict[int, set[int]], list[int]]:
    """One Kahn pass over the precedence DAG: returns the predecessor sets
    and the greedy order, which is the backbone, then always the free hinge
    with the smallest (w, id). Raises if the DAG has a cycle or the backbone
    has predecessors."""
    preds: dict[int, set[int]] = {h: set() for h in problem.hinge_ids}
    for t in problem.triples:
        preds[t.i].add(t.j)
        preds[t.k].add(t.j)
    succs: dict[int, list[int]] = {h: [] for h in preds}
    for h, ps in preds.items():
        for p in ps:
            succs[p].append(h)
    waiting = {h: len(ps) for h, ps in preds.items()}
    w, backbone = problem.w_distance, problem.backbone
    free = [(h != backbone, w[h], h) for h, ps in preds.items() if not ps]
    heapq.heapify(free)
    order: list[int] = []
    while free:
        h = heapq.heappop(free)[2]
        order.append(h)
        for s in succs[h]:
            waiting[s] -= 1
            if not waiting[s]:
                heapq.heappush(free, (s != backbone, w[s], s))
    if len(order) < len(preds):
        unreached = sorted(set(preds) - set(order))
        raise InfeasibleError(f"cyclic cut-through precedence among hinges {unreached}")
    if preds[backbone]:
        raise InfeasibleError(
            f"backbone hinge {backbone} cannot be first: "
            f"hinges {sorted(preds[backbone])} must precede it"
        )
    return preds, order


def solve_order(problem: OrderProblem) -> AssemblyPlan:
    """Minimize sum(w * position) subject to the hard ordering constraints.

    Exact branch and bound up to EXACT_THRESHOLD hinges; above that, the
    greedy order of the precedence pass is returned and flagged.
    Ties between equal-objective optima resolve to the lexicographically
    smallest hinge-id sequence.
    """
    preds, greedy = _precedence_order(problem)
    ids = sorted(problem.hinge_ids)
    n = len(ids)
    w = problem.w_distance

    if n > EXACT_THRESHOLD:
        return AssemblyPlan(
            hinge_order=tuple(greedy),
            slice_order=(),
            objective=_objective(greedy, w),
            exact=False,
        )

    best_order: list[int] | None = None
    best_obj = math.inf
    order: list[int] = [problem.backbone]
    placed = {problem.backbone}

    def lower_bound(cost: float, pos: int) -> float:
        # remaining hinges in decreasing weight onto the earliest open
        # positions: a relaxation that ignores precedence
        rest = sorted((w[h] for h in ids if h not in placed), reverse=True)
        return cost + sum(wi * (pos + i) for i, wi in enumerate(rest))

    def dfs(pos: int, cost: float) -> None:
        nonlocal best_order, best_obj
        if pos == n:
            if cost < best_obj:
                best_obj = cost
                best_order = list(order)
            return
        if lower_bound(cost, pos) >= best_obj:
            return  # DFS visits sequences in lex order, so ties keep the incumbent
        for h in ids:
            if h in placed or any(p not in placed for p in preds[h]):
                continue
            placed.add(h)
            order.append(h)
            dfs(pos + 1, cost + w[h] * pos)
            order.pop()
            placed.discard(h)

    dfs(1, 0.0)  # the greedy order is feasible, so some order is found
    return AssemblyPlan(
        hinge_order=tuple(best_order),
        slice_order=(),
        objective=_objective(best_order, w),
        exact=True,
    )


def _objective(order: list[int] | tuple[int, ...], w: dict[int, float]) -> float:
    return float(sum(w[h] * pos for pos, h in enumerate(order)))


def derive_slice_order(plan: AssemblyPlan, hinges: list[Hinge], slices: list[Slice]) -> tuple[int, ...]:
    """Slices in first-hinge-appearance order; hingeless slices go last."""
    by_id = {h.id: h for h in hinges}
    # a dict keeps each slice once, at its first appearance
    seen = dict.fromkeys(sid for hid in plan.hinge_order for sid in (by_id[hid].slice_a, by_id[hid].slice_b))
    floating = [s.id for s in slices if s.id not in seen]
    if floating:
        warnings.warn(f"slices {floating} touch no hinge; appended at the end")
    return (*seen, *floating)


@dataclass
class VerificationReport:
    o1_violations: list = field(default_factory=list)
    o3_violations: list = field(default_factory=list)
    triple_violations: list = field(default_factory=list)
    objective: float = 0.0

    @property
    def passed(self) -> bool:
        return not (self.o1_violations or self.o3_violations or self.triple_violations)


def verify_plan(plan: AssemblyPlan, problem: OrderProblem) -> VerificationReport:
    """Report-only check of O1 (bijection), O3 (backbone first), and every
    cut-through precedence triple; recomputes the objective."""
    report = VerificationReport()
    expected = set(problem.hinge_ids)
    got = list(plan.hinge_order)
    if sorted(got) != sorted(expected):
        report.o1_violations.append(
            {"missing": sorted(expected - set(got)), "extra": sorted(set(got) - expected),
             "duplicates": sorted({h for h in got if got.count(h) > 1})}
        )
    pos = {h: i for i, h in enumerate(got)}
    if pos.get(problem.backbone, -1) != 0:
        report.o3_violations.append(
            {"backbone": problem.backbone, "position": pos.get(problem.backbone)}
        )
    for t in problem.triples:
        if t.i in pos and t.j in pos and t.k in pos:
            if not (pos[t.j] < pos[t.i] and pos[t.j] < pos[t.k]):
                report.triple_violations.append({"i": t.i, "j": t.j, "k": t.k})
        else:
            report.triple_violations.append({"i": t.i, "j": t.j, "k": t.k, "missing": True})
    if not report.o1_violations:
        report.objective = _objective(got, problem.w_distance)
    return report

