import itertools
import math
import random

import pytest

from sliceforge.errors import InfeasibleError, ValidationError
from sliceforge.hinges import PrecedenceTriple
from sliceforge.ordering import (
    AssemblyPlan,
    OrderProblem,
    derive_slice_order,
    solve_order,
    verify_plan,
)

from helpers import oracle_min_objective, synthetic_slices
from sliceforge.hinges import compute_hinges


def problem(ids, backbone, triples=(), w=None):
    return OrderProblem(
        hinge_ids=tuple(ids),
        backbone=backbone,
        triples=tuple(PrecedenceTriple(*t, host_slice=0) for t in triples),
        w_distance=w or {h: 0.0 for h in ids},
    )


def random_problem(rng, n):
    ids = tuple(range(n))
    backbone = rng.randrange(n)
    triples = []
    for _ in range(rng.randrange(0, max(1, n // 2) + 1)):
        if n < 3:
            break
        i, j, k = rng.sample(ids, 3)
        if j == backbone:
            continue
        triples.append((i, j, k))
    w = {h: rng.random() for h in ids}
    return problem(ids, backbone, triples, w)


class TestSolveOrder:
    def test_single_hinge(self):
        plan = solve_order(problem([5], 5))
        assert plan.hinge_order == (5,)
        assert plan.objective == 0.0
        assert plan.exact

    def test_three_hinges_frozen_example(self):
        # exhaustive over the 2 feasible permutations:
        #   (b,p,q): 0.2*1 + 0.9*2 = 2.0   (b,q,p): 0.9*1 + 0.2*2 = 1.3
        # wait: the cheaper one places q first. Recompute both and assert
        # the solver matches the exhaustive minimum (and its frozen value).
        w = {0: 0.0, 1: 0.2, 2: 0.9}
        plan = solve_order(problem([0, 1, 2], 0, w=w))
        oracle = oracle_min_objective([0, 1, 2], 0, (), w)
        assert plan.objective == oracle[0]
        assert plan.hinge_order == oracle[1]
        assert math.isclose(plan.objective, 1.3)

    def test_spec_weight_order_example(self):
        # the stated order {b:0, p:1, q:2} with objective 2.0 is what the
        # greedy near-to-far intuition gives; the exact optimizer must beat
        # it by stitching the far hinge early (smaller multiplier)
        w = {0: 0.0, 1: 0.2, 2: 0.9}
        plan = solve_order(problem([0, 1, 2], 0, w=w))
        stated = 0.2 * 1 + 0.9 * 2
        assert plan.objective <= stated

    def test_triple_forces_cut_through_first(self):
        triples = [(1, 2, 3)]
        w = {0: 0.0, 1: 0.1, 2: 0.9, 3: 0.2}
        plan = solve_order(problem([0, 1, 2, 3], 0, triples, w))
        pos = {h: i for i, h in enumerate(plan.hinge_order)}
        assert pos[2] < pos[1] and pos[2] < pos[3]

    def test_matches_exhaustive_oracle_randomized(self):
        rng = random.Random(20260809)
        checked = 0
        while checked < 60:
            n = rng.randrange(1, 9)
            p = random_problem(rng, n)
            oracle = oracle_min_objective(p.hinge_ids, p.backbone, p.triples, p.w_distance)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    solve_order(p)
                continue
            plan = solve_order(p)
            assert math.isclose(plan.objective, oracle[0], rel_tol=0, abs_tol=1e-12)
            assert plan.hinge_order == oracle[1]
            checked += 1

    def test_cycle_detected(self):
        p = problem([0, 1, 2, 3, 4], 0, [(1, 2, 3), (2, 3, 4), (3, 4, 2)])
        # 2 -> 3 (t2), 3 -> 4? build: triple (i,j,k): j precedes i and k
        with pytest.raises(InfeasibleError, match="cycl"):
            solve_order(p)

    def test_backbone_in_triple_infeasible(self):
        p = problem([0, 1, 2], 0, [(0, 1, 2)])
        with pytest.raises(InfeasibleError, match="backbone"):
            solve_order(p)

    def test_scaling_weights_keeps_argmin(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_problem(rng, 6)
            if oracle_min_objective(p.hinge_ids, p.backbone, p.triples, p.w_distance) is None:
                continue
            base = solve_order(p)
            scaled = OrderProblem(
                hinge_ids=p.hinge_ids,
                backbone=p.backbone,
                triples=p.triples,
                w_distance={h: 7.25 * w for h, w in p.w_distance.items()},
            )
            assert solve_order(scaled).hinge_order == base.hinge_order

    def test_equal_weights_lexicographic(self):
        plan = solve_order(problem([3, 1, 4, 2], 2))
        assert plan.hinge_order == (2, 1, 3, 4)

    def test_greedy_above_threshold_respects_constraints(self):
        ids = list(range(24))
        triples = [(4, 5, 6), (10, 11, 12)]
        w = {h: (h * 37 % 24) / 24 for h in ids}
        p = problem(ids, 7, triples, w)
        plan = solve_order(p)
        assert not plan.exact
        report = verify_plan(plan, p)
        assert report.passed

    def test_exact_at_threshold_boundary(self):
        ids = list(range(16))
        w = {h: (h * 31 % 16) / 16 for h in ids}
        plan = solve_order(problem(ids, 0, w=w))
        assert plan.exact

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValidationError):
            problem([0, 1], 5)
        with pytest.raises(ValidationError):
            problem([0, 1], 0, w={0: float("nan"), 1: 0.0})


class TestDeriveSliceOrder:
    def test_backbone_only(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (0,)), ("y", 8, (0, 0, 16, 16), (0,))]
        )
        hinges = compute_hinges(slices)
        plan = AssemblyPlan(hinge_order=(0,), slice_order=(), objective=0.0, exact=True)
        order = derive_slice_order(plan, hinges, slices)
        # first-family slice first within the first hinge
        assert order == (0, 1)

    def test_first_appearance_scan(self):
        slices = synthetic_slices(
            [
                ("x", 4, (0, 0, 16, 16), (0,)),
                ("y", 8, (0, 0, 16, 16), (0,)),
                ("x", 12, (0, 0, 16, 16), (1,)),
            ]
        )
        hinges = compute_hinges(slices)  # two hinges on the shared y slice
        plan = AssemblyPlan(
            hinge_order=tuple(h.id for h in hinges), slice_order=(), objective=0.0, exact=True
        )
        order = derive_slice_order(plan, hinges, slices)
        assert len(order) == 3
        assert set(order) == {0, 1, 2}

    def test_free_floating_appended_with_warning(self):
        slices = synthetic_slices(
            [
                ("x", 8, (0, 0, 16, 16), (0,)),
                ("y", 8, (0, 0, 16, 16), (0,)),
                ("x", 2, (0, 0, 1, 1), (9,)),
            ]
        )
        hinges = compute_hinges(slices[:2])
        plan = AssemblyPlan(hinge_order=(0,), slice_order=(), objective=0.0, exact=True)
        with pytest.warns(UserWarning, match="no hinge"):
            order = derive_slice_order(plan, hinges, slices)
        assert order[-1] == 2


class TestVerifyPlan:
    def test_solver_output_passes(self):
        p = problem([0, 1, 2, 3], 1, [(0, 2, 3)], {h: h / 4 for h in range(4)})
        plan = solve_order(p)
        assert verify_plan(plan, p).passed

    def test_triple_violation_listed(self):
        p = problem([0, 1, 2], 0, [(1, 2, 0)])
        bad = AssemblyPlan(hinge_order=(0, 1, 2), slice_order=(), objective=0.0, exact=True)
        report = verify_plan(bad, p)
        assert not report.passed
        assert report.triple_violations == [{"i": 1, "j": 2, "k": 0}]

    def test_backbone_misplacement_fails_o3(self):
        p = problem([0, 1, 2], 2)
        bad = AssemblyPlan(hinge_order=(0, 1, 2), slice_order=(), objective=0.0, exact=True)
        report = verify_plan(bad, p)
        assert report.o3_violations

    def test_duplicate_fails_o1(self):
        p = problem([0, 1, 2], 0)
        bad = AssemblyPlan(hinge_order=(0, 1, 1), slice_order=(), objective=0.0, exact=True)
        report = verify_plan(bad, p)
        assert report.o1_violations

    def test_objective_recomputed(self):
        w = {0: 0.0, 1: 0.5, 2: 0.25}
        p = problem([0, 1, 2], 0, w=w)
        plan = AssemblyPlan(hinge_order=(0, 2, 1), slice_order=(), objective=99.0, exact=True)
        report = verify_plan(plan, p)
        assert math.isclose(report.objective, 0.25 * 1 + 0.5 * 2)

