"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All checks are exact (integer/rational equality) except the explicitly stated
1e-6 convergence tolerance of the gradient-descent verification in criterion 9.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from idsets.explicit import SolutionList, exact_identifying, greedy_identifying
from idsets.flows import (
    min_weight_flow_identifying,
    relevant_arcs,
    verify_flow_identifying,
)
from idsets.graphs import Digraph, StPair, WeightedGroundSet, enumerate_st_paths
from idsets.instances import gen_tight_gap_family, gen_vertex_cover_dag
from idsets.linear import min_weight_identifying_from_basis, verify_identifying_from_basis
from idsets.matroids import matroid_components
from idsets.paths import (
    approx_min_path_identifying_dag,
    exact_min_path_identifying,
    verify_path_identifying_dag,
)
from idsets.polymatroids import (
    PolymatroidOracle,
    polymatroid_components,
    verify_polymatroid_identifying,
)
from idsets.tolls import (
    controlling_counterexample_check,
    convex_tolls,
    discrete_tolls,
    linear_cost,
    quadratic_cost,
)

from .helpers import (
    all_simple_digraphs,
    all_subsets,
    enumerate_circuits,
    extract_vertex_cover,
    flow_conservation_ok,
    has_st_path,
    min_vertex_cover_size,
    oracle_identifying_for_paths,
    oracle_undirected_acyclic,
    random_weights,
    seeded_dags,
    seeded_multigraphs,
    tolled_cost,
)
from .test_linear import flow_polytope_basis
from .test_matroids import all_bases, bases_distinct_on, fixture_matroids
from .test_polymatroids import affine_basis_of_polytope, table_fixtures
from .test_tolls import _projected_gradient


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")


def test_criterion_01_tight_gap_family():
    failures = []
    for k in (1, 2, 3, 4, 5, 6):
        inst = gen_tight_gap_family(k)
        path_opt = len(exact_min_path_identifying(inst.graph, inst.st).identifying_set)
        flow_opt = len(min_weight_flow_identifying(inst.graph, inst.st).identifying_set)
        if path_opt != k or flow_opt != k * (k + 1) // 2:
            failures.append((k, path_opt, flow_opt))
        if k == 3 and (path_opt, flow_opt) != (3, 6):
            failures.append(("k3-figure", path_opt, flow_opt))
    report(1, not failures, f"gap family k=1..6 path/flow optima exact; {failures or 'ok'}")
    assert not failures


def test_criterion_02_flow_characterization_agreement():
    checked = 0
    disagreements = 0
    instances = []
    for g in all_simple_digraphs(3):
        for s_node in range(3):
            for t_node in range(3):
                if s_node != t_node:
                    instances.append((g, StPair(s_node, t_node)))
    instances.extend(seeded_multigraphs(60, seed=202, max_arcs=9))
    for g, st in instances:
        if not has_st_path(g, st):
            continue
        ep = relevant_arcs(g, st)
        for subset in all_subsets(range(g.arc_count)):
            got, witness = verify_flow_identifying(g, st, subset)
            want = oracle_undirected_acyclic(g, set(ep - subset))
            checked += 1
            if got != want:
                disagreements += 1
            if not got:
                assert witness.flow_a != witness.flow_b
                assert flow_conservation_ok(g, st, witness.flow_a)
                assert flow_conservation_ok(g, st, witness.flow_b)
                assert all(witness.flow_a[e] == witness.flow_b[e] for e in subset)
    ok = disagreements == 0 and checked > 1000
    report(2, ok, f"{checked} (instance, S) pairs, {disagreements} disagreements")
    assert ok


def test_criterion_03_dag_verification_agreement():
    rng = random.Random(303)
    dags = 0
    disagreements = 0
    for g, st in seeded_dags(680, seed=303):
        if not has_st_path(g, st):
            continue
        dags += 1
        subsets = all_subsets(range(g.arc_count))
        if len(subsets) > 12:
            subsets = rng.sample(subsets, 12)
        for subset in subsets:
            got, _ = verify_path_identifying_dag(g, st, subset)
            if got != oracle_identifying_for_paths(g, st, set(subset)):
                disagreements += 1
    ok = dags >= 500 and disagreements == 0
    report(3, ok, f"{dags} DAGs, {disagreements} disagreements")
    assert ok


def test_criterion_04_sqrt_approximation_validity():
    violations = []
    test_dags = [(gen_tight_gap_family(k).graph, gen_tight_gap_family(k).st)
                 for k in (1, 2, 3, 4)]
    test_dags.extend(seeded_dags(120, seed=404))
    for g, st in test_dags:
        if not has_st_path(g, st):
            continue
        approx = approx_min_path_identifying_dag(g, st)
        ok_path, _ = verify_path_identifying_dag(g, st, approx.identifying_set)
        if not ok_path:
            violations.append(("not identifying", g.arcs))
            continue
        if g.arc_count > 9:
            continue
        opt = len(exact_min_path_identifying(g, st).identifying_set)
        got = len(approx.identifying_set)
        if opt == 0:
            if got != 0:
                violations.append(("empty-opt", got))
            continue
        if got > (opt + 1) * opt / 2:
            violations.append(("gap-bound", g.arcs, opt, got))
        if opt < math.sqrt(g.arc_count) and got > math.sqrt(g.arc_count) * opt + 1e-9:
            violations.append(("sqrt-bound", g.arcs, opt, got))
    report(4, not violations, f"approximation bounds; {violations or 'ok'}")
    assert not violations


def test_criterion_05_matroid_theorem_equivalence():
    fixtures = fixture_matroids()
    rng = random.Random(505)
    mismatch = []
    for m in fixtures:
        bases = all_bases(m)
        from idsets.matroids import min_weight_matroid_identifying

        circuits = enumerate_circuits(m)
        parts = matroid_components(m)
        for s in all_subsets(range(m.ground_size)):
            ident = bases_distinct_on(bases, s)
            circ = all(len(s & c) >= len(c) - 1 for c in circuits)
            comp = all(len(s & p) >= len(p) - 1 for p in parts if len(p) >= 2)
            if not (ident == circ == comp):
                mismatch.append((m.name, sorted(s)))
        subsets = all_subsets(range(m.ground_size))
        for _ in range(20):
            w = WeightedGroundSet(random_weights(rng, m.ground_size))
            s, _ = min_weight_matroid_identifying(m, w)
            best = min(w.total(c) for c in subsets if bases_distinct_on(bases, c))
            if w.total(s) != best:
                mismatch.append((m.name, "weight", str([w[e] for e in range(w.size)])))
    ok = len(fixtures) >= 30 and not mismatch
    report(5, ok, f"{len(fixtures)} fixtures; mismatches: {mismatch or 'none'}")
    assert ok


def test_criterion_06_polymatroid_theorem_equivalence():
    mismatch = []
    for f in table_fixtures():
        if f.ground_size > 6:
            continue
        parts = polymatroid_components(f)
        basis = affine_basis_of_polytope(f)
        for s in all_subsets(range(f.ground_size)):
            condition = all(len(s & p) >= len(p) - 1 for p in parts)
            identifying, _ = verify_identifying_from_basis(basis, s)
            verdict, witness = verify_polymatroid_identifying(f, s)
            if not (condition == identifying == verdict):
                mismatch.append((f.name, sorted(s)))
            if (witness is not None) != (not condition):
                mismatch.append((f.name, sorted(s), "witness"))
    from idsets.matroids import graphic_matroid, uniform_matroid

    rank_fixtures = [
        graphic_matroid(Digraph(3, [(0, 1), (1, 2), (0, 2)])),
        graphic_matroid(Digraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])),
        uniform_matroid(2, 4),
    ]
    for m in rank_fixtures:
        # The generic path: from_matroid would read m's components.
        f = PolymatroidOracle(m.ground_size, lambda t, m=m: Fraction(m.rank(t)))
        if polymatroid_components(f) != matroid_components(m):
            mismatch.append((m.name, "components"))
    report(6, not mismatch, f"polymatroid equivalence; {mismatch or 'ok'}")
    assert not mismatch


def test_criterion_07_linear_module_matches_flows():
    rng = random.Random(707)
    mismatch = []
    instances = [(g, StPair(0, 2)) for g in all_simple_digraphs(3)]
    instances.extend(seeded_multigraphs(30, seed=707, max_arcs=8))
    for g, st in instances:
        if g.arc_count == 0 or not has_st_path(g, st):
            continue
        w = WeightedGroundSet(random_weights(rng, g.arc_count, max_num=5))
        flow_result = min_weight_flow_identifying(g, st, w)
        basis = flow_polytope_basis(g, st)
        s = min_weight_identifying_from_basis(basis, w)
        if w.total(s) != flow_result.total_weight:
            mismatch.append((g.arcs, "weight"))
        if len(s) != basis.hull_dimension:
            mismatch.append((g.arcs, "dimension"))
    report(7, not mismatch, f"affine vs flow minima; {mismatch or 'ok'}")
    assert not mismatch


def test_criterion_08_greedy_cover_bound():
    rng = random.Random(808)
    instances = 0
    violations = []
    while instances < 1000:
        dim = rng.randint(1, 12)
        rows = sorted({tuple(rng.randint(0, 1) for _ in range(dim))
                       for _ in range(rng.randint(2, 12))})
        if len(rows) < 2:
            continue
        instances += 1
        x = SolutionList(dim, rows)
        w = WeightedGroundSet([Fraction(rng.randint(1, 9), rng.randint(1, 3))
                               for _ in range(dim)])
        greedy = greedy_identifying(x, w)
        _, opt = exact_identifying(x, w)
        bound = 2 * math.log(max(len(x), 2))
        if float(greedy.total_weight) > bound * float(opt) + 1e-12:
            violations.append((dim, len(x)))
    report(8, not violations,
           f"{instances} seeded instances within 2ln|X|; {violations or 'ok'}")
    assert not violations


def test_criterion_09_toll_soundness():
    failures = []
    # discrete: exhaustive argmin on random fixtures, every target
    rng = random.Random(909)
    for _ in range(40):
        dim = rng.randint(1, 6)
        rows = sorted({tuple(rng.randint(0, 1) for _ in range(dim))
                       for _ in range(rng.randint(1, 8))})
        x = SolutionList(dim, rows)
        s, _ = exact_identifying(x)
        cost = linear_cost([rng.randint(-4, 4) for _ in range(dim)])
        for target in x.vectors:
            toll = discrete_tolls(x, s, cost, target)
            values = [tolled_cost(toll, cost, v) for v in x.vectors]
            if tolled_cost(toll, cost, target) != min(values):
                failures.append(("discrete", target))
    # convex closed form on the two-parallel-arc quadratic
    from idsets.linear import AffineBasis

    toll = convex_tolls(AffineBasis([[1, 0], [0, 1]]), {0}, quadratic_cost([1, 1]),
                        [Fraction(3, 4), Fraction(1, 4)])
    if toll.gamma != {0: Fraction(-1, 2)}:
        failures.append(("closed-form", dict(toll.gamma)))
    # gradient verification on <= 5-arc quadratic fixtures
    fixtures = [
        (Digraph(2, [(0, 1), (0, 1)]), StPair(0, 1), [1, 1],
         [Fraction(3, 4), Fraction(1, 4)]),
        (Digraph(3, [(0, 1), (1, 2), (0, 2)]), StPair(0, 2), [1, 1, 1],
         [Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)]),
        (Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]), StPair(0, 3),
         [1, 2, 1, 2, 3], None),
    ]
    for g, st, resist, target in fixtures:
        if target is None:
            paths = enumerate_st_paths(g, st, cap=100)
            weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
            target = [sum((wv if a in p else Fraction(0))
                          for wv, p in zip(weights, paths))
                      for a in range(g.arc_count)]
        basis = flow_polytope_basis(g, st)
        cost = quadratic_cost(resist)
        s = min_weight_flow_identifying(g, st).identifying_set
        toll = convex_tolls(basis, s, cost, target)
        final = _projected_gradient(basis, cost, toll, [0.0] * basis.hull_dimension)
        err = max(abs(got - float(want)) for got, want in zip(final, target))
        if err >= 1e-6:
            failures.append(("gradient", g.arcs, err))
    report(9, not failures, f"toll soundness; {failures or 'ok'}")
    assert not failures


def test_criterion_10_integer_counterexample_regression():
    states = [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]
    # the third coordinate takes four distinct values, so {3} is identifying
    third = [v[2] for v in states]
    identifying = len(set(third)) == len(states)
    verdict = controlling_counterexample_check(states, {2},
                                               [linear_cost([1, -1, 1])])
    ok = identifying and not verdict.controlling and verdict.contradiction_rhs > 0
    report(10, ok,
           "integer X identifying on {3} but not controlling; witness target "
           f"{verdict.failing_target}, contradiction 0 >= {verdict.contradiction_rhs}")
    assert ok


def test_criterion_11_vertex_cover_reduction():
    # As stated: for small graphs and ell <= 2, extraction from a brute-force
    # minimal identifying set yields a minimum vertex cover, and the minimum
    # identifying size equals |E_s| + ell * tau(G).
    graphs = [
        ("single-edge", 2, [(0, 1)]),
        ("path3", 3, [(0, 1), (1, 2)]),
        ("triangle", 3, [(0, 1), (1, 2), (0, 2)]),
        ("star3", 4, [(0, 1), (0, 2), (0, 3)]),
        ("path4", 4, [(0, 1), (1, 2), (2, 3)]),
    ]
    cover_failures = []
    size_failures = []
    for name, n, edges in graphs:
        tau = min_vertex_cover_size(n, edges)
        for ell in (1, 2):
            inst = gen_vertex_cover_dag(n, edges, ell)
            s = exact_min_path_identifying(inst.graph, inst.st).identifying_set
            result = extract_vertex_cover(inst, s)
            if min(len(c) for c in result.covers) != tau:
                cover_failures.append((name, ell))
            expected = len(edges) + ell * tau
            if len(s) != expected:
                size_failures.append((name, ell, len(s), expected))
    ok = not cover_failures and not size_failures
    report(11, ok,
           f"cover extraction minima {cover_failures or 'ok'}; size formula "
           f"counterexamples (got vs |E_s|+ell*tau): {size_failures or 'none'}")
    assert ok, (
        "minimum identifying size does not equal |E_s| + ell*tau on "
        f"{size_failures}; brute force and the construction's own figure "
        "both give smaller/larger minima (see decisions ledger)"
    )
