"""The generator: determinism, no repeated inputs, faithful rendering."""

import random

import pytest

import corpus
from qahd import eval_expr, parse


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for round_index in (0, 7):
        a = corpus.round_ops(workload, 5, round_index)
        b = corpus.round_ops(workload, 5, round_index)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.terms for op in a] == [op.terms for op in b]
    other = corpus.round_ops(workload, 6, 0)
    assert [op.argv for op in other][:-1] != [op.argv for op in a][:-1]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    seen = set()
    for round_index in range(60):
        for op in corpus.round_ops(workload, 3, round_index):
            key = tuple(op.argv)
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_round_has_the_same_slots_and_one_fixed_fault(workload):
    shapes = None
    for seed in (1, 2):
        for round_index in (0, 1):
            ops = corpus.round_ops(workload, seed, round_index)
            shape = [(op.verb, op.slot, op.n, op.nodes) for op in ops]
            assert shapes is None or shape == shapes
            shapes = shape
            assert [op.fault for op in ops].count(None) == len(ops) - 1
            assert ops[-1].fault is not None
            assert ops[-1].argv[3].rstrip() in (corpus.F1_EXPR, corpus.F2_EXPR,
                                                corpus.F3_EXPR)


def test_symbolic_expansion_stays_bounded():
    for verb, n, p, k in corpus.SYMBOLIC_SLOTS:
        if p > 0:
            assert (n + 1) ** p * 2 ** k <= 16384


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_rendered_input_means_the_generated_terms(workload):
    rng = random.Random(0)
    for op in corpus.round_ops(workload, 9, 0)[:-1]:
        tree = parse(op.argv[3], op.n)
        for _ in range(3):
            x = [rng.uniform(0.3, 1.5) * rng.choice((-1, 1)) for _ in range(op.n)]
            expected = sum(t.value(x) for t in op.terms)
            got = eval_expr(tree, x)
            assert abs(got - expected) <= 1e-9 * (1 + abs(expected))

