"""E5 — Theorem 8: CSP-hardness via the OMQ encoding.

Both reduction directions are exercised on graph coloring: the native CSP
solver and the OMQ route (certain answer of the encoded ontology's query)
must agree on every instance.
"""

import pytest

from repro.csp import (
    clique_template, encode_template, is_homomorphic, random_graph_instance,
    solve,
)
from repro.semantics.modelsearch import certain_answer


def cycle(n: int):
    return random_graph_instance(n, [(i, (i + 1) % n) for i in range(n)])


K2 = clique_template(2).with_precoloring()
ENC = encode_template(K2, style="eq")
GRAPHS = {"C4": cycle(4), "C5": cycle(5), "C6": cycle(6)}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_csp_native(benchmark, name):
    graph = GRAPHS[name]
    result = benchmark(lambda: is_homomorphic(graph, K2))
    assert result == (len(graph.dom()) % 2 == 0)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_csp_via_omq(benchmark, name):
    graph = GRAPHS[name]
    omq_input = ENC.omq_instance(graph)

    def route():
        return certain_answer(ENC.ontology, omq_input, ENC.query, (),
                              extra=2).holds

    certain = benchmark(route)
    assert certain == (len(graph.dom()) % 2 == 1)


@pytest.mark.parametrize("style", ["eq", "counting", "functional"])
def test_equivalence_all_styles(style):
    print(f"\nE5 / Theorem 8 — D -> A  iff  O_A, D' !|= q  [{style}]:")
    enc = encode_template(K2, style=style)
    for name, graph in GRAPHS.items():
        colorable = is_homomorphic(graph, K2)
        certain = certain_answer(
            enc.ontology, enc.omq_instance(graph), enc.query, (),
            extra=3).holds
        print(f"  {name}: 2-colorable={colorable}  OMQ-certain={certain}")
        assert colorable == (not certain)


def test_ablation_ac3(benchmark):
    """Ablation: AC-3 preprocessing vs raw backtracking."""
    graph = cycle(9)

    def both():
        with_ac3 = solve(graph, K2, use_ac3=True)
        without = solve(graph, K2, use_ac3=False)
        assert (with_ac3 is None) == (without is None)
        return True

    assert benchmark(both)
