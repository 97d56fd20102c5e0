"""Semantics engines: SAT-based countermodel search, chase, certain answers."""

from .certain import CertainEngine, Explanation
from .chase import (
    Branch, ChaseAnswer, ChaseError, ChaseResult, answer_from_chase, chase,
    chase_certain_answer,
)
from .modelsearch import (
    CertainAnswerResult, certain_answer, find_model, is_consistent,
    query_formula,
)
from .rules import (
    DisjunctiveRule, Head, NotConvertible, convert_ontology, convert_sentence,
    render_rules,
)
from .sat import CNF, add_formula, dpll, ground, model_to_interpretation

__all__ = [
    "CertainEngine", "Explanation", "Branch", "ChaseAnswer", "ChaseError",
    "ChaseResult",
    "answer_from_chase", "chase", "chase_certain_answer",
    "CertainAnswerResult", "certain_answer", "find_model",
    "is_consistent", "query_formula", "DisjunctiveRule", "Head",
    "NotConvertible", "convert_ontology", "convert_sentence", "render_rules",
    "CNF",
    "add_formula", "dpll", "ground", "model_to_interpretation",
]
