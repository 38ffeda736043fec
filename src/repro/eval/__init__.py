"""Evaluation harness: perplexity, downstream accuracy, operating points, reports."""

from repro.eval.perplexity import perplexity, dense_perplexity
from repro.eval.accuracy import task_accuracy, suite_accuracy
from repro.eval.operating_point import (
    OperatingPoint,
    find_operating_point,
    max_throughput_at_ppl_increase,
    operating_point_from_rows,
)
from repro.eval.harness import (
    EvaluationSettings,
    MethodEvaluation,
    evaluate_method,
)
from repro.eval.reporting import format_table, format_series, results_to_rows

__all__ = [
    "perplexity",
    "dense_perplexity",
    "task_accuracy",
    "suite_accuracy",
    "OperatingPoint",
    "find_operating_point",
    "max_throughput_at_ppl_increase",
    "operating_point_from_rows",
    "EvaluationSettings",
    "MethodEvaluation",
    "evaluate_method",
    "format_table",
    "format_series",
    "results_to_rows",
]
