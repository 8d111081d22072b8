"""Query model: patterns, predicates, aggregates, queries, parser, workloads."""

from .aggregates import AggregateSpec, AggregateState, AggregationKind
from .parser import QueryParseError, parse_query
from .pattern import Pattern, PatternSplit
from .predicates import EquivalencePredicate, FilterPredicate, PredicateSet
from .query import GroupKey, Query
from .workload import NonUniformWorkloadError, Workload

__all__ = [
    "AggregateSpec",
    "AggregateState",
    "AggregationKind",
    "QueryParseError",
    "parse_query",
    "Pattern",
    "PatternSplit",
    "EquivalencePredicate",
    "FilterPredicate",
    "PredicateSet",
    "GroupKey",
    "Query",
    "NonUniformWorkloadError",
    "Workload",
]
