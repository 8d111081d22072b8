"""Data set simulators (TX, LR, EC) and workload generators."""

from .ecommerce import DEFAULT_ITEMS, EcommerceConfig, generate_ecommerce_stream, item_types
from .linear_road import LinearRoadConfig, generate_linear_road_stream, segment_types
from .synthetic import ChainConfig, chain_event_types, chain_stream, chain_workload
from .taxi import DEFAULT_STREETS, TaxiConfig, generate_taxi_stream
from .workloads import (
    PURCHASE_PATTERNS,
    TRAFFIC_PATTERNS,
    RandomRun,
    purchase_workload,
    random_run,
    traffic_workload,
    traffic_workload_scaled,
)

__all__ = [
    "DEFAULT_ITEMS",
    "EcommerceConfig",
    "generate_ecommerce_stream",
    "item_types",
    "LinearRoadConfig",
    "generate_linear_road_stream",
    "segment_types",
    "ChainConfig",
    "chain_event_types",
    "chain_stream",
    "chain_workload",
    "DEFAULT_STREETS",
    "TaxiConfig",
    "generate_taxi_stream",
    "PURCHASE_PATTERNS",
    "TRAFFIC_PATTERNS",
    "RandomRun",
    "purchase_workload",
    "random_run",
    "traffic_workload",
    "traffic_workload_scaled",
]
