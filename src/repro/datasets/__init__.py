"""Workload generation for experiments and examples."""

from repro.datasets.objects import random_vertex_objects

__all__ = ["random_vertex_objects"]
