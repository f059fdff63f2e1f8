"""The decoupled object domain: positions, object sets, and their index."""

from repro.objects.index import ObjectIndex

__all__ = ["ObjectIndex"]
