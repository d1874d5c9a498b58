"""Erasure code families, symbol-fixing extractors, and graph codes."""

from codefam.gf import FieldSpec, make_field

__all__ = ["FieldSpec", "make_field"]
