"""Continual GUI-grounding simulator with diversity-shaped group-relative
policy optimization."""

__version__ = "0.1.0"
