"""Persistence of models, defect reports, and fitted DeepMorph instances."""

from .deepmorph import load_deepmorph, save_deepmorph
from .persistence import load_model, save_model, save_report

__all__ = ["save_model", "load_model", "save_report", "save_deepmorph", "load_deepmorph"]
