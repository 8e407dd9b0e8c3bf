"""Finite-type Garside categories from germ descriptions."""

from .germ import (
    Budget,
    BudgetExceeded,
    GarsideGerm,
    GermError,
    GermSyntaxError,
    GermTable,
    GermValidationError,
    InternalError,
    components,
    make_table,
    parse_germ,
    table_to_text,
    validate,
)
from .words import (
    NormalForm,
    format_word,
    identity_nf,
    invert,
    multiply,
    normal_form,
    parse_word,
    power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
