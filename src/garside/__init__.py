"""Finite-type Garside categories from germ descriptions."""

from .germ import (
    Automorphism,
    Budget,
    BudgetExceeded,
    GarsideGerm,
    GermError,
    GermSyntaxError,
    GermTable,
    GermValidationError,
    InternalError,
    components,
    germ_isomorphism,
    make_table,
    parse_germ,
    phi_automorphism,
    table_to_text,
    validate,
)
from .words import (
    NormalForm,
    PositiveWord,
    equal,
    format_word,
    identity_nf,
    invert,
    multiply,
    normal_form,
    parse_word,
    phi_on_morphism,
    power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
