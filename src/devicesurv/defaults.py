"""Access to the shipped fixture dictionaries and lexicons."""

from __future__ import annotations

import json
from importlib import resources as _ir
from typing import TYPE_CHECKING

from .errors import parsing

# The loaders import the tagger, so reading the implant catalog loads none.
if TYPE_CHECKING:
    from .extraction import Dictionary, TriggerLexicon

DICTIONARY_FILES = {
    "pain": "pain_terms.tsv",
    "anatomy": "anatomy_terms.tsv",
    "complication": "complication_terms.tsv",
    "implant": "implant_terms.tsv",
}


def resource_path(name: str):
    return _ir.files("devicesurv").joinpath("resources", name)


def default_dictionaries() -> list[Dictionary]:
    from .extraction import load_dictionary

    return [load_dictionary(resource_path(fname)) for fname in DICTIONARY_FILES.values()]


def default_trigger_lexicon() -> TriggerLexicon:
    from .extraction import load_trigger_lexicon

    return load_trigger_lexicon(resource_path("context_triggers.tsv"))


def load_implant_catalog(path=None) -> dict:
    """Catalog mapping canonical_id -> (manufacturer, model) plus the
    manufacturer alias table. A file that is not such a JSON object is an
    ``InputFormatError`` naming it."""
    if path is None:
        path = resource_path("implant_catalog.json")
        raw = path.read_bytes()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    with parsing(path):
        catalog = json.loads(raw.decode("utf-8"))
        if not (isinstance(catalog, dict) and isinstance(catalog.get("catalog", {}), dict)
                and isinstance(catalog.get("manufacturer_aliases", {}), dict)):
            raise TypeError("expected an object whose catalog and manufacturer_aliases "
                            "are objects")
    return catalog
