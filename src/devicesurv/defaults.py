"""Access to the shipped fixture dictionaries and lexicons."""

from __future__ import annotations

import json
from importlib import resources as _ir

from .extraction import Dictionary, TriggerLexicon, load_dictionary, load_trigger_lexicon

DICTIONARY_FILES = {
    "pain": "pain_terms.tsv",
    "anatomy": "anatomy_terms.tsv",
    "complication": "complication_terms.tsv",
    "implant": "implant_terms.tsv",
}


def resource_path(name: str):
    return _ir.files("devicesurv").joinpath("resources", name)


def default_dictionaries() -> list[Dictionary]:
    return [load_dictionary(resource_path(fname)) for fname in DICTIONARY_FILES.values()]


def default_trigger_lexicon() -> TriggerLexicon:
    return load_trigger_lexicon(resource_path("context_triggers.tsv"))


def load_implant_catalog(path=None) -> dict:
    """Catalog mapping canonical_id -> (manufacturer, model) plus the
    manufacturer alias table."""
    if path is None:
        raw = resource_path("implant_catalog.json").read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    return json.loads(raw)
