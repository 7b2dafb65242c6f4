"""Implant canonicalization and registry reconciliation.

Extracted implant records are compared to a registry snapshot on
(patient_id, component_role, surgery_date within tolerance). Matched pairs
with equal canonicalized (manufacturer, model) count as agreement, unequal
pairs as conflict, and unmatched records as missing on one side.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from .errors import ConfigError, InputFormatError, parse_date, read_csv, write_csv, write_json
from .outcomes import match_by_date

COMPONENT_ROLES = ("acetabular", "femoral", "other")

STATUS_AGREEMENT = "agreement"
STATUS_CONFLICT = "conflict"
STATUS_MISSING_IN_REGISTRY = "missing_in_registry"
STATUS_MISSING_IN_EXTRACTION = "missing_in_extraction"


@dataclass(frozen=True, slots=True)
class RegistryRecord:
    patient_id: str
    surgery_date: date
    component_role: str
    manufacturer: str
    model: str

    def __post_init__(self):
        if self.component_role not in COMPONENT_ROLES:
            raise ValueError(f"unknown component_role {self.component_role!r}")
        if not self.manufacturer or not self.model:
            raise ValueError("manufacturer and model must be nonempty")


def canonicalize_implant(mention, catalog: dict) -> tuple[str, str]:
    """Resolve an implant mention's canonical_id to an aliased
    (manufacturer, model) pair."""
    if mention.entity_type != "implant":
        raise ConfigError(f"not an implant mention: {mention.entity_type}")
    entry = catalog.get("catalog", {}).get(mention.canonical_id)
    if entry is None:
        raise InputFormatError(
            f"canonical_id {mention.canonical_id!r} absent from implant catalog",
            context={"canonical_id": mention.canonical_id},
        )
    aliases = catalog.get("manufacturer_aliases", {})
    manufacturer = aliases.get(entry["manufacturer"], entry["manufacturer"])
    return manufacturer, entry["model"]


def canonicalize_manufacturer(name: str, catalog: dict) -> str:
    return catalog.get("manufacturer_aliases", {}).get(name, name)


@dataclass(frozen=True)
class ReconciliationEntry:
    patient_id: str
    component_role: str
    status: str
    extracted: RegistryRecord | None
    registry: RegistryRecord | None


@dataclass
class ReconciliationReport:
    entries: list[ReconciliationEntry]

    def counts(self) -> dict[str, int]:
        out = {
            STATUS_AGREEMENT: 0,
            STATUS_CONFLICT: 0,
            STATUS_MISSING_IN_REGISTRY: 0,
            STATUS_MISSING_IN_EXTRACTION: 0,
        }
        for e in self.entries:
            out[e.status] += 1
        return out

    def fractions(self) -> dict[str, float]:
        counts = self.counts()
        total = sum(counts.values())
        if total == 0:
            return {k: 0.0 for k in counts}
        return {k: v / total for k, v in counts.items()}

    def write_csv(self, path) -> None:
        def side(r):
            return [r.surgery_date.isoformat(), r.manufacturer, r.model] if r else ["", "", ""]

        write_csv(path, [
            "patient_id", "component_role", "status",
            "extracted_date", "extracted_manufacturer", "extracted_model",
            "registry_date", "registry_manufacturer", "registry_model",
        ], ([e.patient_id, e.component_role, e.status, *side(e.extracted), *side(e.registry)]
            for e in self.entries))

    def write_summary_json(self, path) -> None:
        write_json(path, {"counts": self.counts(), "fractions": self.fractions()})


def reconcile_registry(extracted, registry, date_tolerance_days: int = 30) -> ReconciliationReport:
    """Match per (patient_id, component_role) by nearest surgery date within
    tolerance, then score matched pairs on (manufacturer, model) equality."""
    entries: list[ReconciliationEntry] = []
    for (pid, role), pairs, ext_only, reg_only in match_by_date(
        extracted, registry, lambda r: (r.patient_id, r.component_role),
        lambda r: r.surgery_date, date_tolerance_days,
    ):
        for er, rr in pairs:
            status = (
                STATUS_AGREEMENT
                if (er.manufacturer, er.model) == (rr.manufacturer, rr.model)
                else STATUS_CONFLICT
            )
            entries.append(ReconciliationEntry(pid, role, status, er, rr))
        entries.extend(
            ReconciliationEntry(pid, role, STATUS_MISSING_IN_REGISTRY, er, None) for er in ext_only)
        entries.extend(
            ReconciliationEntry(pid, role, STATUS_MISSING_IN_EXTRACTION, None, rr)
            for rr in reg_only)
    return ReconciliationReport(entries=entries)


_REGISTRY_COLUMNS = ("patient_id", "surgery_date", "component_role", "manufacturer", "model")


def registry_to_csv(records, path) -> None:
    """Write records in the format ``load_registry_csv`` reads."""
    write_csv(path, _REGISTRY_COLUMNS,
              ([r.patient_id, r.surgery_date.isoformat(), r.component_role, r.manufacturer,
                r.model] for r in records))


def load_registry_csv(path, catalog: dict | None = None) -> list[RegistryRecord]:
    """CSV columns: patient_id, surgery_date (ISO-8601), component_role,
    manufacturer, model. With an implant ``catalog``, each manufacturer is
    read through its ``manufacturer_aliases``."""
    catalog = catalog or {}

    def record(row):
        return RegistryRecord(
            patient_id=row["patient_id"],
            surgery_date=parse_date(row["surgery_date"]),
            component_role=row["component_role"],
            manufacturer=canonicalize_manufacturer(row["manufacturer"], catalog),
            model=row["model"],
        )

    return read_csv(path, _REGISTRY_COLUMNS, record)
