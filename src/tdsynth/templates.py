"""Template bundle loading.

A bundle directory holds ``case.m`` (MATPOWER text), ``case.oltc.csv``
(tap-changer sidecar), ``meta.csv`` and a ``README``.  ``meta.csv`` is a
three-column table ``record,key,value`` carrying what the case format
cannot express:

* ``area,<code>,<label>`` -- zone label for a bus-table area code

Any other record type is rejected.  The generator classification is not a
meta record: it travels in the case file's ``mpc.gen_kind`` table.

Two miniature bundles ship with the package (``mini-tn``, ``mini-dn``);
full-size bundles dropped into the same layout work identically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .caseio import load_case_dir
from .netmodel import NetworkCase


# the files of a bundle that load_bundle reads
BUNDLE_FILES = ("case.m", "case.oltc.csv", "meta.csv")


@dataclass
class TemplateMeta:
    area_names: dict[int, str] = field(default_factory=dict)


@dataclass
class TemplateBundle:
    case: NetworkCase
    meta: TemplateMeta
    path: Path


def bundled_template_dir() -> Path:
    """Directory with the bundles installed alongside the package."""
    return Path(resources.files("tdsynth") / "templates")


def read_meta(path: Path) -> TemplateMeta:
    meta = TemplateMeta()
    if not path.exists():
        return meta
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            record, key, value = row["record"], row["key"], row["value"]
            if record == "area":
                meta.area_names[int(key)] = value
            else:
                raise ValueError(f"{path}: unknown meta record type {record!r}")
    return meta


def load_bundle(path: Path | str) -> TemplateBundle:
    path = Path(path)
    if not (path / "case.m").exists():
        raise FileNotFoundError(f"no case.m under {path}")
    case = load_case_dir(path)
    meta = read_meta(path / "meta.csv")
    return TemplateBundle(case=case, meta=meta, path=path)
