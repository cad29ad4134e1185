"""Persistence for condensed models.

The paper's trust model lets the server persist only aggregate
statistics.  A condensed model *is* that aggregate, so storing and
reloading it is the natural deployment boundary: condense on the
trusted side, ship the JSON, generate on the consumer side.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.statistics import CondensedModel

#: Format marker so future revisions can migrate old files.
FORMAT_VERSION = 1


def save_model(path, model: CondensedModel, include_metadata=False
               ) -> None:
    """Serialize a condensed model to JSON.

    Parameters
    ----------
    path:
        Destination file.
    model:
        The condensed model.
    include_metadata:
        Whether to persist ``model.metadata``.  Off by default: static
        condensation's metadata includes record-to-group memberships,
        which reference the *original* records and must never ship with
        a release.
    """
    metadata = (_jsonable_metadata(model.metadata) if include_metadata
                else {})
    # The file is the json.dump of {"k", "metadata", "groups",
    # "format_version"}, written in pieces: the framing is encoded
    # (and can fail) before the file is opened, then each group is
    # C-encoded on its own, so no whole-model payload or string is ever
    # built.  json.dumps keeps json.dump's separators and float repr.
    # format_version follows "groups" and is an int, so the last "[]"
    # is the groups placeholder even when metadata holds one.
    head, _, tail = json.dumps({
        "k": model.k,
        "metadata": metadata,
        "groups": [],
        "format_version": FORMAT_VERSION,
    }).rpartition("[]")
    with open(path, "w") as handle:
        handle.write(head + "[")
        for index, group in enumerate(model.groups):
            if index:
                handle.write(", ")
            handle.write(json.dumps(group.to_dict()))
        handle.write("]" + tail)


def load_model(path, validate: bool = True) -> CondensedModel:
    """Load a condensed model written by :func:`save_model`.

    Parameters
    ----------
    path:
        File to read.
    validate:
        Check the structural invariants of the loaded model (finite
        sums, positive counts, PSD covariances, ...) and raise on
        violations — on by default because model files cross trust
        boundaries.

    Returns
    -------
    CondensedModel
        The deserialized model.

    Raises
    ------
    ValueError
        If the file is structurally invalid or fails validation.
    """
    path = Path(path)
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    model = CondensedModel.from_dict(payload)
    if validate:
        from repro.core.validation import validate_model

        problems = validate_model(model)
        if problems:
            raise ValueError(
                f"{path}: invalid condensed model: "
                + "; ".join(problems)
            )
    return model


def _jsonable_metadata(metadata: dict) -> dict:
    """Convert numpy-bearing metadata values to JSON-compatible ones."""
    converted = {}
    for key, value in metadata.items():
        if isinstance(value, np.ndarray):
            converted[key] = value.tolist()
        elif isinstance(value, list) and value and isinstance(
            value[0], np.ndarray
        ):
            converted[key] = [entry.tolist() for entry in value]
        elif isinstance(value, (np.integer, np.floating)):
            converted[key] = value.item()
        else:
            converted[key] = value
    return converted
