"""Data and model I/O: CSV for records, JSON for condensed models."""

from repro.io.csv import (
    read_dataset,
    read_records,
    write_dataset,
    write_records,
)
from repro.io.model_store import load_model, save_model

__all__ = [
    "read_dataset",
    "read_records",
    "write_dataset",
    "write_records",
    "load_model",
    "save_model",
]
