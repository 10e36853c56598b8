"""Bundled data: the ibmqx4 coupling map, reference run statistics, and the
shipped noise calibration."""

from __future__ import annotations

from importlib import resources

from .fileio import parse_coupling, parse_noise, read_json
from .noise import NoiseModel
from .routing import CouplingGraph


def _load(name: str) -> dict:
    return read_json(data_file_path(name))


def data_file_path(name: str) -> str:
    """Filesystem path of a bundled data file."""
    return str(resources.files("qss.data").joinpath(name))


def load_ibmqx4_coupling() -> CouplingGraph:
    """The 5-qubit bowtie coupling map (directed CNOT edges)."""
    return parse_coupling(_load("ibmqx4.json"))


def load_reference_runs() -> dict:
    """Target statistics for the secret-sharing circuit on ibmqx4."""
    return _load("ibmqx4_reference.json")


def load_shipped_calibration() -> dict:
    """The committed calibration fit (see the calibrate subcommand)."""
    return _load("ibmqx4_calibration.json")


def shipped_noise_model() -> NoiseModel:
    """NoiseModel from the committed calibration file."""
    return parse_noise(load_shipped_calibration())
