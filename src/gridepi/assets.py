"""Access to the bundled scenario and definition files."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

__all__ = ["asset_path"]


def asset_path(name: str) -> Path:
    """Filesystem path of a bundled asset (the package installs flat)."""
    return Path(str(resources.files(__package__) / "assets" / name))

