"""The shipped files under fixtures/ match what scripts/make_fixtures.py writes."""

import importlib.util
from pathlib import Path

import pytest

from losstomo import fixtures
from losstomo.topology import serialize_topology

ROOT = Path(__file__).resolve().parents[1]


def _make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["star3", "toy7", "twotree12", "layered49"])
def test_topology_file_matches_builder(name):
    shipped = (ROOT / "fixtures" / f"{name}.topo").read_text(encoding="utf-8")
    assert shipped == serialize_topology(getattr(fixtures, name)())


def test_data_and_grid_files_match_script():
    script = _make_fixtures()
    assert (ROOT / "fixtures" / "star3.data").read_text(encoding="utf-8") == script.STAR_DATA
    assert (ROOT / "fixtures" / "table_grid.txt").read_text(encoding="utf-8") == \
        script.DEFAULT_GRID
