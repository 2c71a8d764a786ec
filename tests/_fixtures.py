"""Read the sample ideals in fixtures/ by name."""
from pathlib import Path

from bettipowers.monomial_core import parse_ideal

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_ideal(name: str):
    return parse_ideal((FIXTURE_DIR / f"{name}.ideal").read_text())
