"""The config tables: every key has one row, and the kinds agree with the CLI."""

import argparse

from kickecho.cli import _SCAN_TABLE, build_parser
from kickecho.config import _COMMON_DEFAULTS, _KEYS, _KIND_SCHEMAS, KINDS


def test_every_schema_key_has_a_row():
    keys = set(_COMMON_DEFAULTS)
    for required, optional in _KIND_SCHEMAS.values():
        keys |= set(required) | set(optional)
    assert keys <= set(_KEYS)


def test_subcommands_are_the_kinds():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == KINDS


def test_scan_kinds_are_the_kinds_with_points():
    with_points = {kind for kind, (_, optional) in _KIND_SCHEMAS.items() if "points" in optional}
    assert set(_SCAN_TABLE) == with_points
