"""No module of the package keeps state across builds: what a build
caches belongs to its `QuotientGraph` or its `Level`, so a process that
builds many quotients holds no more between them than after its first."""

import sys

from btquot.algebra import FieldSpec
from btquot.hecke import parse_level
from btquot.presentation import build_graph_of_groups, emit_presentation
from btquot.quotient import build_quotient, certify_cusps


def pipeline(level, depth):
    Q = build_quotient(level, depth)
    certify_cusps(Q)
    emit_presentation(build_graph_of_groups(Q))


def state_sizes():
    """(module, owner, name) -> length of each dict, list and set held by a
    module of the package or by a class it defines, and the `currsize` of
    each `functools` cache there."""
    sizes = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "btquot":
            continue
        owners = [("", vars(mod))] + [
            (name, vars(value)) for name, value in vars(mod).items()
            if isinstance(value, type) and value.__module__ == mod_name]
        for owner, namespace in owners:
            for name, value in namespace.items():
                if isinstance(value, (dict, list, set)):
                    sizes[mod_name, owner, name] = len(value)
                elif callable(getattr(value, "cache_info", None)):
                    sizes[mod_name, owner, name] = \
                        value.cache_info().currsize
    return sizes


def test_no_module_state_grows_across_builds():
    field = FieldSpec(3)
    pipeline(parse_level("t", field), 6)
    before = state_sizes()
    assert ("btquot.algebra", "", "_BUILTIN_MODULI") in before
    for text, depth in (("t^3", 10), ("t^2", 8)):
        pipeline(parse_level(text, field), depth)
    after = state_sizes()
    assert {key: (before.get(key), size) for key, size in after.items()
            if size != before.get(key)} == {}
