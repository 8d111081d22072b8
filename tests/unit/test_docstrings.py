"""Public-API docstring coverage: no docstring-less symbol may ship.

The engine has three layers (routing → panes/scopes → shared/private
aggregation) and a handful of user-facing toggles; the docs site
under ``docs/`` explains the architecture, but the first line of defence is
the API itself.  This test walks every module of ``repro.executor``,
``repro.events``, and ``repro.replay`` and asserts that each public class,
function, method, property, classmethod, and staticmethod carries a
docstring, so an undocumented addition fails CI instead of silently eroding
the surface.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro.events
import repro.executor
import repro.replay

#: The packages whose whole public surface must be documented, with the
#: minimum symbol count the walker must see (guards against silent no-ops).
AUDITED_PACKAGES = (
    (repro.executor, 40),
    (repro.events, 40),
    (repro.replay, 20),
)


def _documented(obj) -> bool:
    return bool((getattr(obj, "__doc__", None) or "").strip())


def _class_members(qualname: str, cls) -> "list[tuple[str, object]]":
    """The class's public callables/properties defined in its own body."""
    members = []
    for attribute, member in vars(cls).items():
        if attribute.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            members.append((f"{qualname}.{attribute}", member.__func__))
        elif isinstance(member, property):
            members.append((f"{qualname}.{attribute}", member.fget))
        elif callable(member):
            members.append((f"{qualname}.{attribute}", member))
    return members


def public_symbols(package) -> "list[tuple[str, object]]":
    """Every public symbol (and class member) defined inside ``package``."""
    symbols = []
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        module = importlib.import_module(info.name)
        symbols.append((info.name, module))
        for name in dir(module):
            if name.startswith("_"):
                continue
            obj = getattr(module, name)
            # Only audit where the symbol is *defined*; re-exports are the
            # defining module's responsibility.
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{info.name}.{name}"
            if inspect.isclass(obj):
                symbols.append((qualname, obj))
                symbols.extend(_class_members(qualname, obj))
            elif inspect.isfunction(obj):
                symbols.append((qualname, obj))
    return symbols


@pytest.mark.parametrize(
    ("package", "floor"), AUDITED_PACKAGES, ids=lambda p: getattr(p, "__name__", p)
)
def test_no_public_symbol_is_docstring_less(package, floor):
    symbols = public_symbols(package)
    # The walk must actually see the API (guards against a silent no-op).
    assert len(symbols) > floor, f"suspiciously few symbols audited in {package.__name__}"
    missing = sorted(name for name, obj in symbols if not _documented(obj))
    assert not missing, (
        f"{len(missing)} public symbols in {package.__name__} lack docstrings:\n  "
        + "\n  ".join(missing)
    )


def test_audit_covers_the_executor_entry_points():
    """The walker must include both online executors and the engine (audit self-check)."""
    names = {name for name, _obj in public_symbols(repro.executor)}
    assert "repro.executor.shared.SharonExecutor.run" in names
    # A-Seq is Sharon with the empty plan: its own body is the constructor.
    assert "repro.executor.aseq.ASeqExecutor" in names
    assert "repro.executor.engine.StreamingEngine.run" in names
    assert "repro.executor.engine.EngineSession.drive" in names
    assert "repro.executor.engine.EngineSession.migrate" in names
    assert not any(name.startswith("repro.executor.sharding") for name in names)


def test_audit_covers_the_churn_surface():
    """The walker must include the live-churn layer (audit self-check)."""
    executor_names = {name for name, _obj in public_symbols(repro.executor)}
    assert "repro.executor.churn.ChurnOp" in executor_names
    assert "repro.executor.churn.ChurnSchedule" in executor_names
    assert "repro.executor.churn.ChurnState.emits" in executor_names
    assert "repro.executor.churn.parse_churn_script" in executor_names
    assert "repro.executor.engine.EngineSession.attach_query" in executor_names
    assert "repro.executor.engine.EngineSession.detach_query" in executor_names
    replay_names = {name for name, _obj in public_symbols(repro.replay)}
    assert "repro.replay.checkpoint.describe_churn_op" in replay_names
    assert "repro.replay.runner.ReplayRunner.run" in replay_names


def test_audit_covers_the_prefix_aggregation_surface():
    """The walker must include the one numeric path (audit self-check)."""
    names = {name for name, _obj in public_symbols(repro.executor)}
    assert "repro.executor.prefix_agg.PrivateSegmentState.stage_batch" in names
    assert "repro.executor.prefix_agg.SharedSegmentState.commit" in names
    assert "repro.executor.prefix_agg.SharedSegmentState.export_state" in names
    assert "repro.executor.prefix_agg.SharedSegmentState.check_cohorts" in names
    assert not any(name.startswith("repro.executor.kernels") for name in names)
