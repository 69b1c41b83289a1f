"""Every compiled program runs through one execution path.

:func:`repro.sim.executor.run_program` is the one function that runs a
program on an :class:`~repro.sim.executor.ArrayMachine` (preload, run,
extract; flat or staged), :meth:`CompiledProgram.machine
<repro.core.compiler.CompiledProgram.machine>` is the one machine factory,
and :func:`repro.sim.vectorized.resolve_engine` is consulted by the engine
dispatch in :mod:`repro.sim.executor`.  Hand-rolled copies of that
sequence drift apart (a copy that forgets stages crashes on every
spill-and-partition program), so this test walks the ``src/repro`` syntax
trees and fails when one grows back.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the module that owns the execution path
EXECUTOR = "sim/executor.py"

#: name -> functions outside the executor allowed to use it, with why
ALLOWED = {
    # the single machine factory every execution path builds with
    "ArrayMachine": {
        "core/compiler.py:CompiledProgram.machine",
    },
    # checkpoint-replay steps a flat program instruction by instruction,
    # snapshotting as it goes, so it cannot hand the run to run_program
    "preload_sources": {
        "reliability/recovery.py:CheckpointReplay.execute",
    },
    "extract_outputs": {
        "reliability/recovery.py:CheckpointReplay.execute",
    },
    # a campaign always injects faults; it resolves "auto" once per run
    # for its trial blocks, through the same rule
    "resolve_engine": {
        "reliability/campaign.py:run_campaign",
    },
}


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Calls(ast.NodeVisitor):
    """Collect ``(qualified function, called name)`` for watched names."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = _nested
    visit_FunctionDef = _nested
    visit_AsyncFunctionDef = _nested

    def visit_Call(self, node: ast.Call) -> None:
        name = _called_name(node)
        if name in ALLOWED:
            self.found.append((".".join(self.scope) or "<module>", name))
        self.generic_visit(node)


def _uses() -> list[tuple[str, str]]:
    uses = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == EXECUTOR:
            continue
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        uses.extend((f"{module}:{where}", name)
                    for where, name in visitor.found)
    return uses


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_no_hand_rolled_execution_outside_the_executor(name):
    strays = sorted(where for where, called in _uses()
                    if called == name and where not in ALLOWED[name])
    assert not strays, (
        f"{name} is used outside {EXECUTOR}: {strays}; run programs "
        "through repro.sim.executor.run_program / execute_program and "
        "build machines with CompiledProgram.machine")


def test_allowlist_has_no_stale_entries():
    used = {(where, name) for where, name in _uses()}
    stale = sorted((where, name) for name, places in ALLOWED.items()
                   for where in places if (where, name) not in used)
    assert not stale, f"allowlisted uses no longer exist: {stale}"
