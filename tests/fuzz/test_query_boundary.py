"""Keep the query boundary one: ``repro.engine.scope`` is the only
module under ``src/repro`` that activates a cancel token, activates
the tracer or forces a trace, and nothing
outside ``obs/tracer.py`` flips the shared tracer switch.

``src/repro/fuzz`` is exempt from the activation rules: the sweep's
kinds arm tokens and injectors around their targets by design.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SCOPE = "engine/scope.py"

#: ``<receiver>.<method>(`` calls only the scope module may make.
SCOPE_ONLY = {
    ("cancel", "activate"), ("cancel_mod", "activate"),
    ("tracer_mod", "activate"),
    ("tracer", "forced"),
}
#: Calls only the tracer module itself may make.
TRACER_ONLY = {("tracer", "enable"), ("tracer", "disable")}


def _calls(path: Path):
    """``(receiver, method)`` of every ``a.b.receiver.method(...)``
    call in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = receiver.attr if isinstance(receiver, ast.Attribute) \
                else getattr(receiver, "id", None)
            yield name, node.func.attr


def _callers(wanted: set) -> dict:
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for call in _calls(path):
            if call in wanted:
                found.setdefault(call, set()).add(module)
    return found


def test_only_the_scope_opens_a_query():
    callers = _callers(SCOPE_ONLY)
    # The scope really does make each kind of call...
    for receiver in ("cancel", "tracer_mod", "tracer"):
        assert any(SCOPE in modules for call, modules in callers.items()
                   if call[0] == receiver), receiver
    # ...and nobody else does.
    strays = {call: sorted(m for m in modules
                           if m != SCOPE and not m.startswith("fuzz/"))
              for call, modules in callers.items()}
    assert not any(strays.values()), strays


def test_nothing_flips_the_shared_tracer_switch():
    assert not _callers(TRACER_ONLY)

