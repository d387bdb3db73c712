"""Tooling check on the size of the library: every top-level function,
class and method in `src/fidest` must be referenced by other `src` code,
so that no surface lives on for its own tests only.

A definition counts as referenced when its name appears as a name or an
attribute anywhere in `src/fidest` outside its own body; imports and
`__all__` entries do not count.  A method whose name several classes
define, as a method or as an annotated field, is held to more: a read
through some other object's attribute cannot say which class it reaches,
so such a method counts as referenced only through `self.<name>` inside
its own class, or when its name belongs to one of the INTERFACES below,
where any reference counts for every class of that module.  Dunder
methods are called implicitly and are skipped.  The names in ALLOWED
have no `src` caller on purpose.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fidest"

#: module -> (method names every class of the module shares, why)
INTERFACES = {
    "states": ({"n", "entries", "born_laws", "fidelity", "pure_ensemble"},
               "the state interface of the states docstring; no module "
               "branches on the state type"),
    "samplers": ({"draw", "distribution", "coefficients", "support",
                  "draw_index"},
                 "the batch sampler protocol of the samplers docstring; "
                 "coefficients on the samplers that know c(a), support and "
                 "draw_index on the exact and uniform-X samplers"),
}

#: module.name -> why it stays with no src caller
ALLOWED = {
    "estimation._frame_expectations":
        "test oracle: <T_a> as the parity of a diagonalizing-frame measurement",
    "estimation.dfe_expected_value": "test oracle: exact DFE shot mean",
    "estimation.fofe_expected_value": "test oracle: exact FOFE shot mean",
    "estimation.nldfe_expected_value": "test oracle: exact NLDFE shot mean",
    "estimation.fofe_branch_amplitudes":
        "test oracle: the Hadamard-test circuit behind the FOFE laws",
    "estimation.fofe_outcome_distribution":
        "test oracle: one FOFE branch law; the benchmark tracer wraps it",
    "estimation.fofe_multi_target":
        "multi-target FOFE from one outcome stream (acceptance criterion 9)",
    "magic.complete3_l1_exact":
        "exact complete-3-hypergraph l1, to be reported by fig2a",
    "magic.complete3_variance_bounds":
        "closed-form complete-3-hypergraph DFE bracket, to be reported by fig2a",
    "samplers.BellCircuitSampler":
        "two-copy Bell sampling of real states (acceptance criterion 4)",
    "samplers.MPSL2Sampler.expectation":
        "<T_a> of a real MPS; ROADMAP item 2 wires MPS into `run`",
}


def _scan():
    """Each definition as (module, class node or None, node), the names of
    the annotated class-body fields as (class node, name), and every
    referenced identifier with the nodes that reference it."""
    defs, fields, refs = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, None, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path.stem, node, sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
                fields += [(node, sub.target.id) for sub in node.body
                           if isinstance(sub, ast.AnnAssign)
                           and isinstance(sub.target, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    return defs, fields, refs


def _is_self_ref(ref) -> bool:
    return (isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name)
            and ref.value.id == "self")


def _unreferenced():
    defs, fields, refs = _scan()
    classes_defining = {}
    for cls, name in fields + [(cls, node.name) for _, cls, node in defs
                               if cls is not None]:
        classes_defining.setdefault(name, set()).add(id(cls))
    out = []
    for module, cls, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = {id(sub) for sub in ast.walk(node)}
        outside = [ref for ref in refs.get(name, []) if id(ref) not in own]
        shared = cls is not None and len(classes_defining[name]) > 1
        if shared and name not in INTERFACES.get(module, (set(), ""))[0]:
            in_class = {id(sub) for sub in ast.walk(cls)}
            outside = [ref for ref in outside
                       if _is_self_ref(ref) and id(ref) in in_class]
        if not outside:
            prefix = f"{module}.{cls.name}" if cls is not None else module
            out.append(f"{prefix}.{name}")
    return out


def test_every_definition_has_a_src_reference():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"defined in src/fidest but referenced by no src code: {dead}"


def test_allowlist_holds_only_unreferenced_definitions():
    # an entry that gains a src caller, or is deleted, leaves the list
    stale = sorted(set(ALLOWED) - set(_unreferenced()))
    assert not stale, f"ALLOWED entries that are referenced or gone: {stale}"


def test_field_of_one_class_does_not_reference_another_class_method(
        tmp_path, monkeypatch):
    # g.weight reads the field of Group; it must not count as a call of
    # the unused method Point.weight
    (tmp_path / "demo.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Group:\n    weight: float\n\n\n"
        "class Point:\n    def weight(self):\n        return 1\n\n\n"
        "def total(groups):\n    return sum(g.weight for g in groups)\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert "demo.Point.weight" in _unreferenced()
