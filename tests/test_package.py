"""The package's public names."""

import ast
from pathlib import Path

import pytest

import mdp_tcm


def test_every_exported_name_resolves():
    # a name in __all__ that the package lacks makes the star import raise
    namespace = {}
    exec("from mdp_tcm import *", namespace)
    assert set(mdp_tcm.__all__) <= set(namespace)


# public definitions that nothing in src/ calls, kept as oracles: each with
# the test module that compares the program against it
ORACLES = {
    "dbn.batch_gradient": "test_dbn.py",
    "dbn.classifier_loss": "test_dbn.py",
    "dbn.regressor_loss": "test_dbn.py",
    "rbm.energy": "test_rbm.py",
    "rbm.exact_joint": "test_rbm.py",
    "rbm.exact_conditional": "test_rbm.py",
    "rbm.reconstruction_cross_entropy": "test_rbm.py",
    "signal_pipeline.label_state": "test_signal_pipeline.py",
    # the trials that acceptance criteria 7-10 call
    "experiments.imbalance_trial": "test_acceptance.py",
    "experiments.fleet_framework_trial": "test_acceptance.py",
    "experiments.fleet_sensor_subset_trial": "test_acceptance.py",
}

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mdp_tcm"


def uses(tree: ast.Module, module: str, own: dict) -> set:
    """The ("module", "name") pairs that `tree`, the code of `module`,
    refers to by resolved name: an import from an mdp_tcm module, an
    attribute of an imported mdp_tcm module, or a name of `own` (name ->
    its definition, in `module`) outside that definition."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("mdp_tcm." * (node.level > 0) + (node.module or "")).strip(".")
            for alias in node.names:
                if source == "mdp_tcm":
                    modules[alias.asname or alias.name] = alias.name
                elif source.startswith("mdp_tcm."):
                    found.add((source.removeprefix("mdp_tcm."), alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mdp_tcm.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("mdp_tcm.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and node.id in own:
            definition = own[node.id]
            if not definition.lineno <= node.lineno <= definition.end_lineno:
                found.add((module, node.id))
    return found


def public_definitions(tree: ast.Module) -> dict:
    """Name -> node of each public function or class defined at module level."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def uncalled_in_src(src: Path) -> list:
    """`module.name` of each public module-level function or class of the
    package at `src` that no code of the package refers to."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    defined, used = set(), set()
    for module, tree in trees.items():
        own = public_definitions(tree)
        defined |= {(module, name) for name in own}
        used |= uses(tree, module, own)
    return sorted(f"{module}.{name}" for module, name in defined - used)


def test_every_public_definition_has_a_caller_in_src():
    # library code that nothing in src/ calls goes, unless it is an oracle
    assert uncalled_in_src(SRC) == sorted(ORACLES)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_each_oracle_is_used_by_its_test(oracle):
    module, name = oracle.split(".")
    tree = ast.parse((TESTS / ORACLES[oracle]).read_text(encoding="utf-8"))
    assert (module, name) in uses(tree, "", {})
