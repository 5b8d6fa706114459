"""Every einpath module imports only the public names of the others."""

import ast
import importlib
from pathlib import Path

import einpath

SRC = Path(einpath.__file__).parent


def _private_imports(path):
    """(line, module, name) for each underscore name the module at path
    imports from another einpath module, relatively or by package name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "einpath":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, node.module or ".", alias.name))
    return found


def test_no_private_name_crosses_a_module():
    found = {path.name: hits for path in sorted(SRC.glob("*.py")) if (hits := _private_imports(path))}
    assert found == {}


# every public name and the module that defines it: the names the package
# exported before it built __all__ from the modules' lists, and verify_path
PUBLIC = {
    "core": (
        "CostReport EinExpr SsaPath TensorNetwork TensorSig cost export_dot index_appearances "
        "intermediates_equal naive ssa_to_tree summed_indices tensor_size tree_to_ssa "
        "validate_tree verify_path"
    ),
    "errors": (
        "BudgetError EinPathError EinsumSyntaxError GenerationError InvalidContractionError "
        "MalformedPathError MissingExtentError NetworkValidationError TraceError "
        "UnsupportedArityError"
    ),
    "formats": (
        "document_to_network document_to_path dumps_network dumps_path loads_network "
        "loads_path network_to_document parse_einsum path_to_document"
    ),
    "generate": "GenConfig generate",
    "greedy": "GreedyConfig greedy greedy_path sampled_greedy",
    "partition": (
        "Hypergraph PartitionConfig bisect build_hypergraph cut_weight partition_optimize"
    ),
    "search": "SearchConfig SearchStats exhaustive_bfs exhaustive_dfs exhaustive_path",
}


def test_package_all_is_the_union_of_the_module_lists():
    lists = [importlib.import_module(f"einpath.{m}").__all__ for m in PUBLIC]
    assert einpath.__all__ == sorted(name for names in lists for name in names)
    assert len(set(einpath.__all__)) == len(einpath.__all__)
    for m, names in PUBLIC.items():
        module = importlib.import_module(f"einpath.{m}")
        assert sorted(module.__all__) == sorted(names.split()), m
        for name in names.split():
            assert getattr(einpath, name) is getattr(module, name), name
    assert len(einpath.__all__) == 52
