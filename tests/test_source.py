import ast
from pathlib import Path

import pareto_kit


def test_no_module_uses_assert():
    """Invariants raise InternalInconsistency: ``python -O`` strips an
    ``assert`` statement, and the check with it."""
    package = Path(pareto_kit.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_library_block_runs():
    """README's "Library" example runs, so a renamed or deleted public
    name fails here instead of leaving the README stale."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_cli_imports_no_private_name():
    """Which hull LP runs when is decided in the library; the command line
    reaches it through public names only."""
    path = Path(pareto_kit.__file__).resolve().parent / "cli.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("pareto_kit"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_benchmark_caches_exist():
    """The benchmark clears and reads, by name, the lru caches that
    ``perfbench/layers.py`` lists in ``CACHED``; each must still be one."""
    import importlib

    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    (cached,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CACHED" for t in node.targets)
    ]
    assert cached
    for layer, names in cached.items():
        module = importlib.import_module(f"pareto_kit.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert callable(fn.cache_clear) and callable(fn.cache_info), name


def _lp_imports(name: str) -> list[str]:
    """The LP names and modules that ``pareto_kit/<name>`` imports."""
    path = Path(pareto_kit.__file__).resolve().parent / name
    lp_names = {"linprog", "lp_solve", "lp_solve_batch"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.endswith("linprog"):
                found.append(module)
            found += sorted(names & lp_names)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.endswith("linprog")]
    return found


def test_cones_import_no_lp():
    """Cone membership, pointedness, properness and the strictly positive
    direction are read from the checked double description; no LP.  So
    are the hull weights: ``hulls`` keeps only the batch of its
    membership program and its delta objective, and
    ``reducibility`` reads the weight cone and solves no LP itself."""
    assert _lp_imports("cones.py") == []
    assert _lp_imports("reducibility.py") == []
    assert not {"lp_solve", "linprog"} & set(_lp_imports("hulls.py"))


def _functions_naming(name: str, wanted) -> dict[str, set[str]]:
    """For each top-level function of ``pareto_kit/<name>``, the names in
    ``wanted`` that its body reads; "<module>" collects the rest."""
    path = Path(pareto_kit.__file__).resolve().parent / name
    tree = ast.parse(path.read_text(), str(path))
    found: dict[str, set[str]] = {}
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in wanted:
                found.setdefault(owner, set()).add(inner.id)
    return found


def test_polyhedra_lps_only_in_feasible_point_and_section_minima():
    """The section recession direction reads the double description; only
    the feasible point and the section minima solve LPs."""
    lp_names = {"linprog", "lp_solve", "lp_solve_batch"}
    users = _functions_naming("polyhedra.py", lp_names)
    assert set(users) == {"feasible_point", "_section_minima"}


def test_ray_sum_over_gcd_is_written_once():
    """One helper, ``cones._ray_sum``, sums rays and divides by the gcd:
    no other function of these modules names both ``sum`` and ``gcd``."""
    found = []
    for name in ("cones.py", "hulls.py", "polyhedra.py"):
        users = _functions_naming(name, {"sum", "gcd"})
        found += [f"{name}:{f}" for f, names in users.items() if names == {"sum", "gcd"}]
    assert found == ["cones.py:_ray_sum"]
