import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tessperc

SRC = Path(tessperc.__file__).resolve().parent

# The entry points: the CLI, the harness op table, the SVG renderer and the
# Peierls probe, as (module file, top-level name).
ENTRY_POINTS = [("cli.py", "main"), ("harness.py", "OPS"), ("render.py", "render_svg"),
                ("diagnostics.py", "peierls_probe")]


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _bound_names(node) -> list:
    """Names a top-level statement defines (defs, classes, assignments)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _mentioned_names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_imports_another_modules_private_names():
    private = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tessperc"):
                continue
            private += [f"{name}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = _mentioned_names(tree)
        unused += [f"{name}: {alias}" for alias in imported if alias not in used]
    assert unused == []


def _public_methods(node) -> list:
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def _mentions_outside(node, skipped) -> set:
    """Names node mentions, leaving out the subtrees in skipped."""
    names, todo = set(), [node]
    while todo:
        n = todo.pop()
        if any(n is s for s in skipped):
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        todo += ast.iter_child_nodes(n)
    return names


def test_every_public_name_is_reached_from_an_entry_point():
    """Name-level reachability: a reached node reaches every node, in any
    module, that defines a name it mentions. The nodes are the top-level
    statements and the public methods of top-level classes; a class reaches
    its private and dunder methods but not its public ones. A method whose
    name more than one class defines is reached only from a node that
    mentions both the name and its class."""
    modules = _modules()
    defs = {}  # name -> (node defining it, its class or None)
    public = []
    for module, tree in modules.items():
        for node in tree.body:
            for name in _bound_names(node):
                defs.setdefault(name, []).append((node, None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((f"{module}: {node.name}", node))
                for method in _public_methods(node):
                    defs.setdefault(method.name, []).append((method, node.name))
                    public.append((f"{module}: {node.name}.{method.name}", method))
    shared = {name for name, found in defs.items()
              if len({cls for _, cls in found if cls is not None}) > 1}
    todo = [node for module, root in ENTRY_POINTS for node in modules[module].body
            if root in _bound_names(node)]
    assert len(todo) == len(ENTRY_POINTS)
    reached = set()
    while todo:
        node = todo.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        mentioned = _mentions_outside(node, _public_methods(node))
        todo += [d for name in mentioned for d, cls in defs.get(name, ())
                 if cls is None or name not in shared or cls in mentioned]
    assert [name for name, node in public if id(node) not in reached] == []


# Run in a fresh interpreter: the CLI rejecting a config, a square-lattice
# crossing and p_c run at workers=1, then one Poisson build. Prints, after
# the harness import and after each stage, the loaded scipy modules, whether
# the process pool is loaded and whether numpy.random is.
_STARTUP_PROBE = """
import json, sys
from tessperc import harness
stages = {"import_numpy_random": "numpy.random" in sys.modules}
from tessperc.cli import main
from tessperc.experiment import ExperimentSpec, build_tessellation

work = sys.argv[1]
sq = {"kind": "square_lattice", "params": {"spacing": 1.0, "random_shift": True}}
configs = {
    "rejected": {"op": "crossing", "process": sq, "window": [[-4, -4], [4, 4]],
                 "buffer": 3.0, "p": 0.5, "replicates": 50, "master_seed": 1},
    "crossing": {"op": "crossing", "process": sq, "window": [[-4, -4], [4, 4]],
                 "p": 0.5, "replicates": 50, "master_seed": 2},
    "pc": {"op": "pc", "process": sq, "window": [[-4, -4], [4, 4]], "replicates": 10,
           "master_seed": 3, "params": {"tolerance": 0.2, "replicates_per_probe": 50}},
    "sweep_star": {"op": "crossing", "process": sq, "window": [[-4, -4], [4, 4]],
                   "adjacency": "star", "p_grid": [0.4, 0.5], "replicates": 3,
                   "master_seed": 4},
}
for name, cfg in configs.items():
    path = f"{work}/{name}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    if name == "rejected":
        stages[name] = main(["run", path, "--out", f"{work}/out"])
    elif name == "sweep_star":
        harness.sweep(path, out_dir=f"{work}/out", workers=1)
    else:
        harness.run(path, out_dir=f"{work}/out", workers=1)
    stages[name + "_modules"] = sorted(m for m in sys.modules
                                       if m.split(".")[0] == "scipy"
                                       or m == "concurrent.futures.process")
    stages[name + "_numpy_random"] = "numpy.random" in sys.modules
spec = ExperimentSpec.from_json({"process": {"kind": "poisson", "params": {"gamma": 1.0}},
                                 "window": [[-3, -3], [3, 3]]})
build_tessellation(spec, 0)
stages["poisson_build_loads_spatial"] = "scipy.spatial" in sys.modules
print(json.dumps(stages))
"""


def test_lattice_runs_and_rejected_configs_load_neither_scipy_nor_the_pool(tmp_path):
    """scipy is imported by the first Voronoi build (or Matern II thinning)
    and the process pool by the first run with workers > 1, not at start-up,
    nor by lattice crossing, p_c and star-adjacency sweep runs. numpy.random
    is imported by the first random stream, not by the harness import nor
    by a rejected config."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages == {"rejected": 2, "rejected_modules": [], "crossing_modules": [],
                      "pc_modules": [], "sweep_star_modules": [],
                      "poisson_build_loads_spatial": True,
                      "import_numpy_random": False, "rejected_numpy_random": False,
                      "crossing_numpy_random": True, "pc_numpy_random": True,
                      "sweep_star_numpy_random": True}
