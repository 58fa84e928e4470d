import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import slconv


def test_every_export_exists():
    # a deletion must take its name out of __all__ too
    for info in pkgutil.iter_modules(slconv.__path__):
        mod = importlib.import_module("slconv." + info.name)
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert not missing, (info.name, missing)


def test_no_unused_module_imports():
    # every name a module-level import binds is used in the module or
    # exported through __all__
    for path in sorted(pathlib.Path(p) for d in slconv.__path__
                       for p in pathlib.Path(d).glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        bound = [(a.asname or a.name).split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for a in node.names]
        unused = [name for name in bound if name not in used]
        assert not unused, (path.name, unused)


def test_every_error_class_is_used():
    # every class in errors.py is named as errors.<Name> in another slconv
    # module, or is the base of another class in errors.py
    pkg = pathlib.Path(slconv.__path__[0])
    tree = ast.parse((pkg / "errors.py").read_text())
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    used = {b.id for n in tree.body if isinstance(n, ast.ClassDef)
            for b in n.bases if isinstance(b, ast.Name)}
    for path in pkg.glob("*.py"):
        if path.name == "errors.py":
            continue
        used |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "errors"}
    assert [c for c in classes if c not in used] == []


def test_perfbench_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer looks up every name it patches when it is
    # installed, and wraps each family's closures by field name: a rename
    # in slconv fails here instead of in a traced benchmark run (start()
    # is never called, so nothing is patched)
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer")
    _, _, mods = run.import_program()
    trace = tracer.Tracer()
    trace.install(mods)
    for name in mods["families"].FAMILY_NAMES:
        trace.wrap_family(mods["families"].make_family(name))
    assert not trace.active
    for name in ("run", "tracer"):
        sys.modules.pop(name)


def test_startup_imports_leave_out_integrate_and_interpolate():
    # scipy.integrate is imported on demand only (kernel.solve_ivp through
    # the module's __getattr__), and scipy.interpolate not at all; a fresh
    # process shows what importing the CLI loads
    src = str(pathlib.Path(slconv.__path__[0]).parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, slconv.cli\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate')"
            " if m in sys.modules))\n"
            "import slconv.kernel\n"
            "print(slconv.kernel.solve_ivp.__module__)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    loaded, owner = res.stdout.splitlines()
    assert loaded == "[]"
    assert owner.startswith("scipy.integrate")


def test_jacobi_and_hankel_work_leaves_out_scipy_linalg():
    # the Gauss-Jacobi rules are numpy's Golub-Welsch, so a jacobi product
    # check, a hankel convolution and a jacobi walk never import
    # scipy.linalg (scipy.special.roots_jacobi does)
    src = str(pathlib.Path(slconv.__path__[0]).parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from slconv import convolution, families, measures, prob\n"
        "jac = families.make_family('jacobi', alpha=1.0, beta=0.0)\n"
        "convolution.verify_product_formula(jac, 0.8, 1.1, [0.0, 5.0],\n"
        "                                   use_closed_kernel=True)\n"
        "mu = measures.MeasureRepr(atoms=((0.5, 0.5), (1.0, 0.5)))\n"
        "convolution.convolve_measures(\n"
        "    families.make_family('hankel', alpha=1.0), mu, mu)\n"
        "prob.walk_ensemble(jac, mu, 2, 4, np.random.default_rng(1))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
        "\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.strip() == "[]"
