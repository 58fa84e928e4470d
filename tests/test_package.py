import ast
import importlib
import pathlib
import pkgutil

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
