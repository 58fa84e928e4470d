import importlib
import pkgutil

import slconv


def test_every_export_exists():
    # a deletion must take its name out of __all__ too
    for info in pkgutil.iter_modules(slconv.__path__):
        mod = importlib.import_module("slconv." + info.name)
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert not missing, (info.name, missing)
